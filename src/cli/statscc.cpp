/**
 * @file
 * statscc — the STATS command-line driver.
 *
 * Subcommands:
 *   list                          benchmarks, tradeoffs, state spaces
 *   run <benchmark> [options]     run one configuration
 *   tune <benchmark> [options]    autotune; optional results store
 *   frontend <file|benchmark>     run the front-end compiler
 *   pipeline <ir-file> [options]  middle-end + back-end on an IR file
 *   disasm <ir-file> [options]    compile to bytecode and disassemble
 *   fuzz [options]                generative differential testing
 *
 * Execution-tier options (see docs/INTERPRETER.md):
 *   --exec-tier=ast|bytecode|auto tier for executing getValue() and
 *                                 fuzz transitions (default auto)
 *   --function=NAME               disasm: one function only
 *   --midend                      disasm: run the middle-end first
 *
 * Fuzzing options (see docs/TESTING.md):
 *   --seed=N                  campaign root seed         (default 1)
 *   --runs=N                  generated cases            (default 500)
 *   --artifacts=DIR           failure artifacts ("" = none)
 *                             (default fuzz-artifacts)
 *   --case=FILE               replay one case file instead
 *   --near-miss-every=N       every Nth case must be rejected
 *   --faults-every=N          every Nth case gets a fault storm
 *   --max-inputs=N            cap generated input counts
 *   --no-shrink               keep failing cases unminimized
 *   --shrink-evals=N          shrinker oracle budget     (default 400)
 *   --max-failures=N          stop after N failures      (default 8)
 *   --no-analysis             skip the static-analysis stage
 *   --verbose                 log every case, not only failures
 *
 * Analysis options (pipeline; see docs/ANALYSIS.md, and stats-lint
 * for linting modules on their own):
 *   --analyze[=pass]          gate the middle-end output on a pass:
 *                             verify, purity, clone-audit, freeze,
 *                             escape, range, bytecode-verify
 *                                                       (default all)
 *   --analysis-format=FMT     text|json                 (default text)
 *
 * Common options:
 *   --mode=original|seq|par   parallelization mode      (default par)
 *   --threads=N               hardware threads          (default 28)
 *   --workload=rep|bad        input family              (default rep)
 *   --budget=N                tuning evaluations        (default 60)
 *   --objective=time|energy   tuning objective          (default time)
 *   --db=FILE                 results store to reuse/update
 *   --seed=N                  root seed; derives the workload, run,
 *                             and tuner streams via SeedSequence
 *                             (0 = entropy)
 *
 * Record/replay + fault injection (run/tune; see docs/REPLAY.md):
 *   --record=FILE             record the engine's nondeterministic
 *                             choice points to a replayable log
 *   --replay=FILE             re-drive the engine from a recorded
 *                             log; exits 1 on the first divergence
 *   --faults=PLAN             inject faults (spec string or file;
 *                             grammar in docs/REPLAY.md §4)
 *
 * Observability (run/tune; see docs/OBSERVABILITY.md):
 *   --trace=FILE              record speculation events, export a
 *                             chrome://tracing JSON to FILE
 *   --metrics=FILE            dump the trace-derived metrics JSON
 *   --snapshots=FILE          tune: per-configuration profiler
 *                             snapshots (JSON)
 *   --audit=FILE              tune: the autotuner's decision trail
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "autotuner/results_io.hpp"
#include "backend/backend.hpp"
#include "observability/chrome_trace.hpp"
#include "observability/metrics.hpp"
#include "observability/summary.hpp"
#include "observability/trace.hpp"
#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/extended_sources.hpp"
#include "frontend/frontend.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/disasm.hpp"
#include "ir/exec_tier.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "midend/midend.hpp"
#include "profiler/profiler.hpp"
#include "replay/fault_plan.hpp"
#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "support/log.hpp"
#include "support/seed_sequence.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "testing/fuzzer.hpp"

namespace {

using namespace stats;
using namespace stats::benchmarks;

/** Parsed command line: positionals plus --key=value options. */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    std::string
    option(const std::string &key, const std::string &fallback) const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    int
    intOption(const std::string &key, int fallback) const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : std::stoi(it->second);
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string word = argv[i];
        if (support::startsWith(word, "--")) {
            const auto eq = word.find('=');
            if (eq == std::string::npos)
                args.options[word.substr(2)] = "true";
            else
                args.options[word.substr(2, eq - 2)] =
                    word.substr(eq + 1);
        } else {
            args.positional.push_back(word);
        }
    }
    return args;
}

/**
 * Observability options shared by `run` and `tune`: when `--trace` or
 * `--metrics` is given, the global trace is enabled before the work
 * happens and `finish()` exports the collected events afterwards.
 */
struct ObsOptions
{
    std::string tracePath;
    std::string metricsPath;

    static ObsOptions
    fromArgs(const Args &args)
    {
        ObsOptions options;
        options.tracePath = args.option("trace", "");
        options.metricsPath = args.option("metrics", "");
        if (options.active()) {
            obs::Trace::global().enable();
            // Folds to false when the layer is compiled out.
            if (!obs::traceActive())
                support::fatal(
                    "--trace/--metrics need tracing compiled in "
                    "(built with STATS_OBS_DISABLE)");
        }
        return options;
    }

    bool active() const
    {
        return !tracePath.empty() || !metricsPath.empty();
    }

    void
    finish() const
    {
        if (!active())
            return;
        auto &trace = obs::Trace::global();
        const auto events = trace.collect();
        const auto summary =
            obs::summarizeTrace(events, trace.dropped());
        obs::fillRegistry(summary, obs::MetricsRegistry::global());
        if (!tracePath.empty()) {
            std::ofstream out(tracePath);
            if (!out)
                support::fatal("cannot open '", tracePath, "'");
            obs::writeChromeTrace(out, events);
            std::cout << "wrote " << events.size()
                      << " trace events to " << tracePath
                      << " (load in chrome://tracing)\n";
        }
        if (!metricsPath.empty()) {
            std::ofstream out(metricsPath);
            if (!out)
                support::fatal("cannot open '", metricsPath, "'");
            obs::writeSummaryJson(out, summary);
            std::cout << "wrote metrics to " << metricsPath << "\n";
        }
        obs::printSummaryTable(std::cout, summary);
    }
};

/**
 * Record/replay + fault-injection options shared by `run` and `tune`
 * (docs/REPLAY.md), and the command's one replay session. Lifecycle:
 * the constructor loads the log and installs the fault plan, metadata
 * defaults may then be consulted, start() puts the session into
 * record or replay mode, finish() saves the recording or reports the
 * replay verdict (the process exit code).
 */
struct ReplayOptions
{
    std::string recordPath;
    std::string replayPath;
    replay::RecordLog log; ///< Loaded log; consumed by start().
    replay::ReplaySession session;

    bool recording() const { return !recordPath.empty(); }
    bool replaying() const { return !replayPath.empty(); }

    explicit ReplayOptions(const Args &args)
        : recordPath(args.option("record", "")),
          replayPath(args.option("replay", ""))
    {
        if (recording() && replaying())
            support::fatal("--record and --replay are exclusive");
        const std::string fault_spec = args.option("faults", "");
        if (!fault_spec.empty()) {
            std::string error;
            auto plan = replay::FaultPlan::fromSpec(fault_spec, error);
            if (!plan)
                support::fatal(error);
            session.setFaultPlan(*plan);
            std::cout << "fault plan: " << plan->describe() << "\n";
        }
        if (replaying()) {
            std::string error;
            auto loaded = replay::RecordLog::loadFile(replayPath, error);
            if (!loaded)
                support::fatal("--replay: ", error);
            log = std::move(*loaded);
        }
    }

    /**
     * A recorded command-line default: on replay, options not given
     * explicitly fall back to what the recording stored.
     */
    std::string
    recorded(const Args &args, const std::string &key,
             const std::string &fallback) const
    {
        return args.option(key, replaying() ? log.meta(key, fallback)
                                            : fallback);
    }

    /** Begin the session; returns the effective root seed. */
    std::uint64_t
    start(std::uint64_t requested_seed)
    {
        if (replaying()) {
            const std::uint64_t seed = log.rootSeed;
            session.startReplay(std::move(log));
            return seed;
        }
        if (recording()) {
            std::uint64_t seed = requested_seed;
            if (seed == 0) {
                // Entropy seeding cannot be reproduced; pin the run.
                seed = 1;
                std::cout << "note: --record without --seed; pinning "
                             "root seed to 1 for determinism\n";
            }
            session.startRecording(seed);
            return seed;
        }
        return requested_seed;
    }

    /** Save/verify; returns the process exit code (1 = divergence). */
    int
    finish()
    {
        if (recording()) {
            const replay::RecordLog recorded =
                session.finishRecording();
            recorded.saveFile(recordPath);
            std::cout << "recorded " << recorded.records.size()
                      << " choice points (" << recorded.runCount()
                      << " engine runs, seed " << recorded.rootSeed
                      << ") to " << recordPath << "\n";
            return 0;
        }
        if (replaying()) {
            const replay::ReplayReport report = session.finishReplay();
            if (report.diverged) {
                std::cout << "replay DIVERGED: "
                          << report.first.describe() << "\n";
                return 1;
            }
            std::cout << "replay OK: matched " << report.recordsMatched
                      << " choice points across " << report.runsReplayed
                      << " engine runs\n";
        }
        return 0;
    }
};

Mode
parseMode(const std::string &word)
{
    if (word == "original")
        return Mode::Original;
    if (word == "seq")
        return Mode::SeqStats;
    if (word == "par")
        return Mode::ParStats;
    support::fatal("unknown mode '", word,
                   "' (expected original|seq|par)");
}

WorkloadKind
parseWorkload(const std::string &word)
{
    if (word == "rep")
        return WorkloadKind::Representative;
    if (word == "bad")
        return WorkloadKind::NonRepresentative;
    support::fatal("unknown workload '", word, "' (expected rep|bad)");
}

int
cmdList(const Args &)
{
    support::TextTable table({"benchmark", "tradeoffs", "state deps",
                              "state-space points (28 threads)"});
    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto frontend_result = frontend::compileExtendedSource(
            extendedSourceFor(name), name);
        std::ostringstream points;
        points << bench->stateSpace(28).totalPoints();
        table.addRow({name, std::to_string(bench->tradeoffCount()),
                      std::to_string(frontend_result.stateDeps.size()),
                      points.str()});
    }
    table.print(std::cout);
    return 0;
}

int
cmdRun(const Args &args)
{
    ReplayOptions replay_options(args);
    // On replay the recording itself supplies the benchmark and any
    // option not overridden on the command line.
    const std::string bench_name =
        !args.positional.empty()
            ? args.positional[0]
            : replay_options.log.meta("benchmark", "");
    if (bench_name.empty())
        support::fatal("usage: statscc run <benchmark> [options]");
    auto bench = createBenchmark(bench_name);
    const ObsOptions obs_options = ObsOptions::fromArgs(args);

    RunRequest request;
    request.mode =
        parseMode(replay_options.recorded(args, "mode", "par"));
    request.threads =
        std::stoi(replay_options.recorded(args, "threads", "28"));
    request.workload = parseWorkload(
        replay_options.recorded(args, "workload", "rep"));

    const auto requested_seed = static_cast<std::uint64_t>(
        std::stoll(replay_options.recorded(args, "seed", "0")));
    const std::uint64_t root_seed =
        replay_options.start(requested_seed);
    if (root_seed != 0) {
        // One root seed drives every stream (docs/REPLAY.md §1).
        const support::SeedSequence seeds(root_seed);
        request.workloadSeed = seeds.derive("workload");
        request.runSeed = seeds.derive("run");
    }
    request.session = &replay_options.session;
    if (replay_options.recording()) {
        auto &session = replay_options.session;
        session.setMetadata("benchmark", bench->name());
        session.setMetadata("mode", args.option("mode", "par"));
        session.setMetadata("threads",
                            std::to_string(request.threads));
        session.setMetadata("workload",
                            args.option("workload", "rep"));
        session.setMetadata("seed", std::to_string(root_seed));
    }

    const RunResult result = bench->run(request);
    const auto oracle =
        bench->oracleSignature(request.workload, request.workloadSeed);

    std::cout << bench->name() << " [" << modeName(request.mode) << ", "
              << request.threads << " threads]\n";
    std::cout << "  time:    " << result.virtualSeconds << " s\n";
    std::cout << "  energy:  " << result.energyJoules << " J\n";
    std::cout << "  quality: "
              << bench->quality(result.signature, oracle)
              << " (distance to oracle; lower is better)\n";
    const auto &stats = result.engineStats;
    std::cout << "  engine:  groups=" << stats.groups
              << " commits=" << stats.validations
              << " mismatches=" << stats.mismatches
              << " re-execs=" << stats.reexecutions
              << " aborts=" << stats.aborts
              << " extra-work=" << 100.0 * stats.extraWorkFraction()
              << "%\n";
    obs_options.finish();
    return replay_options.finish();
}

int
cmdTune(const Args &args)
{
    if (args.positional.empty())
        support::fatal("usage: statscc tune <benchmark> [options]");
    auto bench = createBenchmark(args.positional[0]);
    ReplayOptions replay_options(args);
    const ObsOptions obs_options = ObsOptions::fromArgs(args);

    const Mode mode = parseMode(args.option("mode", "par"));
    const int threads = args.intOption("threads", 28);
    const int budget = args.intOption("budget", 60);
    const auto objective = args.option("objective", "time") == "energy"
                               ? profiler::Objective::Energy
                               : profiler::Objective::Time;
    const std::string db_path = args.option("db", "");

    const std::uint64_t root_seed = replay_options.start(
        static_cast<std::uint64_t>(args.intOption("seed", 1)));
    const support::SeedSequence seeds(root_seed);
    if (replay_options.recording()) {
        auto &session = replay_options.session;
        session.setMetadata("benchmark", bench->name());
        session.setMetadata("command", "tune");
        session.setMetadata("seed", std::to_string(root_seed));
    }

    sim::MachineConfig machine;
    profiler::Profiler profiler(*bench, mode, threads, machine,
                                parseWorkload(args.option("workload",
                                                          "rep")));
    profiler.setReplaySession(&replay_options.session);
    // One root seed drives every stream, as in cmdRun: a seeded tune
    // prints the same result every time (docs/REPLAY.md §1).
    if (root_seed != 0)
        profiler.setRunSeed(seeds.derive("run"));
    autotuner::Autotuner tuner(bench->stateSpace(threads),
                               seeds.derive("tuner"));

    // Reuse a previous exploration of the same objective, if any.
    if (!db_path.empty()) {
        std::ifstream in(db_path);
        if (in) {
            tuner.preload(
                autotuner::readResults(in, tuner.space()));
            std::cout << "loaded " << tuner.results().size()
                      << " profiled configurations from " << db_path
                      << "\n";
        }
    }

    const auto result =
        tuner.tune(profiler.objectiveFunction(objective), budget);
    const auto best = profiler.profile(result.best);

    std::cout << "evaluated " << result.evaluations
              << " new configurations (space: "
              << tuner.space().totalPoints() << " points)\n";
    std::cout << "best: " << tuner.space().describe(result.best) << "\n";
    std::cout << "  time " << best.seconds << " s, energy "
              << best.energyJoules << " J, quality " << best.quality
              << "\n";

    if (!db_path.empty()) {
        std::ofstream out(db_path);
        autotuner::writeResults(out, tuner.space(), tuner.results());
        std::cout << "stored " << tuner.results().size()
                  << " configurations to " << db_path << "\n";
    }

    const std::string snapshots_path = args.option("snapshots", "");
    if (!snapshots_path.empty()) {
        std::ofstream out(snapshots_path);
        if (!out)
            support::fatal("cannot open '", snapshots_path, "'");
        profiler.writeSnapshotsJson(out, tuner.space());
        std::cout << "wrote " << profiler.snapshots().size()
                  << " configuration snapshots to " << snapshots_path
                  << "\n";
    }
    const std::string audit_path = args.option("audit", "");
    if (!audit_path.empty()) {
        std::ofstream out(audit_path);
        if (!out)
            support::fatal("cannot open '", audit_path, "'");
        result.writeAuditJson(out, tuner.space());
        std::cout << "wrote " << result.audit.size()
                  << " audit entries to " << audit_path << "\n";
    }
    obs_options.finish();
    return replay_options.finish();
}

int
cmdFrontend(const Args &args)
{
    if (args.positional.empty())
        support::fatal("usage: statscc frontend <file|benchmark>");
    const std::string &target = args.positional[0];

    std::string source;
    std::string unit = target;
    std::ifstream in(target);
    if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
        const auto slash = unit.find_last_of('/');
        if (slash != std::string::npos)
            unit = unit.substr(slash + 1);
    } else {
        source = extendedSourceFor(target); // Embedded encodings.
    }

    const auto result = frontend::compileExtendedSource(source, unit);
    std::cout << "// " << result.tradeoffs.size() << " tradeoff(s), "
              << result.stateDeps.size() << " state dependence(s), "
              << result.originalLoc << " LOC in, "
              << result.generatedLoc << " LOC generated\n\n";
    std::cout << "// ---- generated header ----\n"
              << result.generatedHeader << "\n";
    std::cout << "// ---- IR metadata ----\n" << result.irMetadata;
    return 0;
}

/** Read and parse the IR file named by the first positional. */
ir::Module
loadModule(const Args &args, const char *usage_line)
{
    if (args.positional.empty())
        support::fatal("usage: ", usage_line);
    std::ifstream in(args.positional[0]);
    if (!in)
        support::fatal("cannot open '", args.positional[0], "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return ir::parseModule(buffer.str());
}

/** Selected analysis pass from `--analyze[=pass]` ("" = all). */
std::string
analysisPass(const Args &args)
{
    const std::string pass = args.option("analyze", "");
    if (pass.empty() || pass == "true")
        return "";
    if (!analysis::isPassName(pass)) {
        std::string known;
        for (const auto &name : analysis::passNames())
            known += (known.empty() ? "" : "|") + name;
        support::fatal("unknown analysis pass '", pass, "' (expected ",
                       known, ")");
    }
    return pass;
}

/** Run the analyzer and render it; returns the error count != 0. */
bool
analyzeModule(const ir::Module &module, const std::string &file,
              const Args &args, std::ostream &out)
{
    analysis::LintOptions options;
    options.pass = analysisPass(args);
    options.bytecodeVerifier = ir::bc::verifyCompiledModule;
    const auto diags = analysis::runAnalyses(module, options);
    const std::string format = args.option("analysis-format", "text");
    if (format == "json")
        analysis::writeDiagnosticsJson(out, module.name, file, diags);
    else if (format == "text")
        analysis::writeDiagnosticsText(out, file, diags);
    else
        support::fatal("unknown --analysis-format '", format,
                       "' (expected text|json)");
    return analysis::hasErrors(diags);
}

/** Parse `--exec-tier=` (docs/INTERPRETER.md §6). */
ir::ExecTier
execTierOption(const Args &args)
{
    const std::string word = args.option("exec-tier", "auto");
    const auto tier = ir::parseExecTier(word);
    if (!tier)
        support::fatal("unknown --exec-tier '", word,
                       "' (expected ast|bytecode|auto)");
    return *tier;
}

int
cmdDisasm(const Args &args)
{
    ir::Module module =
        loadModule(args, "statscc disasm <ir-file> [options]");
    const auto problems = ir::verifyModule(module);
    if (!problems.empty()) {
        for (const auto &problem : problems)
            std::cerr << "verify: " << problem << "\n";
        return 1;
    }
    if (args.option("midend", "") == "true")
        midend::runMiddleEnd(module);
    const ir::bc::BcModule bytecode = ir::bc::compileModule(module);
    const std::string fn_name = args.option("function", "");
    if (!fn_name.empty()) {
        const ir::bc::BcFunction *fn = bytecode.find(fn_name);
        if (!fn)
            support::fatal("disasm: unknown function @", fn_name);
        std::cout << ir::bc::disassemble(*fn);
    } else {
        std::cout << ir::bc::disassemble(bytecode);
    }
    return 0;
}

int
cmdPipeline(const Args &args)
{
    ir::Module module =
        loadModule(args, "statscc pipeline <ir-file> [options]");
    const auto problems = ir::verifyModule(module);
    if (!problems.empty()) {
        for (const auto &problem : problems)
            std::cerr << "verify: " << problem << "\n";
        return 1;
    }

    const std::size_t before = module.instructionCount();
    const auto report = midend::runMiddleEnd(module);
    std::cerr << "; middle-end: " << report.clonedFunctions.size()
              << " function clone(s), " << report.clonedTradeoffs.size()
              << " tradeoff clone(s), " << before << " -> "
              << module.instructionCount() << " instructions\n";

    // Optional speculation-safety gate on the middle-end output.
    if (args.options.count("analyze")) {
        if (analyzeModule(module, args.positional[0], args, std::cerr))
            return 1;
    }

    const std::string emit = args.option("emit", "binary");
    if (emit == "midend") {
        std::cout << ir::printModule(module);
        return 0;
    }
    if (emit != "binary")
        support::fatal("unknown --emit '", emit,
                       "' (expected midend|binary)");

    backend::BackendConfig config;
    config.execTier = execTierOption(args);
    for (const auto &dep : module.stateDeps)
        config.auxiliaryDeps.insert(dep.name);
    const std::string assignments = args.option("config", "");
    if (!assignments.empty()) {
        for (const auto &pair : support::split(assignments, ',')) {
            // Last colon: post-midend tradeoff names are themselves
            // namespace-qualified (aux::T_42).
            const auto colon = pair.rfind(':');
            if (colon == std::string::npos)
                support::fatal("--config wants name:index pairs");
            config.tradeoffIndices[pair.substr(0, colon)] =
                std::stoll(pair.substr(colon + 1));
        }
    }
    const backend::Executable executable =
        backend::instantiateExecutable(module, config);
    std::cerr << "; back-end: tier "
              << ir::execTierName(config.execTier) << ", "
              << executable.exec->bytecode().compiledCount() << "/"
              << executable.module->functions.size()
              << " function(s) compiled to bytecode\n";
    std::cout << ir::printModule(*executable.module);
    return 0;
}

int
cmdFuzz(const Args &args)
{
    testing::OracleOptions oracle;
    oracle.runAnalysis = !args.options.count("no-analysis");
    oracle.execTier = execTierOption(args);

    // Corpus-replay mode: re-run the oracle on one saved case file.
    const std::string case_path =
        args.option("case", args.positional.empty() ? ""
                                                    : args.positional[0]);
    if (!case_path.empty()) {
        const auto result =
            testing::replayCaseFile(case_path, oracle, std::cout);
        return result.ok ? 0 : 1;
    }

    testing::CampaignOptions options;
    options.seed =
        static_cast<std::uint64_t>(std::stoull(args.option("seed", "1")));
    options.runs = args.intOption("runs", 500);
    options.artifactsDir = args.option("artifacts", "fuzz-artifacts");
    options.generator.nearMissEvery =
        args.intOption("near-miss-every", options.generator.nearMissEvery);
    options.generator.faultsEvery =
        args.intOption("faults-every", options.generator.faultsEvery);
    options.generator.maxInputs =
        args.intOption("max-inputs", options.generator.maxInputs);
    options.shrink = !args.options.count("no-shrink");
    options.shrinkEvaluations = args.intOption("shrink-evals", 400);
    options.maxFailures = args.intOption("max-failures", 8);
    options.verbose = args.options.count("verbose") != 0;
    options.oracle = oracle;
    if (options.runs < 1)
        support::fatal("--runs must be at least 1");

    const auto summary = testing::runCampaign(options, std::cout);
    return summary.ok() ? 0 : 1;
}

void
usage()
{
    std::cerr
        << "usage: statscc <command> [arguments]\n"
        << "commands:\n"
        << "  list                         benchmarks and state spaces\n"
        << "  run <benchmark> [options]    run one configuration\n"
        << "  tune <benchmark> [options]   autotune a benchmark\n"
        << "  frontend <file|benchmark>    run the front-end compiler\n"
        << "  pipeline <ir-file>           middle-end + back-end\n"
        << "  disasm <ir-file>             bytecode disassembly\n"
        << "  fuzz [case-file]             differential testing campaign\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    const Args args = parseArgs(argc, argv);
    if (command == "list")
        return cmdList(args);
    if (command == "run")
        return cmdRun(args);
    if (command == "tune")
        return cmdTune(args);
    if (command == "frontend")
        return cmdFrontend(args);
    if (command == "pipeline")
        return cmdPipeline(args);
    if (command == "disasm")
        return cmdDisasm(args);
    if (command == "fuzz")
        return cmdFuzz(args);
    usage();
    return 1;
}
