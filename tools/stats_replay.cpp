// stats-replay: inspect, diff, and re-drive record/replay logs
// (docs/REPLAY.md). Subcommands:
//
//   stats-replay inspect <log> [--limit=N] [--run=R]
//       Header, metadata, per-run summary, and a record listing.
//   stats-replay diff <a> <b>
//       First differing record between two logs (exit 1 if any).
//   stats-replay replay <log> [--faults=PLAN] [run options...]
//       Re-run the recorded benchmark under the log; exit 1 on
//       divergence. Equivalent to `statscc run --replay=<log>`.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "replay/fault_plan.hpp"
#include "replay/log_render.hpp"
#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "support/seed_sequence.hpp"
#include "support/string_utils.hpp"

using namespace stats;

namespace {

struct Options
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> named;

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = named.find(key);
        return it == named.end() ? fallback : it->second;
    }
};

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string word = argv[i];
        if (support::startsWith(word, "--")) {
            const auto eq = word.find('=');
            if (eq == std::string::npos)
                options.named[word.substr(2)] = "true";
            else
                options.named[word.substr(2, eq - 2)] =
                    word.substr(eq + 1);
        } else {
            options.positional.push_back(word);
        }
    }
    return options;
}

replay::RecordLog
loadOrDie(const std::string &path)
{
    std::string error;
    auto log = replay::RecordLog::loadFile(path, error);
    if (!log) {
        std::cerr << "stats-replay: " << path << ": " << error << "\n";
        std::exit(2);
    }
    return std::move(*log);
}

void
printRecord(const replay::Record &record)
{
    std::fputs(replay::renderRecord(record).c_str(), stdout);
}

int
cmdInspect(const Options &options)
{
    if (options.positional.empty()) {
        std::cerr << "usage: stats-replay inspect <log> [--limit=N] "
                     "[--run=R]\n";
        return 2;
    }
    const replay::RecordLog log = loadOrDie(options.positional[0]);

    std::printf("schema version : %llu\n",
                static_cast<unsigned long long>(
                    replay::kLogSchemaVersion));
    std::printf("root seed      : %llu\n",
                static_cast<unsigned long long>(log.rootSeed));
    std::printf("engine runs    : %u\n", log.runCount());
    std::printf("records        : %zu\n", log.records.size());
    for (const auto &entry : log.metadata) {
        std::printf("meta %-10s: %s\n", entry.first.c_str(),
                    entry.second.c_str());
    }

    const long limit = std::stol(options.get("limit", "64"));
    const long run_filter = std::stol(options.get("run", "-1"));
    long printed = 0;
    long skipped = 0;
    for (const auto &record : log.records) {
        if (run_filter >= 0 &&
            record.run != static_cast<std::uint32_t>(run_filter)) {
            continue;
        }
        if (limit != 0 && printed >= limit) {
            ++skipped;
            continue;
        }
        printRecord(record);
        ++printed;
    }
    if (skipped > 0) {
        std::printf("  ... %ld more (raise --limit or use --run)\n",
                    skipped);
    }
    return 0;
}

int
cmdDiff(const Options &options)
{
    if (options.positional.size() < 2) {
        std::cerr << "usage: stats-replay diff <a> <b>\n";
        return 2;
    }
    const replay::RecordLog a = loadOrDie(options.positional[0]);
    const replay::RecordLog b = loadOrDie(options.positional[1]);

    const replay::DiffRender render = replay::renderDiff(a, b);
    std::fputs(render.text.c_str(), stdout);
    return render.identical ? 0 : 1;
}

int
cmdReplay(const Options &options)
{
    if (options.positional.empty()) {
        std::cerr << "usage: stats-replay replay <log> "
                     "[--faults=PLAN]\n";
        return 2;
    }
    replay::RecordLog log = loadOrDie(options.positional[0]);
    replay::ReplaySession session;

    const std::string fault_spec = options.get("faults", "");
    if (!fault_spec.empty()) {
        std::string error;
        auto plan = replay::FaultPlan::fromSpec(fault_spec, error);
        if (!plan) {
            std::cerr << "stats-replay: " << error << "\n";
            return 2;
        }
        session.setFaultPlan(*plan);
        std::cerr << "fault plan: " << plan->describe() << "\n";
    }

    const std::string bench_name = log.meta("benchmark", "");
    if (bench_name.empty()) {
        std::cerr << "stats-replay: log has no `benchmark` metadata "
                     "(recorded by a fig harness?); re-drive it with "
                     "the harness's own --replay flag instead\n";
        return 2;
    }
    auto bench = benchmarks::createBenchmark(bench_name);

    benchmarks::RunRequest request;
    const std::string mode = log.meta("mode", "par");
    request.mode = mode == "original" ? benchmarks::Mode::Original
                   : mode == "seq"    ? benchmarks::Mode::SeqStats
                                      : benchmarks::Mode::ParStats;
    request.threads = std::stoi(log.meta("threads", "28"));
    request.workload = log.meta("workload", "rep") == "bad"
                           ? benchmarks::WorkloadKind::NonRepresentative
                           : benchmarks::WorkloadKind::Representative;
    request.session = &session;
    const std::uint64_t root_seed = log.rootSeed;
    if (root_seed != 0) {
        const support::SeedSequence seeds(root_seed);
        request.workloadSeed = seeds.derive("workload");
        request.runSeed = seeds.derive("run");
    }

    session.startReplay(std::move(log));
    bench->run(request);
    const replay::ReplayReport report = session.finishReplay();
    if (report.diverged) {
        std::printf("replay DIVERGED: %s\n",
                    report.first.describe().c_str());
        return 1;
    }
    std::printf("replay OK: matched %llu choice points across %u "
                "engine runs\n",
                static_cast<unsigned long long>(report.recordsMatched),
                report.runsReplayed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    const Options options = parse(argc, argv);
    if (command == "inspect")
        return cmdInspect(options);
    if (command == "diff")
        return cmdDiff(options);
    if (command == "replay")
        return cmdReplay(options);
    std::cerr << "usage: stats-replay <inspect|diff|replay> ...\n"
                 "  inspect <log> [--limit=N] [--run=R]\n"
                 "  diff <a> <b>\n"
                 "  replay <log> [--faults=PLAN]\n"
                 "see docs/REPLAY.md\n";
    return 2;
}
