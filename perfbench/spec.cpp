/**
 * @file
 * Workload spec_fine: back-to-back StateDependence runs (paper
 * Figure 9 API) on real threads, one caller, closed loop.
 *
 * Each input costs about 0.6 microseconds of deterministic C++
 * work, so pool submit/steal, the commit lane, the task arena and
 * engine orchestration dominate. The state remembers only the last
 * two inputs, which the two-input aux window rebuilds exactly; about
 * one run in eight (fixed by the seed) also carries a running sum the
 * window cannot rebuild, so mismatch -> re-execution -> abort runs.
 * The reference is the benchmark's own sequential loop over the same
 * inputs, compared with exact equality.
 */

#include "workloads.hpp"

#include <cstdio>
#include <memory>

#include "exec/thread_executor.hpp"
#include "observability/metrics.hpp"
#include "sdi/spec_engine.hpp"
#include "sdi/state_dependence.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace perfbench {
namespace {

/** Threads per run: half of nproc on the 4-core host. With four, one
 *  core taken by the host slows every run by half (README.md,
 *  "Threads"). */
constexpr int kThreads = 2;
/** Inputs per run: about 5 ms of sequential work, short enough that
 *  most runs miss the host's stalls (README.md, "Why CPU time"). */
constexpr std::size_t kInputsPerRun = 8192;
/** Every this many runs one keeps state the aux window cannot
 *  rebuild. */
constexpr std::uint64_t kLongMemoryEvery = 8;
/** Mixing rounds per input: about 0.6 us of work. */
constexpr int kRounds = 256;

struct FineInput
{
    std::uint64_t value = 0;
};

struct FineState
{
    std::uint64_t last = 0;
    std::uint64_t previous = 0;
    /** Long-memory runs only: a sum the aux window cannot rebuild. */
    std::uint64_t sum = 0;

    bool operator==(const FineState &) const = default;
};

using Output = std::uint64_t;

/** The computeOutput body shared by the engine and the reference. */
Output
step(const FineInput &input, FineState &state, bool long_memory)
{
    std::uint64_t x = input.value ^ (state.last * 0x9e3779b97f4a7c15ULL) ^
                      (state.previous * 0xbf58476d1ce4e5b9ULL) ^ state.sum;
    for (int r = 0; r < kRounds; ++r) {
        x ^= x >> 31;
        x *= 0x94d049bb133111ebULL;
        x += std::uint64_t(r);
    }
    state.previous = state.last;
    state.last = input.value * 0xd6e8feb86659fd93ULL;
    if (long_memory)
        state.sum += input.value;
    return x;
}

struct RunInputs
{
    std::vector<FineInput> storage;
    std::vector<FineInput *> pointers;
    bool longMemory = false;
};

RunInputs
makeRun(std::uint64_t seed, std::uint64_t index)
{
    const stats::support::SeedSequence seq(seed);
    stats::support::Xoshiro256 rng(seq.derive("spec_fine", index));
    RunInputs run;
    run.longMemory = (seed + index) % kLongMemoryEvery == 0;
    run.storage.resize(kInputsPerRun);
    for (auto &input : run.storage)
        input.value = rng();
    for (auto &input : run.storage)
        run.pointers.push_back(&input);
    return run;
}

stats::sdi::SpecConfig
config()
{
    stats::sdi::SpecConfig c;
    c.groupSize = 64;
    c.auxWindow = 2;
    c.maxReexecutions = 2;
    c.rollbackDepth = 1;
    c.sdThreads = kThreads;
    return c;
}

int
exactMatch(const FineState &spec, const std::vector<FineState> &originals)
{
    for (std::size_t i = 0; i < originals.size(); ++i)
        if (originals[i] == spec)
            return int(i);
    return -1;
}

/** The benchmark's own sequential loop: the reference outputs. */
std::vector<Output>
sequential(const RunInputs &run)
{
    std::vector<Output> out;
    out.reserve(run.storage.size());
    FineState state;
    for (const FineInput &input : run.storage)
        out.push_back(step(input, state, run.longMemory));
    return out;
}

/**
 * One run through the public Figure 9 API (the untraced path): wall
 * and process CPU seconds of start() -> join().
 */
std::vector<Output>
runStateDependence(RunInputs &run, double &seconds, double &cpu)
{
    FineState initial;
    const bool long_memory = run.longMemory;
    auto compute = [long_memory](FineInput *in, FineState *state) {
        return new Output(step(*in, *state, long_memory));
    };
    stats::sdi::StateDependence<FineInput, FineState, Output> dep(
        &run.pointers, &initial, compute);
    dep.setAuxiliaryCode(compute);
    dep.setMatcher(exactMatch);
    dep.setConfig(config());
    dep.setThreads(kThreads);
    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    dep.start();
    dep.join();
    seconds = nowSeconds() - t0;
    cpu = processCpuSeconds() - c0;
    std::vector<Output> out;
    out.reserve(dep.outputs().size());
    for (const Output *o : dep.outputs())
        out.push_back(*o);
    return out;
}

/** Counters the traced run accumulates over its runs. */
struct EngineTotals
{
    double runs = 0, inputs = 0, invocations = 0, validations = 0,
           aborts = 0, reexecutions = 0, stolen = 0, parks = 0,
           laneEnqueues = 0, laneDeferred = 0, recordAllocs = 0,
           allocs = 0;
    /** Sum over runs of the engine.arena.allocations_per_task gauge. */
    double arenaPerTask = 0;
    std::vector<double> submitNs;
};

/**
 * The traced path: the same run, but SpecEngine over a
 * benchmark-owned ThreadExecutor so the scheduler and commit-lane
 * counters can be read, with spans around each layer call.
 */
std::vector<Output>
runTraced(RunInputs &run, std::uint64_t index, SpanLog &spans,
          EngineTotals &totals, double &seconds)
{
    using Engine = stats::sdi::SpecEngine<FineInput *, FineState, Output>;
    const bool long_memory = run.longMemory;
    Engine::ComputeFn compute =
        [long_memory](FineInput *const &in, FineState &state,
                      const stats::sdi::ComputeContext &) {
            return Engine::Invocation{
                std::make_unique<Output>(step(*in, state, long_memory)),
                stats::exec::Work{0.0, 0.0}};
        };

    const double t0 = nowSeconds();
    const std::int64_t root = spans.open("sdi.run", t0, -1, index);
    auto executor =
        std::make_unique<stats::exec::ThreadExecutor>(kThreads);
    const double t1 = nowSeconds();
    spans.add("exec.executor_up", t0, t1, root, index);

    g_heapAllocs.store(0, std::memory_order_relaxed);
    g_countAllocs.store(true, std::memory_order_relaxed);
    Engine engine(*executor, run.pointers, FineState{}, compute, compute,
                  exactMatch, config());
    const double t2 = nowSeconds();
    engine.start();
    const double t3 = nowSeconds();
    spans.add("sdi.start", t2, t3, root, index);
    engine.join();
    const double t4 = nowSeconds();
    g_countAllocs.store(false, std::memory_order_relaxed);
    spans.add("sdi.join", t3, t4, root, index);
    seconds = (t4 - t0);

    const auto &st = engine.stats();
    const auto sched = executor->schedulerStats();
    const auto lane = executor->commitStats();
    totals.runs += 1;
    totals.inputs += double(run.storage.size());
    totals.invocations += double(st.invocations);
    totals.validations += double(st.validations);
    totals.aborts += double(st.aborts);
    totals.reexecutions += double(st.reexecutions);
    totals.stolen += double(sched.stolen);
    totals.parks += double(sched.parks);
    totals.laneEnqueues += double(lane.laneEnqueues);
    totals.laneDeferred += double(lane.laneDeferred);
    totals.recordAllocs += double(lane.recordAllocs);
    totals.allocs += double(g_heapAllocs.load(std::memory_order_relaxed));
    if (const auto *arena = stats::obs::MetricsRegistry::global().findGauge(
            "engine.arena.allocations_per_task"))
        totals.arenaPerTask += arena->value();

    std::vector<Output> out;
    out.reserve(engine.outputs().size());
    for (const auto &o : engine.outputs())
        out.push_back(*o);

    // External submission cost into the now-idle pool.
    const double t5 = nowSeconds();
    for (int k = 0; k < 32; ++k) {
        stats::exec::Task task;
        task.run = [] { return stats::exec::Work{0.0, 0.0}; };
        const auto s0 = std::chrono::steady_clock::now();
        executor->submit(std::move(task));
        const auto s1 = std::chrono::steady_clock::now();
        totals.submitNs.push_back(
            std::chrono::duration<double, std::nano>(s1 - s0).count());
    }
    executor->drain();
    spans.add("exec.submit_probe", t5, nowSeconds(), root, index);
    spans.close(root, nowSeconds());
    return out; // The engine is destroyed before its executor.
}

struct Phase
{
    std::vector<double> runSeconds;
    std::vector<double> seqSeconds;
    double inputs = 0;
    /** Process CPU seconds of the untraced runs. */
    double cpu = 0;
};

/**
 * Closed loop for `budget` seconds starting at run `first`. Returns
 * the next run index. Every output is checked against the sequential
 * reference; the sequential loop is timed as the speedup baseline.
 */
template <bool Traced>
std::uint64_t
closedLoop(const RunArgs &args, std::uint64_t first, double budget,
           Phase &phase, Report &report, SpanLog *spans,
           EngineTotals *totals)
{
    const double end = nowSeconds() + budget;
    std::uint64_t index = first;
    do {
        RunInputs run = makeRun(args.seed, index);
        const double s0 = nowSeconds();
        const std::vector<Output> reference = sequential(run);
        const double s1 = nowSeconds();
        if constexpr (Traced)
            spans->add("seq.loop", s0, s1, -1, index);

        double seconds = 0.0, cpu = 0.0;
        std::vector<Output> out;
        if constexpr (Traced)
            out = runTraced(run, index, *spans, *totals, seconds);
        else
            out = runStateDependence(run, seconds, cpu);
        if (args.corrupt == "spec" && index == 0 && !out.empty())
            out[out.size() / 2] ^= 1;

        ++report.attempted;
        if (out != reference) {
            ++report.failed;
            std::fprintf(stderr, "spec_fine: run %llu output differs "
                                 "from the sequential reference\n",
                         (unsigned long long)index);
        }
        phase.runSeconds.push_back(seconds);
        phase.seqSeconds.push_back(s1 - s0);
        phase.inputs += double(run.storage.size());
        phase.cpu += cpu;
        ++index;
    } while (nowSeconds() < end);
    return index;
}

} // namespace

Report
runSpecFine(const RunArgs &args)
{
    Report report;

    // Set-up: executor up plus warm-up runs, repeated; median of the
    // process CPU seconds each repetition takes.
    std::vector<double> setups;
    // Warm-up run indices start far above any measured one.
    std::uint64_t warm = std::uint64_t(1) << 40;
    for (int rep = 0; rep < 15; ++rep) {
        const double c0 = processCpuSeconds();
        for (int k = 0; k < 4; ++k) {
            RunInputs run = makeRun(args.seed, warm++);
            double seconds = 0.0, cpu = 0.0;
            runStateDependence(run, seconds, cpu);
        }
        setups.push_back(processCpuSeconds() - c0);
    }

    Phase phase;
    if (!args.trace) {
        closedLoop<false>(args, 0, args.seconds, phase, report, nullptr,
                          nullptr);
        report.set("setup_s", median(setups), "s");
        report.set("cpu_us_per_input", phase.cpu / phase.inputs * 1e6, "us");
        report.set("speedup_vs_seq",
                   quantile(phase.seqSeconds, 0.25) /
                       quantile(phase.runSeconds, 0.25),
                   "x");
        report.set("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Traced run: an untraced half first, then the traced half; the
    // throughput difference is the tracing overhead.
    const std::uint64_t next =
        closedLoop<false>(args, 0, args.seconds / 2, phase, report,
                          nullptr, nullptr);
    SpanLog spans;
    EngineTotals totals;
    Phase traced;
    closedLoop<true>(args, next, args.seconds / 2, traced, report, &spans,
                     &totals);
    const double plain_rate = phase.inputs / sum(phase.runSeconds);
    const double traced_rate = traced.inputs / sum(traced.runSeconds);

    const double runs = std::max(1.0, totals.runs);
    report.set("engine.match_rate",
               totals.validations /
                   std::max(1.0, totals.validations + totals.aborts),
               "ratio");
    report.set("engine.invocations_per_input",
               totals.invocations / std::max(1.0, totals.inputs), "ratio");
    report.set("engine.reexecutions_per_run", totals.reexecutions / runs,
               "count");
    report.set("engine.aborts_per_run", totals.aborts / runs, "count");
    report.set("pool.submit_ns", median(totals.submitNs), "ns");
    report.set("pool.steals_per_input",
               totals.stolen / std::max(1.0, totals.inputs), "ratio");
    report.set("pool.parks_per_run", totals.parks / runs, "count");
    report.set("executor.lane_deferred_ratio",
               totals.laneDeferred / std::max(1.0, totals.laneEnqueues),
               "ratio");
    report.set("executor.record_allocs_per_run", totals.recordAllocs / runs,
               "count");
    report.set("arena.allocations_per_task", totals.arenaPerTask / runs,
               "ratio");
    report.set("alloc.per_input",
               totals.allocs / std::max(1.0, totals.inputs), "count");
    report.set("bench.throughput_per_s", plain_rate, "1/s");
    report.set("bench.latency_p50_ms",
               quantile(traced.runSeconds, 0.5) * 1e3, "ms");
    report.set("bench.latency_p99_ms",
               quantile(traced.runSeconds, 0.99) * 1e3, "ms");
    report.set("bench.trace_overhead_pct",
               (plain_rate / traced_rate - 1.0) * 100.0, "%");
    if (!args.probe)
        writeTrace("spec_fine", spans);
    return report;
}

} // namespace perfbench
