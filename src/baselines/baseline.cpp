#include "baselines/baseline.hpp"

#include "support/log.hpp"

namespace stats::baselines {

const char *
baselineName(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::AlterLike: return "ALTER like";
      case BaselineKind::QuickStepLike: return "QuickStep like";
      case BaselineKind::HelixUpLike: return "HELIX-UP like";
      case BaselineKind::FastTrack: return "Fast Track";
    }
    return "?";
}

const std::vector<BaselineKind> &
allBaselines()
{
    static const std::vector<BaselineKind> kinds{
        BaselineKind::AlterLike,
        BaselineKind::QuickStepLike,
        BaselineKind::HelixUpLike,
        BaselineKind::FastTrack,
    };
    return kinds;
}

bool
applicable(BaselineKind kind, const std::string &benchmark)
{
    switch (kind) {
      case BaselineKind::AlterLike:
        // Requires a reduction variable updated with a limited
        // operator set; only swaptions' accumulator qualifies. "All
        // state dependences of the other benchmarks have more
        // complicated states (complex data structures and objects
        // with methods)" (paper section 4.4).
        return benchmark == "swaptions";
      case BaselineKind::QuickStepLike:
      case BaselineKind::HelixUpLike:
        // Break dependences without state cloning or auxiliary code:
        // effective only where the state is implicitly cloneable (a
        // register), i.e. swaptions.
        return benchmark == "swaptions";
      case BaselineKind::FastTrack:
        // Runs everywhere — and always aborts (checked at run time).
        return true;
    }
    return false;
}

BaselineResult
runBaseline(BaselineKind kind, benchmarks::Benchmark &benchmark,
            bool parallel_original, int threads,
            const sim::MachineConfig &machine,
            replay::ReplaySession *session)
{
    using benchmarks::Mode;
    using benchmarks::RunRequest;
    using benchmarks::SpeculationPolicy;

    BaselineResult result;
    RunRequest request;
    request.threads = threads;
    request.machine = machine;
    request.session = session;

    if (!applicable(kind, benchmark.name())) {
        // Fallback: dependences satisfied conventionally; only the
        // original TLP (or none, for the Seq flavor) is available.
        request.mode = Mode::Original;
        if (!parallel_original)
            request.threads = 1;
        const benchmarks::RunResult run = benchmark.run(request);
        result.virtualSeconds = run.virtualSeconds;
        result.quality = benchmark.quality(
            run.signature,
            benchmark.oracleSignature(
                benchmarks::WorkloadKind::Representative, 1));
        result.usedSpeculation = false;
        result.engineStats = run.engineStats;
        return result;
    }

    request.mode = parallel_original ? Mode::ParStats : Mode::SeqStats;
    request.policy = kind == BaselineKind::FastTrack
                         ? SpeculationPolicy::StaleExactCheck
                         : SpeculationPolicy::BreakNoCheck;
    const benchmarks::RunResult run = benchmark.run(request);
    result.virtualSeconds = run.virtualSeconds;
    result.quality = benchmark.quality(
        run.signature,
        benchmark.oracleSignature(
            benchmarks::WorkloadKind::Representative, 1));
    result.usedSpeculation = true;
    result.engineStats = run.engineStats;
    return result;
}

} // namespace stats::baselines
