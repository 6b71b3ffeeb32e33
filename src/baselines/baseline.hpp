/**
 * @file
 * Related-work comparators of paper section 4.4 / Figure 17.
 *
 * The paper reimplements four prior approaches on the STATS
 * infrastructure and configures them "to target only the state
 * dependences we identified":
 *
 *  - ALTER-like [Udupa et al., PLDI'11]: breaks dependences with
 *    optional stale reads and exploits *reduction variables* whose
 *    update is `var = var op value` with a limited operator set. The
 *    only benchmark whose state qualifies is swaptions (its state is
 *    a scalar payoff accumulator); every other benchmark's state is
 *    a complex object with methods.
 *  - QuickStep-like [Misailovic et al., TECS'13] and HELIX-UP-like
 *    [Campanoni et al., CGO'15]: break state dependences outright.
 *    They "broke several state dependences [but] improved performance
 *    only for swaptions; other benchmarks require both state cloning
 *    and auxiliary code ... to preserve output quality".
 *  - Fast Track [Kelsey et al., CGO'09]: speculates that the state
 *    does not change and verifies against the *single* unspeculative
 *    state. With nondeterministic producers the check never passes:
 *    "Fast Track always aborted its speculations in our experiments".
 *
 * Results are gated like the paper's: a baseline's speedup counts
 * only if its output stays within the original program's output
 * variability (Figure 2); otherwise it falls back to the original
 * parallelization.
 */

#pragma once

#include <string>
#include <vector>

#include "benchmarks/common/benchmark.hpp"

namespace stats::baselines {

/** The four comparators of Figure 17. */
enum class BaselineKind
{
    AlterLike,
    QuickStepLike,
    HelixUpLike,
    FastTrack,
};

const char *baselineName(BaselineKind kind);
const std::vector<BaselineKind> &allBaselines();

/**
 * Structural applicability of a baseline to a benchmark's state
 * dependence (see the file comment for the per-approach reasoning).
 */
bool applicable(BaselineKind kind, const std::string &benchmark);

/** Measurement of one baseline execution. */
struct BaselineResult
{
    double virtualSeconds = 0.0;
    double quality = 0.0;
    bool usedSpeculation = false; ///< False when structurally inapplicable.
    sdi::EngineStats engineStats;
};

/**
 * Run a baseline on a benchmark with `threads` hardware threads in
 * Seq (no original TLP) or Par (with original TLP) flavor. When the
 * baseline is structurally inapplicable, the benchmark runs with the
 * original parallelization only (its dependences satisfied
 * conventionally), which is the paper's fallback. The run records or
 * replays through `session` (nullptr = off).
 */
BaselineResult runBaseline(BaselineKind kind,
                           benchmarks::Benchmark &benchmark,
                           bool parallel_original, int threads,
                           const sim::MachineConfig &machine,
                           replay::ReplaySession *session = nullptr);

} // namespace stats::baselines
