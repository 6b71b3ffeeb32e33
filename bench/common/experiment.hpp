/**
 * @file
 * Shared machinery of the per-figure benchmark harnesses.
 *
 * Every figure/table binary in bench/ regenerates one table or figure
 * of the paper's evaluation (section 4): it prints the measured
 * rows/series plus a JSON blob for replotting, and a note stating the
 * paper's expected shape. Reproduction targets shapes, not absolute
 * numbers (see DESIGN.md section 2).
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "profiler/profiler.hpp"
#include "replay/session.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace stats::benchx {

class ObsSession;

/** The paper's platform: dual-socket 14-core Haswell, HT off. */
sim::MachineConfig paperMachine();

/** Single socket, optionally with 2-way HT (Figure 14's setup). */
sim::MachineConfig singleSocketMachine(bool hyper_threading);

/** Hardware-thread sweep of Figure 12: 2, 4, ..., 28. */
const std::vector<int> &threadSweep();

/** Sequential baseline: the out-of-the-box program on one core. */
double sequentialTime(benchmarks::Benchmark &benchmark, ObsSession &obs);

/** One tuned configuration and its measured run time. */
struct TunedPoint
{
    tradeoff::Configuration config;
    double seconds = 0.0;
    double energyJoules = 0.0;
    autotuner::TuneResult tuning;
};

/** Autotune a benchmark at one (mode, threads) point. */
TunedPoint tuneAt(benchmarks::Benchmark &benchmark, ObsSession &obs,
                  benchmarks::Mode mode, int threads,
                  const sim::MachineConfig &machine, int budget,
                  profiler::Objective objective = profiler::Objective::Time,
                  std::uint64_t seed = 1,
                  benchmarks::WorkloadKind workload =
                      benchmarks::WorkloadKind::Representative);

/** A run-time curve over the thread sweep. */
struct ModeCurve
{
    std::vector<double> times; ///< Seconds per sweep entry.
    double bestTime = 0.0;     ///< Minimum over the sweep.
};

/** Out-of-the-box curve: default configuration, original TLP only. */
ModeCurve originalCurve(benchmarks::Benchmark &benchmark, ObsSession &obs,
                        const sim::MachineConfig &machine,
                        const std::vector<int> &threads);

/**
 * Autotuned curve for one mode: configurations are tuned at pivot
 * thread counts (4, 14, 28) and reused at the nearest pivot for the
 * other sweep points (the paper tunes per core count; pivots bound
 * the harness's run time).
 */
ModeCurve tunedCurve(benchmarks::Benchmark &benchmark, ObsSession &obs,
                     benchmarks::Mode mode,
                     const sim::MachineConfig &machine,
                     const std::vector<int> &threads, int budget);

/** Figure 12 data of one benchmark. */
struct Scalability
{
    std::string name;
    double seqTime = 0.0;
    ModeCurve original;
    ModeCurve seqStats;
    ModeCurve parStats; ///< Best of the Seq and Par searches.
};

/**
 * Measure the three curves of Figure 12 for one benchmark. The Par.
 * STATS curve takes the better of the Seq- and Par-mode searches at
 * each point: Seq. STATS configurations are points of the Par. STATS
 * state space (inner threads = 1), so the combined search is what
 * the paper's single Par search explores.
 */
Scalability measureScalability(benchmarks::Benchmark &benchmark,
                               ObsSession &obs, int budget = 36);

/** Speedups of a curve against a sequential baseline. */
std::vector<double> speedups(const ModeCurve &curve, double seq_time);

/** Print the harness banner: figure id, caption, expectation. */
void printHeader(const std::string &figure, const std::string &caption,
                 const std::string &paper_expectation);

/**
 * Observability + record/replay session of one figure binary.
 * Construct it first thing in main with argc/argv; it recognises
 *
 *   --trace=FILE   (or `--trace FILE`)   chrome://tracing JSON
 *   --metrics=FILE (or `--metrics FILE`) trace-derived metrics JSON
 *   --seed=N       pin the process PRVGs (deterministic run)
 *   --record=FILE  record the engine choice points (implies --seed;
 *                  defaults to seed 1 when none is given)
 *   --replay=FILE  re-drive the harness from a recording; any
 *                  divergence is fatal (nonzero exit, for CI)
 *   --faults=PLAN  inject faults (docs/REPLAY.md §4 grammar)
 *
 * When --trace/--metrics is present, enables the global trace for the
 * whole run. The destructor collects the events, writes the requested
 * files, prints the summary table to stderr (stdout carries the
 * figure's own tables/JSON), then saves the recording or reports the
 * replay verdict. Without these flags the session is inert. See
 * docs/OBSERVABILITY.md and docs/REPLAY.md.
 */
class ObsSession
{
  public:
    ObsSession(int argc, char **argv);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    bool active() const { return _active; }

    /** Root seed pinning this run (0 = entropy, unpinned). */
    std::uint64_t seed() const { return _seed; }

    /** The harness's one replay session (inert without the flags). */
    replay::ReplaySession *replay() { return &_replay; }

    /** A run request that runs under the harness's replay session. */
    benchmarks::RunRequest
    request()
    {
        benchmarks::RunRequest request;
        request.session = &_replay;
        return request;
    }

  private:
    std::string _tracePath;
    std::string _metricsPath;
    std::string _recordPath;
    std::string _replayPath;
    std::uint64_t _seed = 0;
    bool _active = false;
    replay::ReplaySession _replay;

    /** Process-wide PRVG pin making the whole harness deterministic. */
    std::optional<support::ScopedDeterministicSeeds> _pinned;
};

} // namespace stats::benchx
