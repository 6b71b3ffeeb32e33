/**
 * @file
 * The profiler (paper section 3.2): runs the binary the back-end
 * produced for one configuration on the training inputs, measuring
 * execution time and energy, and feeds the autotuner.
 *
 * Here a "binary for one configuration" is a benchmark run bound to
 * that configuration, executed on the simulated platform; time is the
 * virtual makespan and energy comes from the platform's power model.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>

#include "autotuner/tuner.hpp"
#include "benchmarks/common/benchmark.hpp"

namespace stats::profiler {

/** What the autotuner minimizes (paper: performance or energy). */
enum class Objective
{
    Time,
    Energy,
};

/** Averaged measurements of one configuration. */
struct Measurement
{
    double seconds = 0.0;
    double energyJoules = 0.0;
    double quality = 0.0; ///< Domain metric vs oracle (lower better).
};

/**
 * Per-configuration metric snapshot, captured at profile time: the
 * averaged measurement plus the engine counters of the *last*
 * repetition's run. Together with the autotuner's audit trail this
 * makes every tuning decision attributable to observed
 * commit/squash behaviour.
 */
struct ConfigSnapshot
{
    tradeoff::Configuration config;
    Measurement measurement;
    sdi::EngineStats engineStats;
};

/** Profiles configurations of one benchmark in one mode. */
class Profiler
{
  public:
    /**
     * @param repetitions runs averaged per configuration (the paper
     *                    repeats runs to tighten confidence)
     */
    Profiler(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
             int threads, const sim::MachineConfig &machine,
             benchmarks::WorkloadKind workload = benchmarks::
                 WorkloadKind::Representative,
             std::uint64_t workload_seed = 1, int repetitions = 2);

    /**
     * Run one configuration, averaging repetitions. Measurements are
     * cached per configuration: this is the paper's reusable
     * state-space store — "changing the optimization goal from
     * performance to energy" re-searches but never re-profiles
     * (section 3.2).
     */
    Measurement profile(const tradeoff::Configuration &config);

    /** Replay session of the profiled runs (nullptr = off); its
     *  mistrain fault perturbs what objectiveFunction() returns. */
    void setReplaySession(replay::ReplaySession *session)
    {
        _session = session;
    }

    /** Objective function for the autotuner. */
    autotuner::Autotuner::Objective
    objectiveFunction(Objective objective);

    /** Configurations actually executed (cache misses). */
    std::size_t runsPerformed() const { return _runs; }

    /** Measurements profiled so far, by configuration. */
    const std::map<tradeoff::Configuration, Measurement> &store() const
    {
        return _cache;
    }

    /** One snapshot per executed configuration, in execution order. */
    const std::vector<ConfigSnapshot> &snapshots() const
    {
        return _snapshots;
    }

    /**
     * Dump the snapshots as JSON (the `--metrics` companion for tune
     * sessions); configurations are rendered via `space.describe`.
     */
    void writeSnapshotsJson(std::ostream &out,
                            const tradeoff::StateSpace &space,
                            bool pretty = true) const;

  private:
    benchmarks::Benchmark &_benchmark;
    benchmarks::Mode _mode;
    int _threads;
    sim::MachineConfig _machine;
    benchmarks::WorkloadKind _workload;
    std::uint64_t _workloadSeed;
    int _repetitions;
    replay::ReplaySession *_session = nullptr;
    std::vector<double> _oracle;
    std::map<tradeoff::Configuration, Measurement> _cache;
    std::vector<ConfigSnapshot> _snapshots;
    std::size_t _runs = 0;
};

/** Result of a full tuning session of one benchmark/mode/threads. */
struct TunedRun
{
    tradeoff::Configuration config;
    Measurement measurement;
    autotuner::TuneResult tuning;
};

/**
 * Convenience: autotune a benchmark in a mode (paper's default flow:
 * autotuner proposes configurations, the profiler measures them).
 */
TunedRun tuneBenchmark(benchmarks::Benchmark &benchmark,
                       benchmarks::Mode mode, int threads,
                       const sim::MachineConfig &machine,
                       Objective objective = Objective::Time,
                       int budget = 40, std::uint64_t seed = 1,
                       benchmarks::WorkloadKind workload =
                           benchmarks::WorkloadKind::Representative,
                       std::uint64_t workload_seed = 1,
                       replay::ReplaySession *session = nullptr);

} // namespace stats::profiler
