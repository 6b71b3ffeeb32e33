#include "profiler/profiler.hpp"

#include "observability/metrics.hpp"
#include "replay/session.hpp"
#include "support/json.hpp"

namespace stats::profiler {

Profiler::Profiler(benchmarks::Benchmark &benchmark,
                   benchmarks::Mode mode, int threads,
                   const sim::MachineConfig &machine,
                   benchmarks::WorkloadKind workload,
                   std::uint64_t workload_seed, int repetitions)
    : _benchmark(benchmark), _mode(mode), _threads(threads),
      _machine(machine), _workload(workload),
      _workloadSeed(workload_seed), _repetitions(std::max(1, repetitions))
{
    _oracle = _benchmark.oracleSignature(_workload, _workloadSeed);
}

Measurement
Profiler::profile(const tradeoff::Configuration &config)
{
    auto &metrics = obs::MetricsRegistry::global();
    auto cached = _cache.find(config);
    if (cached != _cache.end()) {
        metrics.counter("profiler.cacheHits").add();
        return cached->second;
    }
    ++_runs;
    metrics.counter("profiler.runs").add();
    Measurement total;
    sdi::EngineStats last_engine_stats;
    for (int rep = 0; rep < _repetitions; ++rep) {
        benchmarks::RunRequest request;
        request.mode = _mode;
        request.config = config;
        request.threads = _threads;
        request.machine = _machine;
        request.workload = _workload;
        request.workloadSeed = _workloadSeed;
        request.session = _session;
        const benchmarks::RunResult result = _benchmark.run(request);
        total.seconds += result.virtualSeconds;
        total.energyJoules += result.energyJoules;
        total.quality += _benchmark.quality(result.signature, _oracle);
        last_engine_stats = result.engineStats;
    }
    const double inv = 1.0 / _repetitions;
    total.seconds *= inv;
    total.energyJoules *= inv;
    total.quality *= inv;
    _cache.emplace(config, total);
    _snapshots.push_back({config, total, last_engine_stats});
    metrics.histogram("profiler.seconds").observe(total.seconds);
    metrics.histogram("profiler.energyJoules")
        .observe(total.energyJoules);
    return total;
}

void
Profiler::writeSnapshotsJson(std::ostream &out,
                             const tradeoff::StateSpace &space,
                             bool pretty) const
{
    support::JsonWriter json(out, pretty);
    json.beginObject();
    json.field("runs", static_cast<std::int64_t>(_runs));
    json.key("snapshots").beginArray();
    for (const auto &snapshot : _snapshots) {
        const auto &stats = snapshot.engineStats;
        json.beginObject()
            .field("config", space.describe(snapshot.config))
            .field("seconds", snapshot.measurement.seconds)
            .field("energyJoules", snapshot.measurement.energyJoules)
            .field("quality", snapshot.measurement.quality)
            .field("groups", stats.groups)
            .field("commits", stats.validations)
            .field("mismatches", stats.mismatches)
            .field("reexecutions", stats.reexecutions)
            .field("aborts", stats.aborts)
            .field("squashedGroups", stats.squashedGroups)
            .field("matchRate", stats.matchRate())
            .field("extraWorkFraction", stats.extraWorkFraction())
            .endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

autotuner::Autotuner::Objective
Profiler::objectiveFunction(Objective objective)
{
    return [this, objective](const tradeoff::Configuration &config) {
        const Measurement m = profile(config);
        const double value =
            objective == Objective::Time ? m.seconds : m.energyJoules;
        // Mistrain fault: perturb the measured objective before it
        // reaches the tuner's cache, bandit and techniques, so the
        // tuner trains on systematically wrong observations.
        return _session != nullptr ? _session->mistrainObjective(value)
                                   : value;
    };
}

TunedRun
tuneBenchmark(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
              int threads, const sim::MachineConfig &machine,
              Objective objective, int budget, std::uint64_t seed,
              benchmarks::WorkloadKind workload,
              std::uint64_t workload_seed, replay::ReplaySession *session)
{
    Profiler profiler(benchmark, mode, threads, machine, workload,
                      workload_seed);
    profiler.setReplaySession(session);
    autotuner::Autotuner tuner(benchmark.stateSpace(threads), seed);
    TunedRun run;
    run.tuning =
        tuner.tune(profiler.objectiveFunction(objective), budget);
    run.config = run.tuning.best;
    run.measurement = profiler.profile(run.config);
    return run;
}

} // namespace stats::profiler
