/**
 * @file
 * The plan runner: turns dispatched ExecutionPlans into deterministic
 * results (docs/SERVING.md §5).
 *
 * Three execution paths, one per JobKind:
 *
 *  - **IrSequential** — one interpreted state-transition chain over
 *    the plan's derived inputs. `runBatch` executes several
 *    compatible plans as the *lanes* of one
 *    `ExecutableModule::callBatch` loop; lane results are
 *    bit-identical to solo execution (each lane keeps its own seed,
 *    inputs, and noise stream), so batching is invisible in the
 *    result bytes — the property the served-determinism test pins.
 *
 *  - **IrSpeculative** — the module runs on the SpecEngine over the
 *    simulated executor (virtual time), mirroring the differential
 *    oracle's harness. When `recordChoices` is set, the engine's
 *    choice points are captured into a RecordLog for `replay-fetch`.
 *
 *  - **Benchmark** — one of the paper benchmarks, exactly like
 *    `statscc run` (virtual time again: the result is a pure
 *    function of the plan).
 *
 * The runner owns a compile cache keyed by the plan compatibility
 * key: parse → middle-end → instantiate happens once per distinct
 * (module text, configuration, tier, budget). Because an
 * ExecutableModule is not internally synchronized, each cache entry
 * keeps a *pool* of instances over the shared frozen module; a
 * worker leases one for the duration of a dispatch and returns it,
 * so same-key plans still execute concurrently.
 *
 * Threading contract: `runPlan`/`runBatch` are safe to call from any
 * number of server worker threads concurrently. Record/replay state
 * is scoped per run — a recording or faulted execution owns its
 * ReplaySession (RecordScope) and hands it to the run's executor, so
 * no shared mode flips occur.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sdi/spec_config.hpp"
#include "serving/execution_plan.hpp"
#include "serving/scheduler.hpp"

namespace stats::replay {
class ReplaySession;
}

namespace stats::serving {

/** Outcome of executing one plan. */
struct PlanResult
{
    bool ok = false;
    /** Runtime failure detail ("" when ok). */
    std::string error;

    /**
     * Deterministic result bytes: the per-position observed states
     * (IR kinds) or the benchmark signature (Benchmark kind), varint
     * encoded. Byte-identical across re-runs of the same plan — the
     * serving determinism contract.
     */
    std::string resultBlob;

    /** Serialized RecordLog when the plan asked for choice capture
     *  and the path records (engine runs); "" otherwise. */
    std::string recordLog;

    // Summary numbers for `stats-cli status/result`.
    long long finalState = 0;
    double virtualSeconds = 0.0;
    std::int64_t invocations = 0;
    /** Lanes the plan was fused with (1 = ran solo). */
    int batchedLanes = 1;
};

class PlanRunner
{
  public:
    /**
     * Execute one plan (any kind). A plan that records or injects
     * faults runs under its own session; any other engine run goes
     * under `session` (nullptr = off), so a caller can replay a
     * served log.
     */
    PlanResult runPlan(const ExecutionPlan &plan,
                       replay::ReplaySession *session = nullptr);

    /**
     * Execute a dispatch unit from the scheduler: one plan, or
     * several batch-compatible sequential plans fused lane-parallel.
     * Results are positionally aligned with `batch`.
     */
    std::vector<PlanResult>
    runBatch(const std::vector<QueuedPlan> &batch);

    /** Compile-cache statistics (serving.* metrics mirror these). */
    std::size_t cacheSize() const
    {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        return _cache.size();
    }
    std::uint64_t cacheHits() const
    {
        return _cacheHits.load(std::memory_order_relaxed);
    }

  private:
    struct Compiled;
    class ExecLease;

    std::shared_ptr<Compiled> compiled(const ExecutionPlan &plan,
                                       std::string &error);
    PlanResult runSequential(const ExecutionPlan &plan);
    PlanResult runSpeculative(const ExecutionPlan &plan,
                              replay::ReplaySession *session);
    PlanResult runBenchmark(const ExecutionPlan &plan,
                            replay::ReplaySession *session);

    mutable std::mutex _cacheMutex;
    std::map<std::uint64_t, std::shared_ptr<Compiled>> _cache;
    std::atomic<std::uint64_t> _cacheHits{0};
};

} // namespace stats::serving
