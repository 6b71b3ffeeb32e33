#include "serving/runner.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "backend/backend.hpp"
#include "benchmarks/common/benchmark.hpp"
#include "exec/sim_executor.hpp"
#include "ir/parser.hpp"
#include "midend/midend.hpp"
#include "observability/metrics.hpp"
#include "replay/session.hpp"
#include "sdi/spec_engine.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"
#include "testing/oracle.hpp"

namespace stats::serving {

namespace {

using testing::noiseFor;
using testing::wrapState;

/** Engine input: a value plus its position (for attempt counting). */
struct In
{
    int pos = 0;
    long long value = 0;
};

/** Engine output: the state observed before the invocation. */
struct Out
{
    int pos = 0;
    long long observed = 0;
};

/** The plan's input stream (a pure function of its root seed). */
std::vector<In>
deriveInputs(const ExecutionPlan &plan)
{
    const support::SeedSequence sequence(plan.rootSeed);
    support::Xoshiro256 rng(sequence.derive("inputs"));
    std::vector<In> inputs;
    for (int p = 0; p < plan.inputs; ++p)
        inputs.push_back({p, rng.uniformInt(0, 999)});
    return inputs;
}

std::uint64_t
noiseSeed(const ExecutionPlan &plan)
{
    return support::SeedSequence(plan.rootSeed).derive("noise");
}

/** Deterministic result bytes: varint count + zigzag states. */
std::string
encodeStates(const std::vector<long long> &states)
{
    std::string out;
    support::putVarint(out, states.size());
    for (const long long state : states)
        support::putSigned(out, state);
    return out;
}

std::string
encodeSignature(const std::vector<double> &signature)
{
    std::string out;
    support::putVarint(out, signature.size());
    for (const double value : signature) {
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &value, sizeof bits);
        support::putVarint(out, bits);
    }
    return out;
}

long long
interpStep(ir::ExecutableModule &exec, const std::string &function,
           long long input, long long state)
{
    return exec
        .call(function,
              {ir::RtValue::ofInt(input), ir::RtValue::ofInt(state)})
        .asInt();
}

/**
 * RAII per-run record/replay scope. Owns a *private* ReplaySession —
 * RecordLog and fault plan scoped to this one plan execution — which
 * session() hands to the run's executor. Concurrent plans each carry
 * their own scope and never observe each other's mode flips. The
 * captured log is harvested into the PlanResult on destruction.
 *
 * A plan that neither records nor injects faults runs under the
 * caller's session instead (runPlan's `session`, usually none) —
 * which lets a caller replay a served log (RunnerTest pins this).
 */
class RecordScope
{
  public:
    RecordScope(const ExecutionPlan &plan, PlanResult &result,
                std::string &error, replay::ReplaySession *caller)
        : _result(result),
          _active(plan.recordChoices || !plan.faults.empty() ? &_session
                                                             : caller)
    {
        if (!plan.faults.empty()) {
            std::string fault_error;
            auto fault_plan =
                replay::FaultPlan::fromSpec(plan.faults, fault_error);
            if (!fault_plan) {
                error = "fault plan: " + fault_error;
                return;
            }
            _session.setFaultPlan(*fault_plan);
        }
        if (plan.recordChoices) {
            _session.startRecording(plan.rootSeed);
            _session.setMetadata("tenant", plan.tenant);
            _session.setMetadata("kind", jobKindName(plan.kind));
            _session.setMetadata("seed",
                                 std::to_string(plan.rootSeed));
            _recording = true;
        }
        _armed = true;
    }

    bool armed() const { return _armed; }

    /** The session the plan runs under (nullptr = off). */
    replay::ReplaySession *session() const { return _active; }

    ~RecordScope()
    {
        if (_recording)
            _result.recordLog =
                _session.finishRecording().saveToString();
    }

  private:
    PlanResult &_result;
    replay::ReplaySession _session;
    replay::ReplaySession *_active;
    bool _recording = false;
    bool _armed = false;
};

} // namespace

/**
 * One compiled configuration, shared by every plan with the same
 * compatibility key. The frozen module is immutable and shared; the
 * ExecutableModules over it are not synchronized, so idle instances
 * sit in a pool and each dispatch leases one exclusively.
 */
struct PlanRunner::Compiled
{
    std::shared_ptr<const ir::Module> module;
    ir::ExecTier execTier = ir::ExecTier::Auto;
    std::uint64_t stepBudget = 0;
    std::string computeFn;
    std::string auxFn;

    std::mutex poolMutex;
    std::vector<std::shared_ptr<ir::ExecutableModule>> pool;
};

/** RAII exclusive lease of one ExecutableModule instance. */
class PlanRunner::ExecLease
{
  public:
    explicit ExecLease(std::shared_ptr<Compiled> entry)
        : _entry(std::move(entry))
    {
        {
            std::lock_guard<std::mutex> lock(_entry->poolMutex);
            if (!_entry->pool.empty()) {
                _exec = std::move(_entry->pool.back());
                _entry->pool.pop_back();
            }
        }
        if (!_exec) {
            // Pool dry: stand up another instance over the shared
            // frozen module (deterministic, so instances are
            // interchangeable).
            _exec = std::make_shared<ir::ExecutableModule>(
                *_entry->module, _entry->execTier);
            _exec->setStepBudget(_entry->stepBudget);
        }
    }

    ~ExecLease()
    {
        std::lock_guard<std::mutex> lock(_entry->poolMutex);
        _entry->pool.push_back(std::move(_exec));
    }

    ExecLease(const ExecLease &) = delete;
    ExecLease &operator=(const ExecLease &) = delete;

    ir::ExecutableModule &operator*() { return *_exec; }

  private:
    std::shared_ptr<Compiled> _entry;
    std::shared_ptr<ir::ExecutableModule> _exec;
};

std::shared_ptr<PlanRunner::Compiled>
PlanRunner::compiled(const ExecutionPlan &plan, std::string &error)
{
    // Compilation is serialized under the cache mutex: the lock is
    // held across parse → middle-end → instantiate so two workers
    // racing on the same key never compile twice. Execution (the
    // expensive part) runs outside any runner lock.
    const std::uint64_t key = plan.compatibilityKey();
    std::lock_guard<std::mutex> lock(_cacheMutex);
    if (const auto it = _cache.find(key); it != _cache.end()) {
        _cacheHits.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::global()
            .counter("serving.compile_cache_hits")
            .add();
        return it->second;
    }

    auto module = ir::tryParseModule(plan.moduleText, error);
    if (!module)
        return nullptr;
    midend::runMiddleEnd(*module);
    if (module->stateDeps.empty()) {
        error = "module declares no state dependence";
        return nullptr;
    }

    backend::BackendConfig config;
    config.execTier = plan.execTier;
    // Admission already linted; skip the per-instantiation audit.
    config.auditRanges = false;
    config.tradeoffIndices = plan.tradeoffIndices;
    for (const auto &dep : module->stateDeps)
        if (!dep.auxFn.empty())
            config.auxiliaryDeps.insert(dep.name);

    backend::Executable executable =
        backend::instantiateExecutable(*module, config);
    executable.exec->setStepBudget(plan.stepBudget);

    auto entry = std::make_shared<Compiled>();
    entry->module = executable.module;
    entry->execTier = plan.execTier;
    entry->stepBudget = plan.stepBudget;
    entry->pool.push_back(std::move(executable.exec));
    const ir::StateDepMeta &dep = entry->module->stateDeps.front();
    entry->computeFn = dep.computeFn;
    entry->auxFn = dep.auxFn.empty() ? dep.computeFn : dep.auxFn;

    _cache.emplace(key, entry);
    obs::MetricsRegistry::global()
        .counter("serving.compile_cache_misses")
        .add();
    return entry;
}

PlanResult
PlanRunner::runSequential(const ExecutionPlan &plan)
{
    std::vector<QueuedPlan> solo(1);
    solo[0].plan = std::make_shared<const ExecutionPlan>(plan);
    return std::move(runBatch(solo).front());
}

std::vector<PlanResult>
PlanRunner::runBatch(const std::vector<QueuedPlan> &batch)
{
    std::vector<PlanResult> results(batch.size());
    if (batch.empty())
        return results;
    if (batch.size() == 1 &&
        batch.front().plan->kind != JobKind::IrSequential) {
        results[0] = runPlan(*batch.front().plan);
        return results;
    }

    // Fused sequential lanes: one compiled module (same compatibility
    // key by construction), per-lane seed/noise/state streams, one
    // callBatch dispatch per step. Retired lanes (shorter input
    // streams) drop out; scalar call() is the fallback when batching
    // does not apply to the function.
    std::string error;
    const auto entry = compiled(*batch.front().plan, error);
    if (!entry) {
        for (auto &result : results)
            result.error = error;
        return results;
    }

    ExecLease lease(entry);
    ir::ExecutableModule &exec = *lease;
    const std::string &fn = entry->computeFn;

    const std::size_t lanes = batch.size();
    std::vector<std::vector<In>> inputs(lanes);
    std::vector<std::uint64_t> noise_seeds(lanes);
    std::vector<long long> states(lanes);
    std::vector<std::vector<long long>> observed(lanes);
    int longest = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        const ExecutionPlan &plan = *batch[l].plan;
        inputs[l] = deriveInputs(plan);
        noise_seeds[l] = noiseSeed(plan);
        states[l] = plan.initialState;
        longest = std::max(longest, plan.inputs);
    }

    // A lane whose call faults (step budget, division by zero) fails
    // with that message and drops out; the other lanes go on.
    std::vector<std::string> failed(lanes);
    std::vector<ir::RtValue> in_col, state_col, stepped;
    std::vector<std::size_t> live;
    for (int step = 0; step < longest; ++step) {
        in_col.clear();
        state_col.clear();
        live.clear();
        for (std::size_t l = 0; l < lanes; ++l) {
            if (step >= batch[l].plan->inputs || !failed[l].empty())
                continue;
            live.push_back(l);
            in_col.push_back(
                ir::RtValue::ofInt(inputs[l][std::size_t(step)].value));
            state_col.push_back(ir::RtValue::ofInt(states[l]));
        }
        if (live.empty())
            continue;
        stepped.assign(live.size(), ir::RtValue());
        const std::vector<const ir::RtValue *> columns = {
            in_col.data(), state_col.data()};
        bool batched = false;
        try {
            batched = exec.callBatch(fn, live.size(), columns,
                                     stepped.data());
        } catch (const ir::ExecutionFault &) {
            // The fault does not say which lane raised it; the scalar
            // calls below find out (lanes are pure functions of their
            // inputs, so re-running them is safe).
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t l = live[i];
            if (!batched) {
                try {
                    stepped[i] = ir::RtValue::ofInt(interpStep(
                        exec, fn, in_col[i].i, state_col[i].i));
                } catch (const ir::ExecutionFault &fault) {
                    failed[l] = fault.what();
                    continue;
                }
            }
            const ExecutionPlan &plan = *batch[l].plan;
            observed[l].push_back(states[l]);
            states[l] = wrapState(
                stepped[i].asInt() +
                noiseFor(noise_seeds[l], step, /*attempt=*/0,
                         plan.noisyPercent, plan.maxNoise));
        }
    }

    for (std::size_t l = 0; l < lanes; ++l) {
        results[l].batchedLanes = static_cast<int>(lanes);
        if (!failed[l].empty()) {
            results[l].error = failed[l];
            continue;
        }
        auto all = observed[l];
        all.push_back(states[l]); // Final state closes the chain.
        results[l].ok = true;
        results[l].resultBlob = encodeStates(all);
        results[l].finalState = states[l];
        results[l].invocations = batch[l].plan->inputs;
        // Sequential interpretation never consults the ReplaySession
        // (no engine choice points, fault specs inert), so a lane's
        // RecordLog is seed + metadata only and can be captured after
        // the fact — byte-identical whether the lane ran fused or
        // solo, which keeps fusion invisible in replay-fetch output.
        if (batch[l].plan->recordChoices) {
            PlanResult scratch;
            std::string record_error;
            {
                RecordScope scope(*batch[l].plan, scratch,
                                  record_error, nullptr);
            } // ~RecordScope fills scratch.recordLog
            results[l].recordLog = std::move(scratch.recordLog);
        }
    }
    return results;
}

PlanResult
PlanRunner::runSpeculative(const ExecutionPlan &plan,
                           replay::ReplaySession *session)
{
    PlanResult result;
    std::string error;
    const auto entry = compiled(plan, error);
    if (!entry) {
        result.error = error;
        return result;
    }
    ExecLease lease(entry);
    ir::ExecutableModule &exec = *lease;
    const std::string compute_fn = entry->computeFn;
    const std::string aux_fn = entry->auxFn;

    const std::vector<In> inputs = deriveInputs(plan);
    const std::uint64_t noise_seed = noiseSeed(plan);
    const int noisy = plan.noisyPercent;
    const int max_noise = plan.maxNoise;

    // Mirrors the differential oracle's engine harness
    // (src/testing/oracle.cpp): per-(position, attempt) noise draws,
    // a noise-free auxiliary, and a batched auxiliary that is
    // bit-identical to the scalar one.
    auto counters = std::make_shared<std::vector<std::atomic<int>>>(
        inputs.size());

    // The first call to fault (step budget, division by zero) fails
    // the plan; the engine still runs to its end, but no later call
    // enters the module.
    std::string exhausted;
    const auto step = [&exec, &exhausted](const std::string &fn,
                                          long long input,
                                          long long state) {
        if (!exhausted.empty())
            return state;
        try {
            return interpStep(exec, fn, input, state);
        } catch (const ir::ExecutionFault &fault) {
            exhausted = fault.what();
            return state;
        }
    };

    using Engine = sdi::SpecEngine<In, long long, Out>;
    Engine::ComputeFn compute =
        [&step, &compute_fn, counters, noise_seed, noisy, max_noise](
            const In &in, long long &state,
            const sdi::ComputeContext &) {
            Out out{in.pos, state};
            const int attempt =
                (*counters)[std::size_t(in.pos)].fetch_add(
                    1, std::memory_order_relaxed);
            state = wrapState(
                step(compute_fn, in.value, state) +
                noiseFor(noise_seed, in.pos, attempt, noisy,
                         max_noise));
            Engine::Invocation inv;
            inv.output = std::make_unique<Out>(out);
            inv.cost = exec::Work{1e-5, 0.2};
            return inv;
        };
    Engine::ComputeFn auxiliary =
        [&step, &aux_fn](const In &in, long long &state,
                         const sdi::ComputeContext &) {
            Out out{in.pos, state};
            state = wrapState(step(aux_fn, in.value, state));
            Engine::Invocation inv;
            inv.output = std::make_unique<Out>(out);
            inv.cost = exec::Work{5e-6, 0.2};
            return inv;
        };
    Engine::MatchFn matcher =
        [](const long long &spec,
           const std::vector<long long> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i)
            if (originals[i] == spec)
                return int(i);
        return -1;
    };

    RecordScope scope(plan, result, error, session);
    if (!scope.armed()) {
        result.error = error;
        return result;
    }

    sim::MachineConfig machine;
    machine.dispatchOverhead = 0.0;
    exec::SimExecutor executor(
        machine, std::max(16, plan.limits.sdThreads));
    executor.replaySession = scope.session();
    Engine engine(executor, inputs, (long long)plan.initialState,
                  compute, auxiliary, matcher, plan.limits);
    engine.start();
    engine.join();
    if (!exhausted.empty()) {
        result.error = exhausted;
        return result;
    }

    std::vector<long long> states;
    for (const auto &output : engine.outputs())
        states.push_back(output->observed);
    result.ok = true;
    result.resultBlob = encodeStates(states);
    result.finalState = states.empty() ? plan.initialState
                                       : states.back();
    result.invocations = engine.stats().invocations;
    return result;
}

PlanResult
PlanRunner::runBenchmark(const ExecutionPlan &plan,
                         replay::ReplaySession *session)
{
    PlanResult result;
    auto bench = benchmarks::createBenchmark(plan.moduleRef);

    benchmarks::RunRequest request;
    request.mode = plan.benchMode == "original"
                       ? benchmarks::Mode::Original
                   : plan.benchMode == "seq"
                       ? benchmarks::Mode::SeqStats
                       : benchmarks::Mode::ParStats;
    request.threads = plan.benchThreads;
    request.workload =
        plan.benchWorkload == "bad"
            ? benchmarks::WorkloadKind::NonRepresentative
            : benchmarks::WorkloadKind::Representative;
    // One root seed drives every stream (docs/REPLAY.md §1), exactly
    // like `statscc run --seed=N`.
    const support::SeedSequence seeds(plan.rootSeed);
    request.workloadSeed = seeds.derive("workload");
    request.runSeed = seeds.derive("run");

    std::string error;
    RecordScope scope(plan, result, error, session);
    if (!scope.armed()) {
        result.error = error;
        return result;
    }
    request.session = scope.session();
    if (plan.recordChoices) {
        replay::ReplaySession &recording = *scope.session();
        recording.setMetadata("benchmark", bench->name());
        recording.setMetadata("mode", plan.benchMode);
        recording.setMetadata("threads",
                              std::to_string(plan.benchThreads));
        recording.setMetadata("workload", plan.benchWorkload);
    }

    const benchmarks::RunResult run = bench->run(request);
    result.ok = true;
    result.resultBlob = encodeSignature(run.signature);
    result.virtualSeconds = run.virtualSeconds;
    result.invocations = run.engineStats.invocations;
    result.finalState = run.engineStats.validations;
    return result;
}

PlanResult
PlanRunner::runPlan(const ExecutionPlan &plan,
                    replay::ReplaySession *session)
{
    switch (plan.kind) {
      case JobKind::IrSequential:  return runSequential(plan);
      case JobKind::IrSpeculative: return runSpeculative(plan, session);
      case JobKind::Benchmark:     return runBenchmark(plan, session);
    }
    PlanResult result;
    result.error = "unknown job kind";
    return result;
}

} // namespace stats::serving
