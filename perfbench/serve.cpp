/**
 * @file
 * Workloads serve_admit and serve_heavy: a statsd client. An
 * in-process serving::Daemon listens on a socket inside the
 * checkout; one generator thread submits plans through one
 * serving::Client connection and a poller watches `status` through a
 * second one.
 *
 * Every served result and replay log is checked after the timed
 * phases against a reference computed by a separate PlanRunner, plan
 * by plan, on the AST walker (ExecTier::Ast), which shares none of the
 * serving VM, fusion, worker pool or caches.
 */

#include "workloads.hpp"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "analysis/lint.hpp"
#include "backend/backend.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/parser.hpp"
#include "midend/midend.hpp"
#include "observability/metrics.hpp"
#include "replay/record_log.hpp"
#include "serving/admission.hpp"
#include "serving/client.hpp"
#include "serving/daemon.hpp"
#include "serving/runner.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace perfbench {
namespace {

using stats::serving::ExecutionPlan;
using stats::serving::JobKind;
using stats::serving::PlanResult;
using stats::serving::RequestState;

/**
 * Execution workers of the measured daemon: half of nproc on the
 * 4-core host, fixed so that runs on other hosts stay comparable.
 * With the generator, the poller and the daemon's own threads, four
 * workers would ask for more cores than the host has, and the figures
 * would follow the host's scheduler (README.md, "Threads").
 */
constexpr int kWorkers = 2;

const char *const kTenants[] = {"t0", "t1", "t2", "t3"};
const int kTenantWeights[] = {1, 1, 2, 4};

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetups = 15;

/** Shape of one serving workload. */
struct Shape
{
    const char *name;
    /** Open-loop offered rate, plans/s: about a fifth of saturation,
     *  so that a slower host does not push the daemon into queueing. */
    double rate;
    /** Pause between the poller's sweeps, microseconds: a tenth of
     *  the shortest plans' latency, so that polling resolves it without
     *  taking the cores the daemon executes on. */
    int pollPauseUs;
    /** Plans offered at once in each throughput burst. */
    std::size_t burstPlans;
    /** Bursts; every other one is also offered to a one-worker daemon
     *  (speedup_vs_seq). */
    int bursts;
};

// ------------------------------------------------------------ plans

std::string
admitModule(const std::string &tag, std::int64_t mul, std::int64_t sub)
{
    std::ostringstream out;
    out << "module \"pb_" << tag << "\"\n"
        << "statedep SD0 compute=@computeOutput\n\n"
        << "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
        << "entry:\n"
        << "  %a = mul i64 %state, " << mul << "\n"
        << "  %b = add i64 %a, %input\n"
        << "  %c = sub i64 %b, " << sub << "\n"
        << "  ret i64 %c\n"
        << "}\n";
    return out.str();
}

/** A loop kernel of `trips` iterations per call. */
std::string
kernelModule(int trips)
{
    std::ostringstream out;
    out << "module \"pb_kernel\"\n"
        << "statedep SD0 compute=@computeOutput\n\n"
        << "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
        << "entry:\n"
        << "  jmp loop\n"
        << "loop:\n"
        << "  %k = phi i64 [0, entry], [%k2, loop]\n"
        << "  %acc = phi i64 [%state, entry], [%acc2, loop]\n"
        << "  %t = mul i64 %acc, 6364136223846793005\n"
        << "  %acc2 = add i64 %t, %input\n"
        << "  %k2 = add i64 %k, 1\n"
        << "  %done = cmplt i64 %k2, " << trips << "\n"
        << "  br %done, loop, exit\n"
        << "exit:\n"
        << "  ret i64 %acc2\n"
        << "}\n";
    return out.str();
}

/** Iterations per kernel call: about 10 ms per 24-input plan. */
constexpr int kKernelTrips = 26000;

/** Deterministic plan streams, one per workload. */
class PlanSource
{
  public:
    PlanSource(const Shape &shape, std::uint64_t seed)
        : _heavy(std::string(shape.name) == "serve_heavy"),
          _rng(stats::support::SeedSequence(seed).derive(shape.name))
    {
        if (_heavy) {
            // A fixed pool of (plan, seed) pairs keeps the AST
            // reference affordable: 6 sequential, 2 speculative.
            for (int i = 0; i < 8; ++i) {
                ExecutionPlan plan = base();
                plan.moduleText = kernelModule(kKernelTrips);
                plan.kind = i < 6 ? JobKind::IrSequential
                                  : JobKind::IrSpeculative;
                plan.batchLanes = 1;
                plan.noCache = true;
                plan.stepBudget = 100'000'000;
                plan.rootSeed = _rng();
                _heavyPool.push_back(plan);
            }
        } else {
            for (int i = 0; i < 8; ++i)
                _modules.push_back(admitModule(
                    "pool" + std::to_string(i), 2 + i,
                    std::int64_t(_rng.nextBelow(1000))));
        }
    }

    /** Plans that warm every compile-cache entry the stream uses. */
    std::vector<ExecutionPlan>
    warmup()
    {
        std::vector<ExecutionPlan> out;
        if (_heavy) {
            out.push_back(_heavyPool[0]);
            out.push_back(_heavyPool[6]);
            return out;
        }
        for (int round = 0; round < 4; ++round)
            for (const std::string &module : _modules) {
                ExecutionPlan plan = base();
                plan.moduleText = module;
                plan.rootSeed = _rng();
                out.push_back(plan);
                plan.kind = JobKind::IrSpeculative;
                plan.rootSeed = _rng();
                out.push_back(plan);
            }
        return out;
    }

    ExecutionPlan
    next(const std::vector<ExecutionPlan> &history)
    {
        if (_heavy) {
            // Every fourth plan is speculative, so each burst and each
            // second of the open loop carries the same work.
            ExecutionPlan plan = history.size() % 4 == 3
                                     ? _heavyPool[6 + _rng.nextBelow(2)]
                                     : _heavyPool[_rng.nextBelow(6)];
            plan.tenant = kTenants[_rng.nextBelow(4)];
            return plan;
        }
        // serve_admit, in a fixed pattern so every burst and every
        // second of the open loop has the same mix: each fourth plan
        // is an exact resubmission of a finished plan by another
        // tenant; of the rest, one in five is speculative and one in
        // six carries a never-seen module (1 in 8 overall).
        if (history.size() > 256 && history.size() % 4 == 3) {
            ExecutionPlan plan =
                history[history.size() - 32 - _rng.nextBelow(192)];
            plan.tenant =
                kTenants[(tenantIndex(plan.tenant) + 1 +
                          _rng.nextBelow(3)) % 4];
            return plan;
        }
        const std::uint64_t k = _newPlans++;
        ExecutionPlan plan = base();
        plan.tenant = kTenants[_rng.nextBelow(4)];
        if (k % 5 == 0)
            plan.kind = JobKind::IrSpeculative;
        if (k % 6 == 1) {
            const std::uint64_t n = _fresh++;
            plan.moduleText =
                admitModule("fresh" + std::to_string(n), 3,
                            1000 + std::int64_t(n));
        } else {
            plan.moduleText = _modules[_rng.nextBelow(_modules.size())];
        }
        plan.rootSeed = _rng();
        return plan;
    }

  private:
    static ExecutionPlan
    base()
    {
        ExecutionPlan plan;
        plan.kind = JobKind::IrSequential;
        plan.tenant = kTenants[0];
        plan.execTier = stats::ir::ExecTier::Auto;
        plan.batchLanes = 8;
        plan.inputs = 24;
        plan.noisyPercent = 10;
        plan.maxNoise = 2;
        return plan;
    }

    static std::size_t
    tenantIndex(const std::string &tenant)
    {
        return std::size_t(tenant.back() - '0');
    }

    bool _heavy;
    stats::support::Xoshiro256 _rng;
    std::vector<std::string> _modules;
    std::vector<ExecutionPlan> _heavyPool;
    std::uint64_t _fresh = 0;
    std::uint64_t _newPlans = 0;
};

// ---------------------------------------------------------- serving

/** One submission and what the generator and poller saw of it. */
struct Request
{
    std::size_t plan = 0; ///< Index into the run's plan list.
    std::uint64_t id = 0;
    bool admitted = false;
    double due = 0, submitStart = 0, submitEnd = 0;
    double lastQueued = 0;   ///< Last poll that saw Queued.
    double firstRunning = 0; ///< First poll that saw Running.
    double done = 0;         ///< First poll that saw it finished.

    /** Fetched through the client once the phases are over. */
    std::optional<stats::serving::RequestStatus> status;
    std::optional<std::string> log;

    /**
     * Where Queued -> Running happened, as seen by the poller: the
     * midpoint of the gap between the last poll that saw Queued (or
     * the submit acknowledgement) and the first that saw Running (or
     * the request finished).
     */
    double
    started() const
    {
        const double before = lastQueued ? lastQueued : submitEnd;
        const double after = firstRunning ? firstRunning : done;
        return (before + after) / 2;
    }
};

/** A daemon on a socket in the checkout plus the two connections. */
class Session
{
  public:
    /** `retained` bounds the daemon's finished-request registry; 0
     *  keeps every result until the check fetches it. */
    Session(int index, int workers, std::size_t retained, int poll_pause_us)
        : pollPause(poll_pause_us),
          _socket(kOutDir + "/pb" + std::to_string(getpid()) + "_" +
                  std::to_string(index) + ".sock")
    {
        stats::serving::Server::Options options;
        options.executionWorkers = std::size_t(workers);
        options.maxRetainedResults = retained;
        options.defaultQuota = {1e12, 1e12, std::size_t(1) << 30, 1};
        _daemon = std::make_unique<stats::serving::Daemon>(_socket, options);
        for (int t = 0; t < 4; ++t)
            _daemon->server().setQuota(
                kTenants[t],
                {1e12, 1e12, std::size_t(1) << 30, kTenantWeights[t]});
        _serve = std::thread([this] { _daemon->serveForever(); });
        std::string error;
        submitter = std::make_unique<stats::serving::Client>(_socket, error);
        poller = std::make_unique<stats::serving::Client>(_socket, error);
        if (!submitter->connected() || !poller->connected()) {
            std::fprintf(stderr, "perfbench: cannot connect: %s\n",
                         error.c_str());
            std::exit(2);
        }
    }

    ~Session()
    {
        std::string error;
        submitter->drain(error);
        submitter.reset();
        poller.reset();
        _serve.join();
        _daemon.reset();
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    stats::serving::Server &server() { return _daemon->server(); }

    std::unique_ptr<stats::serving::Client> submitter;
    std::unique_ptr<stats::serving::Client> poller;
    const std::chrono::microseconds pollPause;

  private:
    std::string _socket;
    std::unique_ptr<stats::serving::Daemon> _daemon;
    std::thread _serve;
};

/** Outstanding requests the poller checks per sweep, oldest first. */
constexpr std::size_t kPollWindow = 16;

/**
 * Submit plans[first, last) at their due times (t0 + k / rate; all at
 * t0 when rate is 0) and wait until every admitted one is Done or
 * Failed. The calling thread generates; a second thread polls.
 */
std::vector<Request>
drive(Session &session, const std::vector<std::string> &bytes,
      std::size_t first, std::size_t last, double rate,
      std::size_t *queue_depth_max)
{
    std::vector<Request> requests(last - first);
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::size_t> incoming; // Indices into `requests`.
    bool finished = false;

    std::thread poller([&] {
        std::vector<std::size_t> live;
        std::string tenant, error;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (live.empty())
                    ready.wait(lock, [&] {
                        return !incoming.empty() || finished;
                    });
                live.insert(live.end(), incoming.begin(), incoming.end());
                incoming.clear();
                if (live.empty() && finished)
                    return;
            }
            if (queue_depth_max)
                *queue_depth_max = std::max(*queue_depth_max,
                                            session.server().queueDepth());
            // Poll only the oldest outstanding requests: completion is
            // close to FIFO, and sweeping a whole burst's backlog would
            // load the daemon the benchmark is measuring.
            std::size_t keep = 0, polled = 0;
            for (const std::size_t r : live) {
                if (polled++ >= kPollWindow) {
                    live[keep++] = r;
                    continue;
                }
                Request &req = requests[r];
                const auto state =
                    session.poller->status(req.id, tenant, error);
                const double now = nowSeconds();
                if (state && *state == RequestState::Queued)
                    req.lastQueued = now;
                if (state && *state == RequestState::Running &&
                    req.firstRunning == 0)
                    req.firstRunning = now;
                // A transport error ends tracking too; the check then
                // reports the request.
                if (!state || *state == RequestState::Done ||
                    *state == RequestState::Failed ||
                    *state == RequestState::Expired ||
                    *state == RequestState::Unknown)
                    req.done = now;
                else
                    live[keep++] = r;
            }
            live.resize(keep);
            // Pace the sweeps so polling does not take the cores the
            // daemon needs.
            std::this_thread::sleep_for(session.pollPause);
        }
    });

    const double t0 = nowSeconds();
    stats::serving::AdmissionVerdict verdict;
    std::string error;
    for (std::size_t k = 0; k < requests.size(); ++k) {
        Request &req = requests[k];
        req.plan = first + k;
        req.due = rate > 0 ? t0 + double(k) / rate : t0;
        const double wait = req.due - nowSeconds();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        req.submitStart = nowSeconds();
        const auto id =
            session.submitter->submit(bytes[req.plan], verdict, error);
        req.submitEnd = nowSeconds();
        if (!id) {
            std::fprintf(stderr, "perfbench: plan %zu not admitted: %s%s\n",
                         req.plan,
                         stats::serving::rejectReasonName(verdict.reason),
                         error.c_str());
            continue;
        }
        req.id = *id;
        req.admitted = true;
        std::lock_guard<std::mutex> lock(mutex);
        incoming.push_back(k);
        ready.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        finished = true;
        ready.notify_one();
    }
    poller.join();
    return requests;
}

// --------------------------------------------------------- checking

/** The served log with its tenant entry set to `tenant`, re-encoded. */
std::string
withTenant(const std::string &log, const std::string &tenant,
           std::string &served_tenant)
{
    if (log.empty())
        return log;
    std::istringstream in(log);
    std::string error;
    auto parsed = stats::replay::RecordLog::load(in, error);
    if (!parsed)
        return "undecodable: " + error;
    served_tenant = parsed->meta("tenant");
    parsed->setMeta("tenant", tenant);
    return parsed->saveToString();
}

/**
 * References keyed by the plan's result-cache key, each computed by
 * PlanRunner::runPlan solo on the AST walker, four plans at a time.
 */
class References
{
  public:
    const PlanResult &
    of(const ExecutionPlan &plan) const
    {
        return _results.at(plan.resultCacheKey());
    }

    /** Compute every missing reference among `plans`. */
    void
    add(const std::vector<ExecutionPlan> &plans,
        const std::vector<Request> &requests)
    {
        std::vector<std::pair<std::string, std::size_t>> todo;
        for (const Request &req : requests) {
            std::string key = plans[req.plan].resultCacheKey();
            if (_results.emplace(key, PlanResult{}).second)
                todo.emplace_back(std::move(key), req.plan);
        }
        std::atomic<std::size_t> cursor{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back([&] {
                for (std::size_t k; (k = cursor.fetch_add(1)) < todo.size();) {
                    ExecutionPlan plan = plans[todo[k].second];
                    plan.execTier = stats::ir::ExecTier::Ast;
                    PlanResult result = _runner.runPlan(plan);
                    std::lock_guard<std::mutex> lock(_mutex);
                    _results.at(todo[k].first) = std::move(result);
                }
            });
        for (auto &thread : threads)
            thread.join();
    }

  private:
    stats::serving::PlanRunner _runner;
    std::mutex _mutex;
    std::unordered_map<std::string, PlanResult> _results;
};

struct CheckTotals
{
    std::uint64_t tenantMismatch = 0;
    std::vector<double> fusedLanes;
    std::vector<double> specLogBytes;
    bool corrupted = false; ///< The checker self-test flipped a byte.
};

/** Fetch every admitted request's result and replay log. */
void
fetch(Session &session, std::vector<Request> &requests)
{
    std::string error;
    for (Request &req : requests)
        if (req.admitted) {
            req.status = session.submitter->result(req.id, error);
            req.log = session.submitter->replayFetch(req.id, error);
        }
}

/**
 * Compare every fetched result and replay log with the references.
 * A request that was rejected or did not reach Done fails like a
 * wrong output. Never compares batchedLanes or timing.
 */
void
check(const std::vector<ExecutionPlan> &plans,
      const std::vector<Request> &requests, const RunArgs &args,
      References &refs, Report &report, CheckTotals &totals)
{
    refs.add(plans, requests);
    for (const Request &req : requests) {
        ++report.attempted;
        if (!req.admitted) {
            ++report.failed;
            continue;
        }
        const ExecutionPlan &plan = plans[req.plan];
        const PlanResult &ref = refs.of(plan);
        if (!req.status || !req.log ||
            req.status->state != RequestState::Done) {
            ++report.failed;
            std::fprintf(stderr, "perfbench: request %llu (plan %zu) did "
                                 "not finish Done\n",
                         (unsigned long long)req.id, req.plan);
            continue;
        }
        PlanResult got = req.status->result;
        if (args.corrupt == "served" && !totals.corrupted &&
            !got.resultBlob.empty()) {
            got.resultBlob[got.resultBlob.size() / 2] ^= 1;
            totals.corrupted = true;
        }
        std::string served_tenant = plan.tenant, ignored;
        const std::string got_log =
            withTenant(*req.log, plan.tenant, served_tenant);
        const std::string ref_log =
            withTenant(ref.recordLog, plan.tenant, ignored);
        if (served_tenant != plan.tenant)
            ++totals.tenantMismatch;
        const bool same = got.ok == ref.ok && ref.ok &&
                          got.resultBlob == ref.resultBlob &&
                          got.finalState == ref.finalState &&
                          got.invocations == ref.invocations &&
                          got_log == ref_log;
        if (!same) {
            ++report.failed;
            std::fprintf(stderr,
                         "perfbench: request %llu (plan %zu) differs from "
                         "its AST reference\n",
                         (unsigned long long)req.id, req.plan);
        }
        if (plan.kind == JobKind::IrSequential)
            totals.fusedLanes.push_back(got.batchedLanes);
        else
            totals.specLogBytes.push_back(double(req.log->size()));
    }
}

// --------------------------------------------------- traced probes

/** Time each layer's public entry point on the workload's plans. */
void
layerProbes(const std::vector<ExecutionPlan> &sample, SpanLog &spans,
            Report &report)
{
    std::vector<double> instructions;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const ExecutionPlan &plan = sample[i];
        const std::string bytes = plan.saveToString();
        const std::int64_t root =
            spans.open("probe.plan", nowSeconds(), -1, i);
        std::string error;
        ++report.attempted;
        double t0 = nowSeconds();
        auto decoded = ExecutionPlan::load(bytes, error);
        double t1 = nowSeconds();
        spans.add("serving.decode", t0, t1, root, i);
        const bool admitted =
            decoded && stats::serving::AdmissionController::validate(
                           *decoded, true).admitted();
        double t2 = nowSeconds();
        spans.add("serving.admission", t1, t2, root, i);
        auto module = stats::ir::tryParseModule(plan.moduleText, error);
        double t3 = nowSeconds();
        spans.add("ir.parse", t2, t3, root, i);
        if (!admitted || !module) {
            ++report.failed;
            spans.close(root, t3);
            continue;
        }
        stats::midend::runMiddleEnd(*module);
        double t4 = nowSeconds();
        spans.add("midend.run", t3, t4, root, i);
        stats::analysis::LintOptions lint;
        lint.bytecodeVerifier = stats::ir::bc::verifyCompiledModule;
        stats::analysis::runAnalyses(*module, lint);
        double t5 = nowSeconds();
        spans.add("analysis.lint", t4, t5, root, i);
        stats::backend::BackendConfig config;
        config.execTier = stats::ir::ExecTier::Bytecode;
        config.auditRanges = false;
        auto exe = stats::backend::instantiateExecutable(*module, config);
        exe.exec->setStepBudget(plan.stepBudget);
        double t6 = nowSeconds();
        spans.add("backend.instantiate", t5, t6, root, i);

        // VM: one scalar call per input over the plan's input count.
        const std::string fn = exe.module->stateDeps.front().computeFn;
        const std::uint64_t before = exe.exec->executedInstructions();
        long long state = plan.initialState;
        for (int k = 0; k < plan.inputs; ++k)
            state = exe.exec
                        ->call(fn, {stats::ir::RtValue::ofInt(k * 37 % 1000),
                                    stats::ir::RtValue::ofInt(state)})
                        .asInt();
        double t7 = nowSeconds();
        spans.add("ir.vm_call", t6, t7, root, i);
        instructions.push_back(
            double(exe.exec->executedInstructions() - before) /
            double(plan.inputs));

        // Batched: 8 lanes, one step each.
        std::vector<stats::ir::RtValue> in(8), st(8), out(8);
        for (int l = 0; l < 8; ++l) {
            in[std::size_t(l)] = stats::ir::RtValue::ofInt(l * 101);
            st[std::size_t(l)] = stats::ir::RtValue::ofInt(state + l);
        }
        double t8 = nowSeconds();
        // Unbatchable functions fall back to scalar calls per lane,
        // as the plan runner does.
        if (!exe.exec->callBatch(fn, 8, {in.data(), st.data()}, out.data()))
            for (std::size_t l = 0; l < 8; ++l)
                out[l] = exe.exec->call(fn, {in[l], st[l]});
        double t9 = nowSeconds();
        spans.add("ir.callbatch", t8, t9, root, i);
        spans.close(root, t9);
    }
    report.set("ir.vm_instructions_per_call", mean(instructions), "count");
    auto us = [&](const char *span) {
        return median(spans.durations(span)) * 1e6;
    };
    report.set("serving.decode_us", us("serving.decode"), "us");
    report.set("serving.admission_us", us("serving.admission"), "us");
    report.set("ir.parse_us", us("ir.parse"), "us");
    report.set("midend.run_us", us("midend.run"), "us");
    report.set("analysis.lint_us", us("analysis.lint"), "us");
    report.set("backend.instantiate_us", us("backend.instantiate"), "us");
    report.set("ir.vm_ns_per_call",
               us("ir.vm_call") * 1e3 / double(sample.front().inputs), "ns");
    report.set("ir.callbatch_ns_per_lane", us("ir.callbatch") * 1e3 / 8.0,
               "ns");
}

// ---------------------------------------------------------- workload

std::vector<double>
latencies(const std::vector<Request> &requests)
{
    std::vector<double> out;
    for (const Request &req : requests)
        if (req.admitted)
            out.push_back((req.done - req.due) * 1e3);
    return out;
}

/** Plans per second over one burst: first submit to last Done. */
double
burstRate(const std::vector<Request> &requests)
{
    double end = 0;
    for (const Request &req : requests)
        end = std::max(end, req.done);
    return double(requests.size()) / (end - requests.front().submitStart);
}

template <bool Traced>
std::vector<Request>
phase(Session &session, const std::vector<std::string> &bytes,
      std::size_t &cursor, std::size_t count, double rate, SpanLog *spans,
      std::size_t *depth)
{
    auto requests = drive(session, bytes, cursor, cursor + count, rate,
                          Traced ? depth : nullptr);
    cursor += count;
    if constexpr (Traced) {
        for (const Request &req : requests) {
            if (!req.admitted)
                continue;
            const std::int64_t root = spans->add(
                "serve.request", req.due, req.done, -1, req.id);
            spans->add("daemon.submit", req.submitStart, req.submitEnd, root,
                       req.id);
            spans->add("serving.queued", req.submitEnd, req.started(), root,
                       req.id);
            spans->add("serving.running", req.started(), req.done, root,
                       req.id);
        }
    }
    return requests;
}

Report
runServe(Shape shape, const RunArgs &args)
{
    Report report;
    PlanSource source(shape, args.seed);
    std::vector<ExecutionPlan> plans;
    auto append = [&](std::size_t count) {
        for (std::size_t k = 0; k < count; ++k)
            plans.push_back(source.next(plans));
    };

    // Set-up, fifteen times: daemon up, both connections, warm-up plans
    // (first compiles) run to Done; setup_s is the median of the process
    // CPU seconds each takes. The last session stays up.
    std::vector<double> setups;
    std::unique_ptr<Session> session;
    std::vector<Request> all, warmed_all;
    std::vector<std::string> bytes;
    // Checker self-test: a daemon that keeps one finished result, so
    // the others read Expired when the check fetches them.
    const std::size_t retained = args.corrupt == "expired" ? 1 : 0;
    std::size_t first = 0;
    for (int rep = 0; rep < kSetups; ++rep) {
        const std::vector<ExecutionPlan> warm = source.warmup();
        first = plans.size();
        for (const ExecutionPlan &plan : warm) {
            plans.push_back(plan);
            bytes.push_back(plan.saveToString());
        }
        session.reset();
        const double c0 = processCpuSeconds();
        session = std::make_unique<Session>(rep, kWorkers, retained,
                                             shape.pollPauseUs);
        auto warmed =
            drive(*session, bytes, first, plans.size(), 0.0, nullptr);
        setups.push_back(processCpuSeconds() - c0);
        fetch(*session, warmed);
        warmed_all.insert(warmed_all.end(), warmed.begin(), warmed.end());
    }

    // The request stream of the measured phases, generated up front.
    const auto open_count = std::size_t(args.seconds * shape.rate);
    if (args.probe) {
        shape.bursts = 1;
        shape.burstPlans /= 2;
    }
    std::size_t cursor = plans.size();
    append(open_count + std::size_t(shape.bursts) * shape.burstPlans *
                            (args.trace ? 2 : 1));
    for (std::size_t k = bytes.size(); k < plans.size(); ++k)
        bytes.push_back(plans[k].saveToString());
    if (args.corrupt == "rejected") {
        // Checker self-test: submit the first measured plan with a step
        // budget admission refuses; its reference keeps the real one.
        ExecutionPlan served = plans[cursor];
        served.stepBudget = 0;
        bytes[cursor] = served.saveToString();
    }

    // speedup_vs_seq: the same kind of bursts on a second daemon with
    // one execution worker, interleaved with the main bursts so both
    // see the same host conditions. Warmed like the main daemon.
    const std::size_t solo_plans =
        std::size_t((shape.bursts + 1) / 2) * shape.burstPlans;
    std::unique_ptr<Session> single;
    std::vector<Request> single_all;
    if (!args.trace) {
        const std::vector<ExecutionPlan> warm = source.warmup();
        const std::size_t warm_first = plans.size();
        for (const ExecutionPlan &plan : warm) {
            plans.push_back(plan);
            bytes.push_back(plan.saveToString());
        }
        single = std::make_unique<Session>(kSetups, 1, retained,
                                           shape.pollPauseUs);
        single_all = drive(*single, bytes, warm_first, plans.size(), 0.0,
                           nullptr);
        append(solo_plans);
        for (std::size_t k = bytes.size(); k < plans.size(); ++k)
            bytes.push_back(plans[k].saveToString());
    }
    std::size_t single_cursor = plans.size() - (args.trace ? 0 : solo_plans);

    SpanLog spans;
    std::size_t depth_max = 0;
    std::vector<double> rates, traced_rates;
    std::vector<Request> open;
    // Untraced: the open loop in one slice before each burst, so that
    // every figure samples the whole run. Traced: untraced bursts first
    // (the overhead baseline), then the traced open loop and bursts.
    // Every other burst is followed by a solo burst; speedup_vs_seq is
    // the median of the pairs' ratios, so a host slowdown spanning a
    // pair cancels.
    // cpu_us_per_input: process CPU seconds over the measured daemon's
    // phases, per input of the plans they serve.
    std::vector<double> speedups;
    double cpu = 0, cpu_inputs = 0;
    for (int b = 0; b < shape.bursts; ++b) {
        const double c0 = processCpuSeconds();
        if (!args.trace) {
            const std::size_t slice =
                open_count * std::size_t(b + 1) / std::size_t(shape.bursts) -
                open_count * std::size_t(b) / std::size_t(shape.bursts);
            const auto part = phase<false>(*session, bytes, cursor, slice,
                                           shape.rate, nullptr, nullptr);
            open.insert(open.end(), part.begin(), part.end());
        }
        auto burst = phase<false>(*session, bytes, cursor, shape.burstPlans,
                                  0.0, nullptr, nullptr);
        cpu += processCpuSeconds() - c0;
        rates.push_back(burstRate(burst));
        all.insert(all.end(), burst.begin(), burst.end());
        if (single && b % 2 == 0) {
            burst = phase<false>(*single, bytes, single_cursor,
                                 shape.burstPlans, 0.0, nullptr, nullptr);
            speedups.push_back(rates.back() / burstRate(burst));
            single_all.insert(single_all.end(), burst.begin(), burst.end());
        }
    }
    // Compile-cache counters are process-wide (the reference runner
    // bumps them too), so the traced phases read them as a delta.
    const auto compileCounts = [] {
        const auto &registry = stats::obs::MetricsRegistry::global();
        const auto *hits = registry.findCounter("serving.compile_cache_hits");
        const auto *misses =
            registry.findCounter("serving.compile_cache_misses");
        return std::pair<double, double>(hits ? double(hits->value()) : 0,
                                         misses ? double(misses->value())
                                                : 0);
    };
    const auto compile_before = compileCounts();
    if (args.trace) {
        g_heapAllocs.store(0, std::memory_order_relaxed);
        g_countAllocs.store(true, std::memory_order_relaxed);
        open = phase<true>(*session, bytes, cursor, open_count, shape.rate,
                           &spans, &depth_max);
        g_countAllocs.store(false, std::memory_order_relaxed);
        for (int b = 0; b < shape.bursts; ++b) {
            auto burst = phase<true>(*session, bytes, cursor,
                                     shape.burstPlans, 0.0, &spans,
                                     &depth_max);
            traced_rates.push_back(burstRate(burst));
            all.insert(all.end(), burst.begin(), burst.end());
        }
    }
    all.insert(all.end(), open.begin(), open.end());
    const auto compile_after = compileCounts();
    // Before any result is fetched or reference computed, so that the
    // figure is the daemon's and the load's, not the checker's.
    const double peak_rss = peakRssMb();

    // Untimed from here on: idle round trips, then the output check.
    std::vector<double> roundtrips;
    if (args.trace) {
        std::string tenant, error;
        for (int k = 0; k < 200; ++k) {
            const double t0 = nowSeconds();
            session->poller->status(open.front().id, tenant, error);
            const double t1 = nowSeconds();
            spans.add("daemon.status_idle", t0, t1, -1, open.front().id);
            roundtrips.push_back((t1 - t0) * 1e6);
        }
    }
    const std::uint64_t cache_hits = session->server().resultCacheHits();
    fetch(*session, all);
    session.reset();
    if (single) {
        fetch(*single, single_all);
        single.reset();
    }
    References refs;
    CheckTotals totals;
    for (const auto *requests : {&warmed_all, &all, &single_all})
        check(plans, *requests, args, refs, report, totals);

    if (!args.trace) {
        for (const Request &req : all)
            cpu_inputs += plans[req.plan].inputs;
        report.set("setup_s", median(setups), "s");
        report.set("cpu_us_per_input", cpu / cpu_inputs * 1e6, "us");
        report.set("speedup_vs_seq", median(speedups), "x");
        report.set("peak_rss_mb", peak_rss, "MiB");
        return report;
    }

    std::vector<double> lags;
    for (const Request &req : open)
        lags.push_back((req.submitStart - req.due) * 1e3);
    std::vector<double> queued, running;
    for (const double s : spans.durations("serving.queued"))
        queued.push_back(s * 1e3);
    for (const double s : spans.durations("serving.running"))
        running.push_back(s * 1e3);
    const double compile_hits = compile_after.first - compile_before.first;
    const double compile_misses =
        compile_after.second - compile_before.second;
    double rejected = 0;
    for (const Request &req : all)
        rejected += req.admitted ? 0 : 1;
    double served_inputs = 0;
    for (const Request &req : open)
        served_inputs += req.admitted ? plans[req.plan].inputs : 0;

    report.set("serving.queue_wait_ms_p50", quantile(queued, 0.5), "ms");
    report.set("serving.queue_wait_ms_p99", quantile(queued, 0.99), "ms");
    report.set("serving.execute_ms_p50", quantile(running, 0.5), "ms");
    report.set("serving.fused_lanes_mean", mean(totals.fusedLanes), "lanes");
    report.set("serving.result_cache_hit_ratio",
               double(cache_hits) / double(all.size()), "ratio");
    report.set("serving.compile_cache_miss_ratio",
               compile_misses / std::max(1.0, compile_hits + compile_misses),
               "ratio");
    report.set("serving.queue_depth_max", double(depth_max), "count");
    report.set("serving.rejected_ratio", rejected / double(all.size()),
               "ratio");
    report.set("serving.replay_tenant_mismatch", double(totals.tenantMismatch),
               "count");
    report.set("daemon.roundtrip_us", median(roundtrips), "us");
    report.set("replay.log_bytes_per_plan", mean(totals.specLogBytes), "B");
    report.set("alloc.per_input",
               double(g_heapAllocs.load()) / std::max(1.0, served_inputs),
               "count");
    report.set("bench.generator_lag_ms_p99", quantile(lags, 0.99), "ms");
    report.set("bench.throughput_per_s", median(rates), "1/s");
    report.set("bench.latency_p50_ms", quantile(latencies(open), 0.5), "ms");
    report.set("bench.latency_p99_ms", quantile(latencies(open), 0.99), "ms");
    report.set("bench.trace_overhead_pct",
               (median(rates) / median(traced_rates) - 1.0) * 100.0, "%");

    // Layer probes on the workload's own programs: fresh modules for
    // serve_admit, the kernel for serve_heavy.
    std::vector<ExecutionPlan> sample;
    for (const ExecutionPlan &plan : plans)
        if (sample.size() < 64 && plan.moduleText.find("fresh") !=
                                      std::string::npos)
            sample.push_back(plan);
    if (sample.empty())
        sample.push_back(plans.front());
    layerProbes(sample, spans, report);
    if (!args.probe)
        writeTrace(shape.name, spans);
    return report;
}

} // namespace

Report
runServeAdmit(const RunArgs &args)
{
    return runServe({"serve_admit", 1000.0, 50, 1500, 13}, args);
}

Report
runServeHeavy(const RunArgs &args)
{
    return runServe({"serve_heavy", 25.0, 1000, 96, 11}, args);
}

} // namespace perfbench
