/**
 * @file
 * The task vocabulary shared by the real-thread executor and the
 * simulated many-core executor.
 *
 * The STATS runtime (the speculation engine of paper section 3.1) is
 * written once against this interface. On real hardware tasks are
 * timed with the wall clock; on the simulated platform each task
 * reports its cost in abstract work units (1 unit == 1 second on an
 * unloaded core) and the discrete-event simulator derives timing from
 * core occupancy, Hyper-Threading, and NUMA effects.
 */

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "observability/trace.hpp"
#include "threading/unique_function.hpp"

namespace stats::replay {
class ReplaySession;
}

namespace stats::exec {

/** Virtual cost of one task, reported by the task body itself. */
struct Work
{
    /** Abstract work units; 1 unit runs in 1 s on an unloaded core. */
    double units = 0.0;

    /**
     * Fraction of the work bound by memory bandwidth/latency, i.e.
     * subject to the cross-socket NUMA penalty (0..1).
     */
    double memBound = 0.0;
};

/** Shared flag used to cancel tasks that have not been dispatched. */
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/** Create a fresh (non-cancelled) cancellation token. */
CancelToken makeCancelToken();

/**
 * One schedulable unit of computation.
 *
 * `run` performs the real computation and returns its virtual cost.
 * `onComplete` fires after the task's virtual completion time; all
 * completion callbacks of one executor are serialized, so the
 * speculation engine may mutate its bookkeeping there without locks.
 */
struct Task
{
    /** Logical cores the task occupies (gang width); >= 1. */
    int width = 1;

    /**
     * The computation; returns the virtual cost of what it did.
     *
     * Move-only (threading::UniqueFunction): a Task travels from the
     * submitter to a worker by moves alone, and a closure that fits
     * the wrapper's inline storage never touches the heap — the
     * engine's hot-path closures capture only {engine, index, record}
     * and stay inline (docs/INTERNALS.md §4).
     */
    threading::UniqueFunction<Work()> run;

    /** Completion callback (may submit more tasks). May be empty. */
    threading::UniqueFunction<void()> onComplete;

    /**
     * Optional cancellation token. A task whose token is set before
     * dispatch is skipped: `run` is not called, the task consumes no
     * virtual time, and `onComplete` still fires so the owner can
     * observe the squash.
     */
    CancelToken cancel;

    /**
     * Optional trace annotation. When the trace layer is active, the
     * executor records the matching span pair (e.g. BodyStart/BodyEnd)
     * around the task's execution — with exact dispatch/completion
     * times and the track it ran on — or a TaskCancelled instant if
     * the cancel token fired first. Untagged tasks are not traced.
     */
    obs::TaskTag tag;

    /**
     * When true (the default), `onComplete` runs inside the executor's
     * serialized commit lane — at most one such callback executes at a
     * time, so the speculation engine mutates its bookkeeping there
     * without locks. Tasks whose completion is pure bookkeeping local
     * to the callback may set this false to bypass the lane entirely
     * and complete lock-free.
     */
    bool serialCompletion = true;
};

/**
 * Executor interface: submit tasks, drive them to completion, read
 * the (virtual or wall) clock.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Enqueue a task; it may be submitted from a completion callback. */
    virtual void submit(Task task) = 0;

    /**
     * Enqueue several tasks as one operation. Equivalent to submitting
     * each in order; executors that can (e.g. the thread pool's batched
     * submission) pay the enqueue/wake cost once for the whole group.
     */
    virtual void
    submitBatch(std::vector<Task> tasks)
    {
        for (auto &task : tasks)
            submit(std::move(task));
    }

    /** Run until no submitted task remains. */
    virtual void drain() = 0;

    /** Current time in seconds (virtual for the simulator). */
    virtual double now() const = 0;

    /** Number of logical hardware threads available. */
    virtual int concurrency() const = 0;

    /**
     * The record/replay session of the run this executor serves
     * (nullptr = off). The speculation engine's hooks and the stall
     * fault read it on whichever thread runs them. Set it before the
     * first submit; the caller keeps the session alive.
     */
    replay::ReplaySession *replaySession = nullptr;
};

} // namespace stats::exec
