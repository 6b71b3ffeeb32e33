/**
 * @file
 * The bytecode VM (docs/INTERPRETER.md): a threaded-dispatch register
 * machine over the code that ir/bytecode.cpp emits, plus a batched
 * SoA execution mode that runs W independent calls of a straight-line
 * function lane-parallel through the SIMD kernels in ops_simd.hpp.
 *
 * Execution state (frame stack, step counter, call depth) is
 * thread-local, so one Vm may be shared by concurrent callers; the
 * committed-instruction counter is a relaxed atomic flushed when a
 * top-level call returns.
 *
 * Calls to externals and to functions the compiler bailed on route
 * through a single slow-call hook (ExecutableModule points it at the
 * AST interpreter), which keeps the two tiers' semantics identical by
 * construction.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/bytecode.hpp"
#include "ir/interpreter.hpp"

namespace stats::ir::bc {

/** One raw 8-byte register slot; the static class picks the view. */
union VmReg
{
    std::int64_t i;
    double f;
};

class Vm
{
  public:
    explicit Vm(const BcModule &module) : _module(&module) {}

    /** Re-point after the owner recompiled its BcModule. */
    void setModule(const BcModule &module) { _module = &module; }

    /** Handler for external and AST-fallback callees. */
    using SlowCall = std::function<RtValue(const std::string &callee,
                                           std::vector<RtValue> args)>;
    void setSlowCall(SlowCall hook) { _slowCall = std::move(hook); }

    /**
     * Cap on executed bytecode instructions per top-level call, and
     * per lane in callBatch; running past it throws
     * StepBudgetExceeded.
     */
    void setStepBudget(std::uint64_t budget) { _stepBudget = budget; }

    /** Bytecode instructions committed so far, across threads. */
    std::uint64_t executedInstructions() const
    {
        return _executed.load(std::memory_order_relaxed);
    }

    /** Call a compiled function. `fn.compiled` must be true. */
    RtValue call(const BcFunction &fn,
                 const std::vector<RtValue> &args);

    /**
     * Execute `lanes` independent calls of a batchable function in
     * SoA form: `argColumns[p][lane]` is parameter p of call `lane`,
     * `results[lane]` receives each call's return value. Returns
     * false (without executing) when the function is not batchable or
     * an argument's class disagrees with the declared parameter; the
     * caller then falls back to scalar calls.
     */
    bool callBatch(const BcFunction &fn, std::size_t lanes,
                   const std::vector<const RtValue *> &argColumns,
                   RtValue *results);

  private:
    VmReg rawCall(const BcFunction &fn, std::size_t base);

    const BcModule *_module;
    SlowCall _slowCall;
    std::uint64_t _stepBudget = 10'000'000;
    std::atomic<std::uint64_t> _executed{0};
};

} // namespace stats::ir::bc
