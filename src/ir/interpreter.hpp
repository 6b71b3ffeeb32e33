/**
 * @file
 * IR interpreter.
 *
 * Stands in for the paper's use of LLVM's dynamic compiler: the
 * back-end "generates machine code from the IR code of the function
 * getValue() related to [a tradeoff], then invokes it with input i"
 * (section 3.4). We interpret the same functions instead. The
 * interpreter also executes whole configured modules in the compiler
 * pipeline's end-to-end tests.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace stats::ir {

/**
 * A call that failed at run time on either execution tier (an integer
 * division by zero, or a StepBudgetExceeded). It fails that call and
 * leaves the process (and the module's other callers) running; both
 * tiers restore their call-depth state on the unwind.
 */
class ExecutionFault : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A top-level call ran past its (per-plan) step budget. */
class StepBudgetExceeded : public ExecutionFault
{
  public:
    using ExecutionFault::ExecutionFault;
};

/**
 * Throw StepBudgetExceeded / a division-by-zero ExecutionFault naming
 * the tier and the function. Kept out of line in another file on
 * purpose: a throw defined next to the VM's dispatch loop changed its
 * register allocation and cost the perfbench serve_heavy workload
 * 15-33% CPU per input (4-core x86 host, GCC Release build).
 */
[[noreturn]] void throwStepBudgetExceeded(const char *tier,
                                          const std::string &function);
[[noreturn]] void throwDivisionByZero(const char *tier,
                                      const std::string &function);

/** A runtime value: integer or floating. */
struct RtValue
{
    Type type = Type::I64;
    std::int64_t i = 0;
    double f = 0.0;

    static RtValue ofInt(std::int64_t v);
    static RtValue ofFloat(double v, Type type = Type::F64);

    double asFloat() const { return isFloating(type) ? f : double(i); }

    /**
     * Float-to-int conversion saturates (like LLVM's fptosi.sat):
     * NaN maps to 0 and out-of-range values clamp to the i64 bounds.
     * A plain cast would be undefined behaviour for exactly those
     * inputs, i.e. the result could differ between a run and its
     * replay.
     */
    std::int64_t asInt() const
    {
        if (!isFloating(type))
            return i;
        if (f != f)
            return 0; // NaN
        // 2^63 is exactly representable; INT64_MAX is not.
        if (f >= 9223372036854775808.0)
            return 9223372036854775807LL;
        if (f < -9223372036854775808.0)
            return -9223372036854775807LL - 1;
        return static_cast<std::int64_t>(f);
    }
};

/** Interprets functions of one module. */
class Interpreter
{
  public:
    explicit Interpreter(const Module &module);

    /**
     * Call a function by name. Panics on unknown functions and arity
     * mismatches; throws StepBudgetExceeded when the step budget is
     * exhausted (runaway loops).
     */
    RtValue call(const std::string &function,
                 const std::vector<RtValue> &args);

    /** Provide or override an external (builtin) function. */
    void bindExternal(
        const std::string &name,
        std::function<RtValue(const std::vector<RtValue> &)> fn);

    /** Instructions executed so far (committed-instruction counts). */
    std::uint64_t executedInstructions() const { return _executed; }

    /** Cap on executed instructions per top-level call. */
    void setStepBudget(std::uint64_t budget) { _stepBudget = budget; }

    /**
     * Observe every environment assignment: parameter binding, phi
     * application, and instruction results, with the function being
     * interpreted and the temp's name. Test instrumentation — the
     * range-analysis soundness suite checks each observed value
     * against the statically inferred interval. Pass nullptr to
     * detach.
     */
    void setAssignmentObserver(
        std::function<void(const Function &, const std::string &,
                           const RtValue &)>
            observer)
    {
        _observer = std::move(observer);
    }

  private:
    RtValue evalOperand(const Operand &operand,
                        const std::map<std::string, RtValue> &env) const;

    const Module &_module;
    std::map<std::string,
             std::function<RtValue(const std::vector<RtValue> &)>>
        _externals;
    std::function<void(const Function &, const std::string &,
                       const RtValue &)>
        _observer;
    std::uint64_t _executed = 0;
    std::uint64_t _stepBudget = 10'000'000;
    std::uint64_t _stepsUsed = 0;
    int _depth = 0;
};

} // namespace stats::ir
