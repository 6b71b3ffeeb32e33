#include "ir/interpreter.hpp"

#include <cmath>
#include <limits>

#include "support/log.hpp"
#include "support/rng.hpp"

namespace stats::ir {

RtValue
RtValue::ofInt(std::int64_t v)
{
    RtValue value;
    value.type = Type::I64;
    value.i = v;
    return value;
}

RtValue
RtValue::ofFloat(double v, Type type)
{
    RtValue value;
    value.type = type;
    value.f = type == Type::F32 ? static_cast<float>(v) : v;
    return value;
}

Interpreter::Interpreter(const Module &module) : _module(module)
{
    // Math builtins; rand_uniform is the PRVG hook that makes IR
    // programs nondeterministic, mirroring the benchmarks.
    bindExternal("sqrt", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::sqrt(args.at(0).asFloat()));
    });
    bindExternal("exp", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::exp(args.at(0).asFloat()));
    });
    bindExternal("log", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::log(args.at(0).asFloat()));
    });
    bindExternal("sin", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::sin(args.at(0).asFloat()));
    });
    bindExternal("cos", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::cos(args.at(0).asFloat()));
    });
    bindExternal("fabs", [](const std::vector<RtValue> &args) {
        return RtValue::ofFloat(std::fabs(args.at(0).asFloat()));
    });
    bindExternal("rand_uniform", [](const std::vector<RtValue> &) {
        static support::Xoshiro256 rng(support::entropySeed());
        return RtValue::ofFloat(rng.nextDouble());
    });
}

void
Interpreter::bindExternal(
    const std::string &name,
    std::function<RtValue(const std::vector<RtValue> &)> fn)
{
    _externals[name] = std::move(fn);
}

RtValue
Interpreter::evalOperand(const Operand &operand,
                         const std::map<std::string, RtValue> &env) const
{
    switch (operand.kind) {
      case Operand::Kind::ConstInt:
        return RtValue::ofInt(operand.intValue);
      case Operand::Kind::ConstFloat:
        return RtValue::ofFloat(operand.floatValue);
      case Operand::Kind::Temp: {
        auto it = env.find(operand.name);
        if (it == env.end())
            support::panic("interpreter: undefined temp %", operand.name);
        return it->second;
      }
    }
    support::panic("interpreter: bad operand");
}

void
throwStepBudgetExceeded(const char *tier, const std::string &function)
{
    throw StepBudgetExceeded(std::string(tier) +
                             ": step budget exceeded in @" + function);
}

void
throwDivisionByZero(const char *tier, const std::string &function)
{
    throw ExecutionFault(std::string(tier) + ": division by 0 in @" +
                         function);
}

RtValue
Interpreter::call(const std::string &function,
                  const std::vector<RtValue> &args)
{
    if (_depth == 0)
        _stepsUsed = 0;
    if (++_depth > 256)
        support::panic("interpreter: call depth exceeded");
    // Every exit, an ExecutionFault unwind included, puts the depth
    // back, so the next top-level call starts a fresh step count.
    struct DepthGuard
    {
        int &depth;
        ~DepthGuard() { --depth; }
    } depth_guard{_depth};

    auto external = _externals.find(function);
    const Function *fn = _module.findFunction(function);
    if (!fn) {
        if (external == _externals.end())
            support::panic("interpreter: unknown function @", function);
        return external->second(args);
    }
    if (args.size() != fn->params.size())
        support::panic("interpreter: @", function, " expects ",
                       fn->params.size(), " args, got ", args.size());

    std::map<std::string, RtValue> env;
    const auto assign = [&](const std::string &name,
                            const RtValue &value) {
        env[name] = value;
        if (_observer)
            _observer(*fn, name, value);
    };
    for (std::size_t i = 0; i < args.size(); ++i)
        assign(fn->params[i].name, args[i]);

    const BasicBlock *block = &fn->blocks.front();
    std::string previous_label;

    for (;;) {
        // Phis read their incomings before any assignment this block
        // makes (they execute "simultaneously" on entry).
        std::map<std::string, RtValue> phi_values;
        for (const auto &inst : block->instructions) {
            if (inst.op != Opcode::Phi)
                break;
            bool found = false;
            for (std::size_t i = 0; i < inst.labels.size(); ++i) {
                if (inst.labels[i] == previous_label) {
                    phi_values[inst.result] =
                        evalOperand(inst.operands[i], env);
                    found = true;
                    break;
                }
            }
            if (!found)
                support::panic("interpreter: phi in '", block->label,
                               "' has no incoming for '", previous_label,
                               "'");
        }
        for (auto &[name, value] : phi_values)
            assign(name, value);

        for (const auto &inst : block->instructions) {
            if (++_stepsUsed > _stepBudget)
                throwStepBudgetExceeded("interpreter", function);
            ++_executed;

            switch (inst.op) {
              case Opcode::Phi:
                continue; // Handled above.
              case Opcode::Add:
              case Opcode::Sub:
              case Opcode::Mul:
              case Opcode::Div: {
                const RtValue a = evalOperand(inst.operands[0], env);
                const RtValue b = evalOperand(inst.operands[1], env);
                if (isFloating(inst.type)) {
                    const double x = a.asFloat(), y = b.asFloat();
                    double r = 0.0;
                    if (inst.op == Opcode::Add) r = x + y;
                    else if (inst.op == Opcode::Sub) r = x - y;
                    else if (inst.op == Opcode::Mul) r = x * y;
                    else r = x / y;
                    assign(inst.result, RtValue::ofFloat(r, inst.type));
                } else {
                    const std::int64_t x = a.asInt(), y = b.asInt();
                    // i64 arithmetic wraps (two's complement): signed
                    // overflow is UB in C++, so compute in uint64.
                    const auto ux = static_cast<std::uint64_t>(x);
                    const auto uy = static_cast<std::uint64_t>(y);
                    std::int64_t r = 0;
                    if (inst.op == Opcode::Add)
                        r = static_cast<std::int64_t>(ux + uy);
                    else if (inst.op == Opcode::Sub)
                        r = static_cast<std::int64_t>(ux - uy);
                    else if (inst.op == Opcode::Mul)
                        r = static_cast<std::int64_t>(ux * uy);
                    else {
                        if (y == 0)
                            throwDivisionByZero("interpreter", function);
                        // INT64_MIN / -1 overflows (hardware traps);
                        // wrap it to INT64_MIN like the * and +
                        // cases.
                        if (x == std::numeric_limits<std::int64_t>::min() &&
                            y == -1)
                            r = x;
                        else
                            r = x / y;
                    }
                    assign(inst.result, RtValue::ofInt(r));
                }
                break;
              }
              case Opcode::CmpEq:
              case Opcode::CmpLt:
              case Opcode::CmpLe: {
                const RtValue a = evalOperand(inst.operands[0], env);
                const RtValue b = evalOperand(inst.operands[1], env);
                bool r = false;
                if (isFloating(inst.type)) {
                    const double x = a.asFloat(), y = b.asFloat();
                    r = inst.op == Opcode::CmpEq   ? x == y
                        : inst.op == Opcode::CmpLt ? x < y
                                                   : x <= y;
                } else {
                    const std::int64_t x = a.asInt(), y = b.asInt();
                    r = inst.op == Opcode::CmpEq   ? x == y
                        : inst.op == Opcode::CmpLt ? x < y
                                                   : x <= y;
                }
                assign(inst.result, RtValue::ofInt(r ? 1 : 0));
                break;
              }
              case Opcode::Select: {
                const bool cond =
                    evalOperand(inst.operands[0], env).asInt() != 0;
                assign(inst.result,
                       evalOperand(inst.operands[cond ? 1 : 2], env));
                break;
              }
              case Opcode::Cast: {
                const RtValue v = evalOperand(inst.operands[0], env);
                assign(inst.result,
                       isFloating(inst.type)
                           ? RtValue::ofFloat(v.asFloat(), inst.type)
                           : RtValue::ofInt(v.asInt()));
                break;
              }
              case Opcode::Call: {
                std::vector<RtValue> call_args;
                call_args.reserve(inst.operands.size());
                for (const auto &operand : inst.operands)
                    call_args.push_back(evalOperand(operand, env));
                const RtValue r = call(inst.callee, call_args);
                if (!inst.result.empty())
                    assign(inst.result, r);
                break;
              }
              case Opcode::Br: {
                const bool cond =
                    evalOperand(inst.operands[0], env).asInt() != 0;
                previous_label = block->label;
                block = fn->findBlock(inst.labels[cond ? 0 : 1]);
                goto next_block;
              }
              case Opcode::Jmp:
                previous_label = block->label;
                block = fn->findBlock(inst.labels[0]);
                goto next_block;
              case Opcode::Ret: {
                RtValue result;
                if (!inst.operands.empty())
                    result = evalOperand(inst.operands[0], env);
                return result;
              }
            }
        }
        support::panic("interpreter: block '", block->label,
                       "' fell through without a terminator");
      next_block:
        if (!block)
            support::panic("interpreter: branch to missing block");
    }
}

} // namespace stats::ir
