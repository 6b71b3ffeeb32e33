/**
 * @file
 * Bytecode VM execution: threaded dispatch (computed goto on GCC and
 * Clang, a switch loop elsewhere), a thread-local frame stack, and
 * the batched SoA mode. Built with -ffp-contract=off: the fused
 * superinstructions must keep the AST walker's two IEEE roundings.
 */

#include "ir/vm.hpp"

#include <cstring>
#include <limits>

#include "ir/ops_simd.hpp"
#include "support/log.hpp"

namespace stats::ir::bc {

namespace {

/** Per-thread execution state; one Vm may be shared across threads. */
thread_local std::vector<VmReg> t_stack;
thread_local std::uint64_t t_steps = 0;
thread_local int t_depth = 0;

std::int64_t
saturate(double f)
{
    if (f != f)
        return 0;
    if (f >= 9223372036854775808.0)
        return 9223372036854775807LL;
    if (f < -9223372036854775808.0)
        return -9223372036854775807LL - 1;
    return static_cast<std::int64_t>(f);
}

std::int64_t
wrapDiv(std::int64_t x, std::int64_t y, const std::string &fn)
{
    if (y == 0)
        throwDivisionByZero("vm", fn);
    if (x == std::numeric_limits<std::int64_t>::min() && y == -1)
        return x; // Wraps, like the interpreter.
    return x / y;
}

void
ensureFrame(std::size_t base, std::uint16_t numRegs)
{
    if (t_stack.size() < base + numRegs)
        t_stack.resize(std::max(t_stack.size() * 2,
                                base + std::size_t(numRegs)));
    // Fresh frames start zeroed: a Sel reads both arms, and the
    // not-taken arm of a path-dependent value must at least be a
    // determinate bit pattern.
    std::memset(t_stack.data() + base, 0,
                std::size_t(numRegs) * sizeof(VmReg));
}

} // namespace

#if defined(__GNUC__) || defined(__clang__)
#define STATS_VM_THREADED 1
#endif

VmReg
Vm::rawCall(const BcFunction &fn, std::size_t base)
{
    const BcInst *code = fn.code.data();
    const std::int64_t *ipool = fn.ipool.data();
    const double *fpool = fn.fpool.data();
    VmReg *regs = t_stack.data() + base;
    std::size_t ip = 0;
    const BcInst *inst = nullptr;
    const std::uint64_t budget = _stepBudget;

#define VM_U64(x) static_cast<std::uint64_t>(x)
#define VM_I64(x) static_cast<std::int64_t>(x)
#define VM_STEP()                                                       \
    do {                                                                \
        if (++t_steps > budget)                                         \
            throwStepBudgetExceeded("vm", fn.name);                     \
    } while (0)

#ifdef STATS_VM_THREADED
    static const void *kLabels[] = {
#define STATS_BC_LABEL(name, mnemonic, format) &&op_##name,
        STATS_BC_OPCODES(STATS_BC_LABEL)
#undef STATS_BC_LABEL
    };
#define VM_CASE(name) op_##name
#define VM_NEXT()                                                       \
    do {                                                                \
        VM_STEP();                                                      \
        inst = &code[ip++];                                             \
        goto *kLabels[std::size_t(inst->op)];                           \
    } while (0)
    VM_NEXT();
#else
#define VM_CASE(name) case BcOp::name
#define VM_NEXT() continue
    for (;;) {
        VM_STEP();
        inst = &code[ip++];
        switch (inst->op) {
#endif

    VM_CASE(LdcI):
        regs[inst->a].i = ipool[inst->imm];
        VM_NEXT();
    VM_CASE(LdcF):
        regs[inst->a].f = fpool[inst->imm];
        VM_NEXT();
    VM_CASE(Mov):
        regs[inst->a] = regs[inst->b];
        VM_NEXT();
    VM_CASE(I2F):
        regs[inst->a].f = double(regs[inst->b].i);
        VM_NEXT();
    VM_CASE(I2F32):
        regs[inst->a].f = double(float(double(regs[inst->b].i)));
        VM_NEXT();
    VM_CASE(F2I):
        regs[inst->a].i = saturate(regs[inst->b].f);
        VM_NEXT();
    VM_CASE(F2INc):
        // Compiler proved the value in [-2^63, 2^63): raw truncation.
        regs[inst->a].i = static_cast<std::int64_t>(regs[inst->b].f);
        VM_NEXT();
    VM_CASE(F2F32):
        regs[inst->a].f = double(float(regs[inst->b].f));
        VM_NEXT();
    VM_CASE(AddI):
        regs[inst->a].i =
            VM_I64(VM_U64(regs[inst->b].i) + VM_U64(regs[inst->c].i));
        VM_NEXT();
    VM_CASE(SubI):
        regs[inst->a].i =
            VM_I64(VM_U64(regs[inst->b].i) - VM_U64(regs[inst->c].i));
        VM_NEXT();
    VM_CASE(MulI):
        regs[inst->a].i =
            VM_I64(VM_U64(regs[inst->b].i) * VM_U64(regs[inst->c].i));
        VM_NEXT();
    VM_CASE(DivI):
        regs[inst->a].i =
            wrapDiv(regs[inst->b].i, regs[inst->c].i, fn.name);
        VM_NEXT();
    VM_CASE(DivINc):
        // Compiler proved divisor != 0 and no MIN/-1: raw division.
        regs[inst->a].i = regs[inst->b].i / regs[inst->c].i;
        VM_NEXT();
    VM_CASE(AddF):
        regs[inst->a].f = regs[inst->b].f + regs[inst->c].f;
        VM_NEXT();
    VM_CASE(SubF):
        regs[inst->a].f = regs[inst->b].f - regs[inst->c].f;
        VM_NEXT();
    VM_CASE(MulF):
        regs[inst->a].f = regs[inst->b].f * regs[inst->c].f;
        VM_NEXT();
    VM_CASE(DivF):
        regs[inst->a].f = regs[inst->b].f / regs[inst->c].f;
        VM_NEXT();
    VM_CASE(AddF32):
        regs[inst->a].f =
            double(float(regs[inst->b].f + regs[inst->c].f));
        VM_NEXT();
    VM_CASE(SubF32):
        regs[inst->a].f =
            double(float(regs[inst->b].f - regs[inst->c].f));
        VM_NEXT();
    VM_CASE(MulF32):
        regs[inst->a].f =
            double(float(regs[inst->b].f * regs[inst->c].f));
        VM_NEXT();
    VM_CASE(DivF32):
        regs[inst->a].f =
            double(float(regs[inst->b].f / regs[inst->c].f));
        VM_NEXT();
    VM_CASE(EqI):
        regs[inst->a].i = regs[inst->b].i == regs[inst->c].i ? 1 : 0;
        VM_NEXT();
    VM_CASE(LtI):
        regs[inst->a].i = regs[inst->b].i < regs[inst->c].i ? 1 : 0;
        VM_NEXT();
    VM_CASE(LeI):
        regs[inst->a].i = regs[inst->b].i <= regs[inst->c].i ? 1 : 0;
        VM_NEXT();
    VM_CASE(EqF):
        regs[inst->a].i = regs[inst->b].f == regs[inst->c].f ? 1 : 0;
        VM_NEXT();
    VM_CASE(LtF):
        regs[inst->a].i = regs[inst->b].f < regs[inst->c].f ? 1 : 0;
        VM_NEXT();
    VM_CASE(LeF):
        regs[inst->a].i = regs[inst->b].f <= regs[inst->c].f ? 1 : 0;
        VM_NEXT();
    VM_CASE(Sel):
        regs[inst->a] = regs[inst->b].i != 0
                            ? regs[inst->c]
                            : regs[std::uint16_t(inst->imm)];
        VM_NEXT();
    VM_CASE(Brnz):
        if (regs[inst->b].i != 0)
            ip = std::size_t(inst->imm);
        VM_NEXT();
    VM_CASE(Jmp):
        ip = std::size_t(inst->imm);
        VM_NEXT();
    VM_CASE(Call): {
        const BcCallSite &site = fn.calls[std::size_t(inst->imm)];
        if (++t_depth > 256)
            support::panic("vm: call depth exceeded");
        if (site.calleeIndex >= 0 &&
            (*_module).functions[std::size_t(site.calleeIndex)]
                .compiled) {
            const BcFunction &callee =
                _module->functions[std::size_t(site.calleeIndex)];
            const std::size_t callee_base = base + fn.numRegs;
            ensureFrame(callee_base, callee.numRegs);
            VmReg *callee_regs = t_stack.data() + callee_base;
            const VmReg *caller_regs = t_stack.data() + base;
            for (std::size_t j = 0; j < site.args.size(); ++j) {
                const std::uint16_t dst = callee.paramRegs[j];
                if (dst != kNoReg)
                    callee_regs[dst] = caller_regs[site.args[j].first];
            }
            const VmReg r = rawCall(callee, callee_base);
            --t_depth;
            regs = t_stack.data() + base; // Stack may have grown.
            if (inst->a != kNoReg)
                regs[inst->a] = r;
        } else {
            std::vector<RtValue> args;
            args.reserve(site.args.size());
            for (const auto &[reg, tag] : site.args) {
                args.push_back(isFloating(tag)
                                   ? RtValue::ofFloat(regs[reg].f, tag)
                                   : RtValue::ofInt(regs[reg].i));
            }
            const RtValue r = _slowCall(site.callee, std::move(args));
            --t_depth;
            regs = t_stack.data() + base; // Hook may re-enter the VM.
            if (inst->a != kNoReg) {
                if (isFloating(site.retType))
                    regs[inst->a].f = r.asFloat();
                else
                    regs[inst->a].i = r.asInt();
            }
        }
        VM_NEXT();
    }
    VM_CASE(Ret):
        return regs[inst->a];
    VM_CASE(RetV): {
        VmReg zero;
        zero.i = 0;
        return zero;
    }
    VM_CASE(MulAddI):
        regs[inst->a].i =
            VM_I64(VM_U64(regs[inst->b].i) * VM_U64(regs[inst->c].i) +
                   VM_U64(regs[std::uint16_t(inst->imm)].i));
        VM_NEXT();
    VM_CASE(MulAddF): {
        const double t = regs[inst->b].f * regs[inst->c].f;
        regs[inst->a].f = t + regs[std::uint16_t(inst->imm)].f;
        VM_NEXT();
    }
    VM_CASE(AddAddI):
        regs[inst->a].i =
            VM_I64(VM_U64(regs[inst->b].i) + VM_U64(regs[inst->c].i) +
                   VM_U64(regs[std::uint16_t(inst->imm)].i));
        VM_NEXT();
    VM_CASE(AddAddF): {
        const double t = regs[inst->b].f + regs[inst->c].f;
        regs[inst->a].f = t + regs[std::uint16_t(inst->imm)].f;
        VM_NEXT();
    }
    VM_CASE(AddMulI):
        regs[inst->a].i =
            VM_I64((VM_U64(regs[inst->b].i) + VM_U64(regs[inst->c].i)) *
                   VM_U64(regs[std::uint16_t(inst->imm)].i));
        VM_NEXT();
    VM_CASE(AddMulF): {
        const double t = regs[inst->b].f + regs[inst->c].f;
        regs[inst->a].f = t * regs[std::uint16_t(inst->imm)].f;
        VM_NEXT();
    }

#ifndef STATS_VM_THREADED
        }
    }
#endif

    support::panic("vm: fell off the dispatch loop in @", fn.name);

#undef VM_CASE
#undef VM_NEXT
#undef VM_STEP
#undef VM_U64
#undef VM_I64
}

RtValue
Vm::call(const BcFunction &fn, const std::vector<RtValue> &args)
{
    if (!fn.compiled)
        support::panic("vm: @", fn.name, " is not compiled: ",
                       fn.fallbackReason);
    if (args.size() != fn.paramRegs.size())
        support::panic("vm: @", fn.name, " expects ",
                       fn.paramRegs.size(), " args, got ", args.size());

    const bool top_level = t_depth == 0;
    if (top_level)
        t_steps = 0;
    if (++t_depth > 256)
        support::panic("vm: call depth exceeded");
    // Every exit, an ExecutionFault unwind from any depth below
    // included, puts back the caller's depth and (at top level) drops
    // the frame stack, so the next call on this thread starts clean.
    struct Restore
    {
        int depth;
        bool topLevel;
        ~Restore()
        {
            t_depth = depth;
            if (topLevel)
                t_stack.clear();
        }
    } restore{t_depth - 1, top_level};

    const std::size_t base = t_stack.size();
    ensureFrame(base, fn.numRegs);
    VmReg *regs = t_stack.data() + base;
    for (std::size_t j = 0; j < args.size(); ++j) {
        const std::uint16_t reg = fn.paramRegs[j];
        if (reg == kNoReg)
            continue;
        if (fn.paramClasses[j] == RegClass::Float)
            regs[reg].f = args[j].asFloat();
        else
            regs[reg].i = args[j].asInt();
    }

    const VmReg raw = rawCall(fn, base);
    if (top_level)
        _executed.fetch_add(t_steps, std::memory_order_relaxed);

    RtValue result;
    switch (fn.retType) {
      case Type::Void:
        break;
      case Type::I64:
        result = RtValue::ofInt(raw.i);
        break;
      default:
        result = RtValue::ofFloat(raw.f, fn.retType);
        break;
    }
    return result;
}

bool
Vm::callBatch(const BcFunction &fn, std::size_t lanes,
              const std::vector<const RtValue *> &argColumns,
              RtValue *results)
{
    if (!fn.compiled || !fn.batchable || lanes == 0)
        return false;
    if (argColumns.size() != fn.paramRegs.size())
        return false;
    // Every lane's argument must already sit in the declared class;
    // a mismatched lane would need the AST walker's dynamic re-typing.
    for (std::size_t j = 0; j < argColumns.size(); ++j) {
        const bool want_float = fn.paramClasses[j] == RegClass::Float;
        for (std::size_t w = 0; w < lanes; ++w)
            if (isFloating(argColumns[j][w].type) != want_float)
                return false;
    }

    // Register matrix, SoA: row r holds register r of every lane.
    std::vector<VmReg> matrix(std::size_t(fn.numRegs) * lanes);
    auto row = [&](std::uint16_t reg) {
        return matrix.data() + std::size_t(reg) * lanes;
    };
    for (std::size_t j = 0; j < argColumns.size(); ++j) {
        const std::uint16_t reg = fn.paramRegs[j];
        if (reg == kNoReg)
            continue;
        VmReg *r = row(reg);
        if (fn.paramClasses[j] == RegClass::Float)
            for (std::size_t w = 0; w < lanes; ++w)
                r[w].f = argColumns[j][w].asFloat();
        else
            for (std::size_t w = 0; w < lanes; ++w)
                r[w].i = argColumns[j][w].asInt();
    }

    const bool top_level = t_depth == 0;
    if (top_level)
        t_steps = 0;
    for (const BcInst &inst : fn.code) {
        // Each lane pays for its own instructions, as a solo call
        // does: fusing plans never changes whether one runs out.
        if (++t_steps > _stepBudget)
            throwStepBudgetExceeded("vm", fn.name);
        switch (inst.op) {
          case BcOp::LdcI: {
            VmReg *d = row(inst.a);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].i = fn.ipool[std::size_t(inst.imm)];
            break;
          }
          case BcOp::LdcF: {
            VmReg *d = row(inst.a);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].f = fn.fpool[std::size_t(inst.imm)];
            break;
          }
          case BcOp::Mov:
            std::memcpy(row(inst.a), row(inst.b),
                        lanes * sizeof(VmReg));
            break;
          case BcOp::I2F: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].f = double(b[w].i);
            break;
          }
          case BcOp::I2F32: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].f = double(float(double(b[w].i)));
            break;
          }
          case BcOp::F2I: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].i = saturate(b[w].f);
            break;
          }
          case BcOp::F2INc: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].i = static_cast<std::int64_t>(b[w].f);
            break;
          }
          case BcOp::F2F32: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].f = double(float(b[w].f));
            break;
          }
          case BcOp::AddI:
            simd::addI(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::SubI:
            simd::subI(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::MulI:
            simd::mulI(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::DivI: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            const VmReg *c = row(inst.c);
            // A zero divisor in any lane throws, exactly as that
            // lane's scalar run would (docs/INTERPRETER.md §5).
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].i = wrapDiv(b[w].i, c[w].i, fn.name);
            break;
          }
          case BcOp::DivINc: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            const VmReg *c = row(inst.c);
            for (std::size_t w = 0; w < lanes; ++w)
                d[w].i = b[w].i / c[w].i;
            break;
          }
          case BcOp::AddF:
            simd::addF(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::SubF:
            simd::subF(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::MulF:
            simd::mulF(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::DivF:
            simd::divF(row(inst.a), row(inst.b), row(inst.c), lanes);
            break;
          case BcOp::AddF32:
          case BcOp::SubF32:
          case BcOp::MulF32:
          case BcOp::DivF32: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            const VmReg *c = row(inst.c);
            for (std::size_t w = 0; w < lanes; ++w) {
                double r = 0.0;
                if (inst.op == BcOp::AddF32)
                    r = b[w].f + c[w].f;
                else if (inst.op == BcOp::SubF32)
                    r = b[w].f - c[w].f;
                else if (inst.op == BcOp::MulF32)
                    r = b[w].f * c[w].f;
                else
                    r = b[w].f / c[w].f;
                d[w].f = double(float(r));
            }
            break;
          }
          case BcOp::EqI:
          case BcOp::LtI:
          case BcOp::LeI: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            const VmReg *c = row(inst.c);
            for (std::size_t w = 0; w < lanes; ++w) {
                const bool r = inst.op == BcOp::EqI
                                   ? b[w].i == c[w].i
                               : inst.op == BcOp::LtI
                                   ? b[w].i < c[w].i
                                   : b[w].i <= c[w].i;
                d[w].i = r ? 1 : 0;
            }
            break;
          }
          case BcOp::EqF:
          case BcOp::LtF:
          case BcOp::LeF: {
            VmReg *d = row(inst.a);
            const VmReg *b = row(inst.b);
            const VmReg *c = row(inst.c);
            for (std::size_t w = 0; w < lanes; ++w) {
                const bool r = inst.op == BcOp::EqF
                                   ? b[w].f == c[w].f
                               : inst.op == BcOp::LtF
                                   ? b[w].f < c[w].f
                                   : b[w].f <= c[w].f;
                d[w].i = r ? 1 : 0;
            }
            break;
          }
          case BcOp::Sel: {
            VmReg *d = row(inst.a);
            const VmReg *cond = row(inst.b);
            const VmReg *then_row = row(inst.c);
            const VmReg *else_row =
                row(std::uint16_t(inst.imm));
            for (std::size_t w = 0; w < lanes; ++w)
                d[w] = cond[w].i != 0 ? then_row[w] : else_row[w];
            break;
          }
          case BcOp::MulAddI:
            simd::mulAddI(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::MulAddF:
            simd::mulAddF(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::AddAddI:
            simd::addAddI(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::AddAddF:
            simd::addAddF(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::AddMulI:
            simd::addMulI(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::AddMulF:
            simd::addMulF(row(inst.a), row(inst.b), row(inst.c),
                          row(std::uint16_t(inst.imm)), lanes);
            break;
          case BcOp::Ret: {
            const VmReg *r = row(inst.a);
            for (std::size_t w = 0; w < lanes; ++w) {
                results[w] = fn.retType == Type::I64
                                 ? RtValue::ofInt(r[w].i)
                                 : RtValue::ofFloat(r[w].f,
                                                    fn.retType);
            }
            if (top_level)
                _executed.fetch_add(t_steps * lanes,
                                    std::memory_order_relaxed);
            return true;
          }
          default:
            // Brnz/Jmp/Call/RetV cannot appear in batchable code.
            support::panic("vm: non-batchable opcode in batch mode");
        }
    }
    support::panic("vm: batch code ended without ret");
}

} // namespace stats::ir::bc
