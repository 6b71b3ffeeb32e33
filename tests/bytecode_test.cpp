/**
 * @file
 * Tests of the bytecode execution tier (src/ir/bytecode.cpp, vm.cpp,
 * exec_tier.cpp; docs/INTERPRETER.md): compiler lowering, exact
 * equivalence with the AST walker on the semantics corners (wrapping,
 * saturation, F32 rounding, phi swaps, select), superinstruction
 * fusion, the batched SoA mode, tier selection, and the
 * docs-lockstep check that pins the opcode and superinstruction
 * tables in docs/INTERPRETER.md to the X-macro definitions.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/bytecode.hpp"
#include "ir/disasm.hpp"
#include "ir/exec_tier.hpp"
#include "ir/interpreter.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "ir/vm.hpp"

namespace {

using namespace stats;
using ir::RtValue;

ir::Module
parse(const std::string &text)
{
    ir::Module module = ir::parseModule(text);
    const auto problems = ir::verifyModule(module);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    return module;
}

/** Both tiers on the same call; expect identical tagged bits. */
void
expectTiersAgree(const ir::Module &module, const std::string &fn,
                 const std::vector<RtValue> &args)
{
    ir::Interpreter interp(module);
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    const RtValue expected = interp.call(fn, args);
    const RtValue got = exec.call(fn, args);
    EXPECT_EQ(ir::isFloating(expected.type), ir::isFloating(got.type))
        << fn;
    if (ir::isFloating(expected.type)) {
        // Bit-exact, NaN-tolerant comparison.
        std::uint64_t eb, gb;
        std::memcpy(&eb, &expected.f, 8);
        std::memcpy(&gb, &got.f, 8);
        EXPECT_EQ(eb, gb) << fn << ": " << expected.f << " vs " << got.f;
    } else {
        EXPECT_EQ(expected.i, got.i) << fn;
    }
}

TEST(BytecodeCompiler, CompilesTheExampleModules)
{
    for (const char *name : {"loop_phi", "pipeline", "aux_cloned"}) {
        std::ifstream in(std::string(STATS_SOURCE_DIR) +
                         "/examples/ir/" + name + ".ir");
        ASSERT_TRUE(in.is_open()) << name;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const ir::Module module = parse(buffer.str());
        const ir::bc::BcModule bc = ir::bc::compileModule(module);
        EXPECT_EQ(bc.compiledCount(), module.functions.size()) << name;
    }
}

TEST(BytecodeCompiler, IntegerSemanticsMatchTheWalkerExactly)
{
    const ir::Module module = parse(R"(module "ints"
func @arith(i64 %a, i64 %b) -> i64 {
entry:
  %s = add i64 %a, %b
  %d = sub i64 %s, %b
  %m = mul i64 %d, %a
  %q = div i64 %m, %b
  ret i64 %q
}
)");
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    for (const auto &[a, b] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {7, 3},
             {max, 1},       // add wraps
             {min, -1},      // MIN/-1 wraps back to MIN
             {max, max},     // mul wraps
             {-9, 2},        // C++ truncating division
             {min, 17}}) {
        expectTiersAgree(module, "arith",
                         {RtValue::ofInt(a), RtValue::ofInt(b)});
    }
}

TEST(BytecodeCompiler, SaturatingCastAndFloatClassing)
{
    const ir::Module module = parse(R"(module "casts"
func @roundtrip(f64 %x) -> i64 {
entry:
  %i = cast i64 %x
  %back = cast f64 %i
  %sum = add f64 %back, %x
  %r = cast i64 %sum
  ret i64 %r
}
)");
    for (double x :
         {0.5, -7.25, 9.3e18, -9.3e18, 1e300, -1e300,
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        expectTiersAgree(module, "roundtrip", {RtValue::ofFloat(x)});
    }
}

TEST(BytecodeCompiler, F32ArithmeticRoundsLikeTheWalker)
{
    const ir::Module module = parse(R"(module "f32"
func @narrow(f64 %x, f64 %y) -> f32 {
entry:
  %a = add f32 %x, %y
  %m = mul f32 %a, %x
  %d = div f32 %m, %y
  ret f32 %d
}
)");
    for (const auto &[x, y] : std::vector<std::pair<double, double>>{
             {1.1, 3.7}, {1e30, 1e-30}, {1.0000001, 1.0000002}}) {
        expectTiersAgree(module, "narrow",
                         {RtValue::ofFloat(x), RtValue::ofFloat(y)});
    }
}

TEST(BytecodeCompiler, PhiSwapNeedsTheParallelCopyCycleBreaker)
{
    // Classic swap problem: both phis read the other's previous value,
    // so a naive sequential copy on the back edge corrupts one of
    // them. The walker applies phis simultaneously; the edge stub must
    // pass through the scratch register to match.
    const ir::Module module = parse(R"(module "swap"
func @swap(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %a = phi i64 [1, entry], [%b, loop]
  %b = phi i64 [2, entry], [%a, loop]
  %k = phi i64 [0, entry], [%k2, loop]
  %k2 = add i64 %k, 1
  %go = cmplt i64 %k2, %n
  br %go, loop, exit
exit:
  %r = mul i64 %a, 10
  %r2 = add i64 %r, %b
  ret i64 %r2
}
)");
    for (std::int64_t n : {1, 2, 3, 7, 8}) {
        expectTiersAgree(module, "swap", {RtValue::ofInt(n)});
    }
}

TEST(BytecodeCompiler, SelectCopiesTheChosenArmRaw)
{
    const ir::Module module = parse(R"(module "sel"
func @pick(i64 %c, f64 %x, f64 %y) -> f64 {
entry:
  %r = select f64 %c, %x, %y
  ret f64 %r
}
)");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    expectTiersAgree(module, "pick",
                     {RtValue::ofInt(1), RtValue::ofFloat(nan),
                      RtValue::ofFloat(2.0)});
    expectTiersAgree(module, "pick",
                     {RtValue::ofInt(0), RtValue::ofFloat(1.0),
                      RtValue::ofFloat(-0.0)});
}

TEST(BytecodeCompiler, FusesChainsAndKeepsBothRoundings)
{
    const ir::Module module = parse(R"(module "fuse"
func @chain(f64 %x, f64 %s) -> f64 {
entry:
  %t = mul f64 %s, %x
  %r = add f64 %t, %s
  ret f64 %r
}
)");
    const ir::bc::BcModule bc = ir::bc::compileModule(module);
    const ir::bc::BcFunction *fn = bc.find("chain");
    ASSERT_NE(fn, nullptr);
    ASSERT_TRUE(fn->compiled);
    EXPECT_EQ(fn->fusedCount, 1u);
    bool has_muladd = false;
    for (const auto &inst : fn->code)
        has_muladd |= inst.op == ir::bc::BcOp::MulAddF;
    EXPECT_TRUE(has_muladd);
    // Inputs chosen so a contracted FMA would give different bits than
    // the walker's two roundings.
    for (const auto &[x, s] : std::vector<std::pair<double, double>>{
             {1.0 + 1e-16, 1.0}, {1e16, 1.0}, {3.0, 1.0 / 3.0}}) {
        expectTiersAgree(module, "chain",
                         {RtValue::ofFloat(x), RtValue::ofFloat(s)});
    }
}

TEST(BytecodeCompiler, IntermediateWithTwoReadersDoesNotFuse)
{
    const ir::Module module = parse(R"(module "nofuse"
func @twice(i64 %x) -> i64 {
entry:
  %t = mul i64 %x, 3
  %a = add i64 %t, %t
  ret i64 %a
}
)");
    const ir::bc::BcModule bc = ir::bc::compileModule(module);
    const ir::bc::BcFunction *fn = bc.find("twice");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->fusedCount, 0u);
    expectTiersAgree(module, "twice", {RtValue::ofInt(41)});
}

TEST(BytecodeCompiler, MixedClassSelectFallsBackWithAReason)
{
    const ir::Module module = parse(R"(module "conflict"
func @mix(i64 %c, i64 %i, f64 %f) -> i64 {
entry:
  %r = select i64 %c, %i, %f
  %out = cast i64 %r
  ret i64 %out
}
)");
    const ir::bc::BcModule bc = ir::bc::compileModule(module);
    const ir::bc::BcFunction *fn = bc.find("mix");
    ASSERT_NE(fn, nullptr);
    EXPECT_FALSE(fn->compiled);
    EXPECT_FALSE(fn->fallbackReason.empty());
    // Tier auto executes it through the walker, identically.
    ir::ExecutableModule exec(module, ir::ExecTier::Auto);
    EXPECT_EQ(exec.tierFor("mix"), ir::ExecTier::Ast);
    const RtValue r = exec.call("mix", {RtValue::ofInt(0),
                                        RtValue::ofInt(3),
                                        RtValue::ofFloat(2.5)});
    EXPECT_EQ(r.i, 2);
}

TEST(BytecodeCompiler, CallsCrossTiersThroughTheSlowPath)
{
    // @weird fails lowering on a structural bail (a phi below the
    // leading group, which the walker tolerates by ignoring it), but
    // its return class is clean — so @caller still compiles and must
    // route the call through the AST walker.
    const ir::Module module = parse(R"(module "crosstier"
func @weird(i64 %x) -> i64 {
entry:
  jmp next
next:
  %p = phi i64 [%x, entry]
  %y = add i64 %p, 1
  %q = phi i64 [%y, entry]
  ret i64 %y
}
func @caller(i64 %x) -> i64 {
entry:
  %v = call i64 @weird %x
  %r = add i64 %v, 100
  ret i64 %r
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Auto);
    EXPECT_EQ(exec.tierFor("caller"), ir::ExecTier::Bytecode);
    EXPECT_EQ(exec.tierFor("weird"), ir::ExecTier::Ast);
    EXPECT_EQ(exec.call("caller", {RtValue::ofInt(7)}).i, 108);
}

TEST(BytecodeCompiler, ExternalCallsUseTheInterpretersBindings)
{
    const ir::Module module = parse(R"(module "ext"
func @hyp(f64 %x, f64 %y) -> f64 {
entry:
  %xx = mul f64 %x, %x
  %yy = mul f64 %y, %y
  %ss = add f64 %xx, %yy
  %r = call f64 @sqrt %ss
  ret f64 %r
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    const RtValue r =
        exec.call("hyp", {RtValue::ofFloat(3.0), RtValue::ofFloat(4.0)});
    EXPECT_DOUBLE_EQ(r.f, 5.0);

    // Rebinding an external with an integer result class recompiles.
    // The walker returns ret operands raw, so the result is the
    // external's tagged integer — the bytecode tier must match that,
    // not the function's declared f64.
    ir::ExecutableModule rebound(module, ir::ExecTier::Auto);
    rebound.bindExternal(
        "sqrt",
        [](const std::vector<RtValue> &args) {
            return RtValue::ofInt(args.at(0).asInt() * 2);
        },
        ir::Type::I64);
    const RtValue r2 = rebound.call(
        "hyp", {RtValue::ofFloat(3.0), RtValue::ofFloat(4.0)});
    EXPECT_FALSE(ir::isFloating(r2.type));
    EXPECT_EQ(r2.i, 50);
}

TEST(BytecodeVm, BatchedExecutionMatchesScalarCalls)
{
    const ir::Module module = parse(R"(module "batch"
func @step(i64 %i, i64 %s) -> i64 {
entry:
  %t = mul i64 %s, 3
  %u = add i64 %t, %i
  %c = cmplt i64 %u, 0
  %flip = sub i64 0, %u
  %r = select i64 %c, %flip, %u
  ret i64 %r
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    const ir::bc::BcFunction *fn = exec.bytecode().find("step");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(fn->batchable);

    const std::size_t lanes = 37; // Odd: exercises SIMD tails.
    std::vector<RtValue> in_col, st_col, out(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
        in_col.push_back(RtValue::ofInt(std::int64_t(k) * 7 - 100));
        st_col.push_back(RtValue::ofInt(std::int64_t(k) * 13 - 200));
    }
    ASSERT_TRUE(exec.callBatch("step", lanes,
                               {in_col.data(), st_col.data()},
                               out.data()));
    for (std::size_t k = 0; k < lanes; ++k) {
        const RtValue scalar = exec.call("step", {in_col[k], st_col[k]});
        EXPECT_EQ(out[k].i, scalar.i) << "lane " << k;
    }
}

TEST(BytecodeVm, BatchRefusesClassMismatchedLanes)
{
    const ir::Module module = parse(R"(module "batchclass"
func @idf(f64 %x) -> f64 {
entry:
  %r = add f64 %x, 1.0
  ret f64 %r
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Auto);
    std::vector<RtValue> col{RtValue::ofFloat(1.0), RtValue::ofInt(2)};
    std::vector<RtValue> out(2);
    EXPECT_FALSE(exec.callBatch("idf", 2, {col.data()}, out.data()));
}

TEST(BytecodeVm, LoopsAndBranchesMatchTheWalker)
{
    std::ifstream in(std::string(STATS_SOURCE_DIR) +
                     "/examples/ir/loop_phi.ir");
    ASSERT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const ir::Module module = parse(buffer.str());
    for (std::int64_t n : {0, 1, 2, 10, 999}) {
        expectTiersAgree(module, "sumTo", {RtValue::ofInt(n)});
        expectTiersAgree(module, "clampedMean", {RtValue::ofInt(n)});
    }
}

TEST(BytecodeVmDeath, DivisionByZeroPanicsLikeTheWalker)
{
    const ir::Module module = parse(R"(module "div0"
func @div(i64 %a, i64 %b) -> i64 {
entry:
  %q = div i64 %a, %b
  ret i64 %q
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    EXPECT_EQ(exec.call("div", {RtValue::ofInt(7), RtValue::ofInt(2)}).i,
              3);
    // A zero divisor throws, naming the division.
    EXPECT_THROW(
        {
            try {
                exec.call("div", {RtValue::ofInt(7), RtValue::ofInt(0)});
            } catch (const ir::ExecutionFault &fault) {
                EXPECT_NE(std::string(fault.what()).find("division by 0"),
                          std::string::npos);
                throw;
            }
        },
        ir::ExecutionFault);
    // The unwind left the thread's call state clean.
    EXPECT_EQ(exec.call("div", {RtValue::ofInt(9), RtValue::ofInt(3)}).i,
              3);
}

TEST(BytecodeVmDeath, TierBytecodePanicsOnFallbackFunctions)
{
    const ir::Module module = parse(R"(module "strict"
func @mix(i64 %c, i64 %i, f64 %f) -> i64 {
entry:
  %r = select i64 %c, %i, %f
  %out = cast i64 %r
  ret i64 %out
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    EXPECT_DEATH(exec.call("mix", {RtValue::ofInt(0), RtValue::ofInt(1),
                                   RtValue::ofFloat(1.0)}),
                 "did not compile");
}

TEST(BytecodeVmDeath, StepBudgetBoundsRunawayLoops)
{
    const ir::Module module = parse(R"(module "spin"
func @spin(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %k = phi i64 [0, entry], [%k2, loop]
  %k2 = add i64 %k, 1
  %go = cmplt i64 %k2, %n
  br %go, loop, exit
exit:
  ret i64 %k2
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
    exec.setStepBudget(100);
    // A runaway call throws (it used to panic) with the same message.
    EXPECT_THROW(
        {
            try {
                exec.call("spin", {RtValue::ofInt(1'000'000)});
            } catch (const ir::StepBudgetExceeded &overrun) {
                EXPECT_NE(std::string(overrun.what()).find("step budget"),
                          std::string::npos);
                throw;
            }
        },
        ir::StepBudgetExceeded);
    // The unwind restored the thread's call state: the next call gets
    // a fresh budget and runs normally.
    EXPECT_EQ(exec.call("spin", {RtValue::ofInt(10)}).asInt(), 10);
}

TEST(ExecTier, NamesRoundTripAndCountersAdvance)
{
    EXPECT_EQ(ir::parseExecTier("ast"), ir::ExecTier::Ast);
    EXPECT_EQ(ir::parseExecTier("bytecode"), ir::ExecTier::Bytecode);
    EXPECT_EQ(ir::parseExecTier("auto"), ir::ExecTier::Auto);
    EXPECT_FALSE(ir::parseExecTier("jit").has_value());
    EXPECT_STREQ(ir::execTierName(ir::ExecTier::Auto), "auto");

    const ir::Module module = parse(R"(module "count"
func @inc(i64 %x) -> i64 {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
)");
    ir::ExecutableModule exec(module, ir::ExecTier::Auto);
    const std::uint64_t before = exec.executedInstructions();
    exec.call("inc", {RtValue::ofInt(1)});
    EXPECT_GT(exec.executedInstructions(), before);
}

/**
 * Docs lockstep (the pattern from tests/fuzz_corpus_test.cpp): every
 * opcode mnemonic and every superinstruction must appear backticked
 * in docs/INTERPRETER.md, so the ISA tables there cannot rot.
 */
TEST(InterpreterDocs, EveryMnemonicIsDocumented)
{
    std::ifstream in(std::string(STATS_SOURCE_DIR) +
                     "/docs/INTERPRETER.md");
    ASSERT_TRUE(in.is_open()) << "docs/INTERPRETER.md is missing";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string docs = buffer.str();

    for (std::size_t k = 0; k < ir::bc::opcodeCount(); ++k) {
        const auto op = static_cast<ir::bc::BcOp>(k);
        const std::string needle =
            std::string("`") + ir::bc::opcodeMnemonic(op) + "`";
        EXPECT_NE(docs.find(needle), std::string::npos)
            << "docs/INTERPRETER.md does not document opcode "
            << ir::bc::opcodeMnemonic(op);
    }
    // The tier vocabulary is part of the contract too.
    for (const char *tier : {"`ast`", "`bytecode`", "`auto`"}) {
        EXPECT_NE(docs.find(tier), std::string::npos)
            << "docs/INTERPRETER.md does not document tier " << tier;
    }
}

} // namespace
