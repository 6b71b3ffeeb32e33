/**
 * @file
 * Tests of the mini-IR: parse/print round trips, the verifier, the
 * interpreter (the LLVM-JIT substitute), and the call graph's
 * bottom-up tradeoff analysis.
 */

#include <gtest/gtest.h>

#include "ir/call_graph.hpp"
#include "ir/interpreter.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace {

using namespace stats::ir;

const char *kToyModule = R"(
module "toy"
tradeoff T_42 kind=const placeholder=@T_42 getValue=@T_42_getValue size=@T_42_size default=@T_42_getDefaultIndex
statedep SD0 compute=@computeOutput

func @T_42() -> i64 {
entry:
  ret i64 5
}

func @T_42_getValue(i64 %i) -> i64 {
entry:
  %v = add i64 %i, 1
  ret i64 %v
}

func @T_42_size() -> i64 {
entry:
  ret i64 10
}

func @T_42_getDefaultIndex() -> i64 {
entry:
  ret i64 4
}

func @helper(f64 %x) -> f64 {
entry:
  %r = call f64 @sqrt %x
  ret f64 %r
}

func @plain(f64 %x) -> f64 {
entry:
  %y = add f64 %x, 0.5
  ret f64 %y
}

func @computeOutput(i64 %input, f64 %state) -> f64 {
entry:
  %iters = call i64 @T_42()
  %f = cast f64 %input
  %h = call f64 @helper %f
  %p = call f64 @plain %h
  %itf = cast f64 %iters
  %r = add f64 %p, %itf
  ret f64 %r
}
)";

TEST(IrParser, ParsesToyModule)
{
    const Module module = parseModule(kToyModule);
    EXPECT_EQ(module.name, "toy");
    EXPECT_EQ(module.functions.size(), 7u);
    ASSERT_EQ(module.tradeoffs.size(), 1u);
    EXPECT_EQ(module.tradeoffs[0].placeholder, "T_42");
    EXPECT_EQ(module.tradeoffs[0].kind, TradeoffKind::Constant);
    ASSERT_EQ(module.stateDeps.size(), 1u);
    EXPECT_EQ(module.stateDeps[0].computeFn, "computeOutput");
    const Function *fn = module.findFunction("computeOutput");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->params.size(), 2u);
    EXPECT_EQ(fn->returnType, Type::F64);
    EXPECT_EQ(fn->instructionCount(), 7u);
}

TEST(IrParser, PrintParseRoundTrip)
{
    const Module module = parseModule(kToyModule);
    const std::string printed = printModule(module);
    const Module reparsed = parseModule(printed);
    EXPECT_EQ(printModule(reparsed), printed);
    EXPECT_EQ(reparsed.functions.size(), module.functions.size());
}

TEST(IrParser, MalformedNumericOperandsFailCleanly)
{
    // Regression: float-looking operands used to call std::stod
    // outside the try/catch, so '.', 'e9999…', etc. escaped as
    // std::invalid_argument / std::out_of_range instead of the
    // parser's own error. tryParseModule is the serving admission
    // path — an untrusted module must never throw past it.
    const char *broken[] = {".", "e", "1e999999", ".e.",
                            "9999999999999999999999999"};
    for (const char *operand : broken) {
        const std::string text =
            std::string("module \"bad\"\n"
                        "func @f(i64 %x) -> i64 {\n"
                        "entry:\n"
                        "  %a = add i64 %x, ") +
            operand + "\n  ret i64 %a\n}\n";
        std::string error;
        EXPECT_FALSE(tryParseModule(text, error).has_value())
            << "operand: " << operand;
        EXPECT_NE(error.find("bad operand"), std::string::npos)
            << "operand: " << operand << " error: " << error;
    }
}

TEST(IrParser, ParsesControlFlowAndPhi)
{
    const char *text = R"(
module "loop"
func @sumTo(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [0, entry], [%i2, loop]
  %acc = phi i64 [0, entry], [%acc2, loop]
  %i2 = add i64 %i, 1
  %acc2 = add i64 %acc, %i2
  %done = cmplt i64 %i2, %n
  br %done, loop, exit
exit:
  ret i64 %acc2
}
)";
    const Module module = parseModule(text);
    EXPECT_TRUE(verifyModule(module).empty());
    Interpreter interp(module);
    EXPECT_EQ(interp.call("sumTo", {RtValue::ofInt(5)}).asInt(), 15);
    // Round trip with phis.
    const Module reparsed = parseModule(printModule(module));
    Interpreter interp2(reparsed);
    EXPECT_EQ(interp2.call("sumTo", {RtValue::ofInt(10)}).asInt(), 55);
}

TEST(IrVerifier, AcceptsToyModule)
{
    const auto problems = verifyModule(parseModule(kToyModule));
    EXPECT_TRUE(problems.empty());
}

TEST(IrVerifier, RejectsMissingTerminator)
{
    Module module = parseModule(kToyModule);
    module.findFunction("plain")->blocks[0].instructions.pop_back();
    const auto problems = verifyModule(module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(IrVerifier, RejectsUndefinedTemp)
{
    Module module = parseModule(kToyModule);
    Instruction bad;
    bad.op = Opcode::Add;
    bad.type = Type::I64;
    bad.result = "z";
    bad.operands = {Operand::temp("nope"), Operand::constInt(1)};
    auto &insts = module.findFunction("plain")->blocks[0].instructions;
    insts.insert(insts.begin(), bad);
    const auto problems = verifyModule(module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("undefined temp"), std::string::npos);
}

TEST(IrVerifier, RejectsUnknownCallee)
{
    Module module = parseModule(kToyModule);
    module.findFunction("helper")
        ->blocks[0]
        .instructions[0]
        .callee = "missing";
    const auto problems = verifyModule(module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("unknown function"), std::string::npos);
}

TEST(IrVerifier, RejectsBadBranchTarget)
{
    const char *text = R"(
module "bad"
func @f() -> void {
entry:
  jmp nowhere
}
)";
    const auto problems = verifyModule(parseModule(text));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("unknown label"), std::string::npos);
}

TEST(IrInterpreter, ArithmeticAndCalls)
{
    const Module module = parseModule(kToyModule);
    Interpreter interp(module);
    // computeOutput(9, _) = plain(sqrt(9)) + 5 = 3.5 + 5 = 8.5.
    const RtValue result = interp.call(
        "computeOutput", {RtValue::ofInt(9), RtValue::ofFloat(0.0)});
    EXPECT_DOUBLE_EQ(result.asFloat(), 8.5);
    EXPECT_GT(interp.executedInstructions(), 0u);
}

TEST(IrInterpreter, SelectAndComparisons)
{
    const char *text = R"(
module "sel"
func @maxOf(i64 %a, i64 %b) -> i64 {
entry:
  %c = cmplt i64 %a, %b
  %m = select i64 %c, %b, %a
  ret i64 %m
}
)";
    const Module module = parseModule(text);
    Interpreter interp(module);
    EXPECT_EQ(interp
                  .call("maxOf",
                        {RtValue::ofInt(3), RtValue::ofInt(7)})
                  .asInt(),
              7);
    EXPECT_EQ(interp
                  .call("maxOf",
                        {RtValue::ofInt(9), RtValue::ofInt(2)})
                  .asInt(),
              9);
}

TEST(IrInterpreter, F32CastLosesPrecision)
{
    const char *text = R"(
module "prec"
func @roundtrip(f64 %x) -> f64 {
entry:
  %n = cast f32 %x
  %w = cast f64 %n
  ret f64 %w
}
)";
    const Module module = parseModule(text);
    Interpreter interp(module);
    const double big = 16777217.0; // 2^24 + 1: not representable in f32.
    const double out =
        interp.call("roundtrip", {RtValue::ofFloat(big)}).asFloat();
    EXPECT_NE(out, big);
    EXPECT_DOUBLE_EQ(out, 16777216.0);
}

TEST(IrInterpreter, StepBudgetStopsRunawayLoops)
{
    const char *text = R"(
module "inf"
func @spin() -> void {
entry:
  jmp entry
}
)";
    const Module module = parseModule(text);
    Interpreter interp(module);
    interp.setStepBudget(1000);
    // A runaway call throws (it used to panic) with the same message.
    for (int attempt = 0; attempt < 2; ++attempt) {
        EXPECT_THROW(
            {
                try {
                    interp.call("spin", {});
                } catch (const StepBudgetExceeded &overrun) {
                    EXPECT_NE(
                        std::string(overrun.what()).find("step budget"),
                        std::string::npos);
                    throw;
                }
            },
            StepBudgetExceeded);
    }
    // Each attempt got a fresh budget: the unwind restored the depth.
    EXPECT_EQ(interp.executedInstructions(), 2000u);
}

TEST(IrInterpreter, Recursion)
{
    const char *text = R"(
module "rec"
func @fib(i64 %n) -> i64 {
entry:
  %base = cmplt i64 %n, 2
  br %base, small, big
small:
  ret i64 %n
big:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %a = call i64 @fib %n1
  %b = call i64 @fib %n2
  %r = add i64 %a, %b
  ret i64 %r
}
)";
    const Module module = parseModule(text);
    Interpreter interp(module);
    EXPECT_EQ(interp.call("fib", {RtValue::ofInt(10)}).asInt(), 55);
}

TEST(CallGraph, EdgesAndReachability)
{
    const Module module = parseModule(kToyModule);
    const CallGraph graph(module);
    EXPECT_TRUE(graph.callees("computeOutput").count("helper"));
    EXPECT_TRUE(graph.callees("computeOutput").count("plain"));
    EXPECT_TRUE(graph.callees("computeOutput").count("T_42"));
    const auto reachable = graph.reachableFrom("computeOutput");
    EXPECT_TRUE(reachable.count("helper"));
    EXPECT_TRUE(reachable.count("computeOutput"));
}

TEST(CallGraph, BottomUpTradeoffAnalysis)
{
    const Module module = parseModule(kToyModule);
    const CallGraph graph(module);
    EXPECT_TRUE(graph.hasDirectTradeoff("computeOutput"));
    EXPECT_FALSE(graph.hasDirectTradeoff("plain"));
    const auto carriers = graph.tradeoffCarriers();
    EXPECT_TRUE(carriers.count("computeOutput"));
    EXPECT_FALSE(carriers.count("plain"));
    EXPECT_FALSE(carriers.count("helper")); // sqrt is a builtin.
}

TEST(CallGraph, TransitiveCarrier)
{
    const char *text = R"(
module "deep"
tradeoff T_1 kind=const placeholder=@T_1 getValue=@T_1 size=@T_1 default=@T_1
func @T_1() -> i64 {
entry:
  ret i64 1
}
func @inner() -> i64 {
entry:
  %v = call i64 @T_1()
  ret i64 %v
}
func @middle() -> i64 {
entry:
  %v = call i64 @inner()
  ret i64 %v
}
func @outer() -> i64 {
entry:
  %v = call i64 @middle()
  ret i64 %v
}
)";
    const CallGraph graph(parseModule(text));
    const auto carriers = graph.tradeoffCarriers();
    EXPECT_TRUE(carriers.count("inner"));
    EXPECT_TRUE(carriers.count("middle"));
    EXPECT_TRUE(carriers.count("outer"));
}


TEST(IrParser, MetadataWithChoicesRoundTrips)
{
    const char *text = R"(
module "meta"
tradeoff T_7 kind=type placeholder=@T_7 getValue=@T_7 size=@T_7 default=@T_7 choices=f64,f32
tradeoff T_8 kind=fn placeholder=@T_8 getValue=@T_8 size=@T_8 default=@T_8 aux=true origin=T_2 choices=a,b,c
statedep SD0 compute=@f aux=@f runtime=true
func @T_7() -> i64 {
entry:
  ret i64 0
}
func @T_8() -> i64 {
entry:
  ret i64 0
}
func @f() -> void {
entry:
  ret
}
)";
    const Module module = parseModule(text);
    ASSERT_EQ(module.tradeoffs.size(), 2u);
    EXPECT_EQ(module.tradeoffs[0].kind, TradeoffKind::DataType);
    ASSERT_EQ(module.tradeoffs[0].nameChoices.size(), 2u);
    EXPECT_EQ(module.tradeoffs[1].kind, TradeoffKind::FunctionChoice);
    EXPECT_TRUE(module.tradeoffs[1].auxClone);
    EXPECT_EQ(module.tradeoffs[1].origin, "T_2");
    EXPECT_TRUE(module.stateDeps[0].runtimeLinked);

    const std::string printed = printModule(module);
    const Module reparsed = parseModule(printed);
    EXPECT_EQ(printModule(reparsed), printed);
    EXPECT_EQ(reparsed.tradeoffs[1].nameChoices,
              module.tradeoffs[1].nameChoices);
}

TEST(IrVerifier, FlagsPhiIncomingPredecessorMismatch)
{
    // A phi's incoming labels must exactly cover the block's CFG
    // predecessors: a missing edge traps at runtime, an extra edge is
    // dead and hides a wiring bug.
    const char *missing = R"(
module "phi_missing"
func @pick(i64 %n) -> i64 {
entry:
  %c = cmplt i64 %n, 10
  br %c, low, high
low:
  jmp join
high:
  jmp join
join:
  %r = phi i64 [1, low]
  ret i64 %r
}
)";
    auto problems = verifyModule(parseModule(missing));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("missing incoming for predecessor "
                               "'high'"),
              std::string::npos);

    const char *extra = R"(
module "phi_extra"
func @pick(i64 %n) -> i64 {
entry:
  jmp join
dead:
  jmp join
join:
  %r = phi i64 [1, entry], [2, dead], [3, join]
  ret i64 %r
}
)";
    problems = verifyModule(parseModule(extra));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("incoming for non-predecessor 'join'"),
              std::string::npos);
}

} // namespace
