/**
 * @file
 * Tests of the deterministic record/replay + fault-injection
 * subsystem (src/replay/, docs/REPLAY.md).
 *
 * Covers the binary log codec, the SeedSequence / nested seed-pinning
 * support, the fault-plan grammar and its order-independent decision
 * hashes, and — through the same toy state dependence the engine
 * tests use — the full record → replay → divergence-detection loop on
 * the speculation engine, including fault composition and the
 * EngineStats/Trace reconciliation of a forced abort.
 */

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sim_executor.hpp"
#include "exec/thread_executor.hpp"
#include "observability/trace.hpp"
#include "replay/fault_plan.hpp"
#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "sdi/spec_engine.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace stats;
using sdi::SpecConfig;

// =====================================================================
// RecordLog serialization
// =====================================================================

replay::RecordLog
sampleLog()
{
    replay::RecordLog log;
    log.rootSeed = 1234;
    log.setMeta("benchmark", "swaptions");
    log.setMeta("mode", "par");

    replay::Record begin;
    begin.kind = replay::RecordKind::RunBegin;
    begin.payload = replay::encodeConfig(
        {1, 4, 4, 2, 1, 8, 1, 1088});
    log.records.push_back(begin);

    replay::Record verdict;
    verdict.kind = replay::RecordKind::MatchVerdict;
    verdict.epoch = 1;
    verdict.group = 1;
    verdict.a = -1;
    log.records.push_back(verdict);

    replay::Record end;
    end.kind = replay::RecordKind::RunEnd;
    end.epoch = 2;
    end.payload = replay::encodeStats({4, 1, 1, 0, 0, 20});
    log.records.push_back(end);
    return log;
}

TEST(RecordLog, SaveLoadRoundTrip)
{
    const replay::RecordLog log = sampleLog();
    const std::string bytes = log.saveToString();

    std::istringstream in(bytes);
    std::string error;
    const auto loaded = replay::RecordLog::load(in, error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->rootSeed, log.rootSeed);
    EXPECT_EQ(loaded->metadata, log.metadata);
    ASSERT_EQ(loaded->records.size(), log.records.size());
    for (std::size_t i = 0; i < log.records.size(); ++i)
        EXPECT_EQ(loaded->records[i], log.records[i]) << "record " << i;
    EXPECT_EQ(loaded->runCount(), 1u);
    EXPECT_EQ(loaded->meta("benchmark", ""), "swaptions");
    EXPECT_EQ(loaded->meta("absent", "fallback"), "fallback");

    // Decoders recover the fingerprints.
    const auto config =
        replay::decodeConfig(loaded->records[0].payload);
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->groupSize, 4);
    EXPECT_EQ(config->inputCount, 1088);
    const auto stats = replay::decodeStats(loaded->records[2].payload);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->validations, 4);
}

TEST(RecordLog, SerializationIsDeterministic)
{
    EXPECT_EQ(sampleLog().saveToString(), sampleLog().saveToString());
}

TEST(RecordLog, RejectsCorruptInputs)
{
    const std::string good = sampleLog().saveToString();
    std::string error;

    const auto tryLoad = [&](const std::string &bytes) {
        std::istringstream in(bytes);
        return replay::RecordLog::load(in, error);
    };

    EXPECT_FALSE(tryLoad("not a log at all").has_value());
    EXPECT_NE(error.find("magic"), std::string::npos);

    EXPECT_FALSE(tryLoad(good.substr(0, good.size() / 2)).has_value());

    std::string versioned = good;
    versioned[4] = 99; // Schema version byte follows the magic.
    EXPECT_FALSE(tryLoad(versioned).has_value());
    EXPECT_NE(error.find("version"), std::string::npos);

    EXPECT_FALSE(tryLoad(good + "junk").has_value());
    EXPECT_NE(error.find("trailer"), std::string::npos);

    const auto ok = tryLoad(good);
    EXPECT_TRUE(ok.has_value());
}

TEST(RecordLog, HugeDeclaredRecordCountFailsCleanly)
{
    // Regression: a 13-byte log (magic, version, seed, no metadata)
    // declaring 2^40 records made load() reserve that many and throw
    // std::bad_alloc; 2^62 threw std::length_error. A count the
    // remaining bytes cannot hold is now a clean rejection.
    for (const std::uint64_t declared :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
        std::string bytes = "STRL";
        support::putVarint(bytes, replay::kLogSchemaVersion);
        support::putVarint(bytes, 0); // root seed
        support::putVarint(bytes, 0); // metadata entries
        support::putVarint(bytes, declared);
        std::istringstream in(bytes);
        std::string error;
        EXPECT_FALSE(replay::RecordLog::load(in, error).has_value())
            << declared;
        EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    }
}

TEST(RecordLog, ReplaceMetaInBytesMatchesADecodedEdit)
{
    const std::string good = sampleLog().saveToString();
    const std::pair<std::string, std::string> edits[] = {
        {"mode", "par"},                 // Same value: untouched.
        {"mode", "seq"},                 // Same length.
        {"benchmark", ""},               // Shorter.
        {"mode", std::string(200, 'x')}, // Longer length varint.
    };
    std::string error;
    for (const auto &[key, value] : edits) {
        replay::RecordLog decoded = sampleLog();
        decoded.setMeta(key, value);
        std::string bytes = good;
        ASSERT_TRUE(replay::RecordLog::replaceMetaInBytes(bytes, key,
                                                          value, error))
            << error;
        EXPECT_EQ(bytes, decoded.saveToString()) << key;
    }

    std::string bytes = good;
    EXPECT_FALSE(
        replay::RecordLog::replaceMetaInBytes(bytes, "tenant", "b", error));
    EXPECT_NE(error.find("no metadata entry"), std::string::npos);
    EXPECT_EQ(bytes, good);
    std::string garbage = "not a log at all";
    EXPECT_FALSE(
        replay::RecordLog::replaceMetaInBytes(garbage, "k", "v", error));
    EXPECT_NE(error.find("magic"), std::string::npos);
    std::string truncated = good.substr(0, 8);
    EXPECT_FALSE(replay::RecordLog::replaceMetaInBytes(truncated, "k",
                                                       "v", error));
    EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(RecordLog, EveryRecordKindHasAName)
{
    for (int k = 0; k < replay::kRecordKindCount; ++k) {
        const char *name =
            replay::recordKindName(static_cast<replay::RecordKind>(k));
        EXPECT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

// =====================================================================
// SeedSequence
// =====================================================================

TEST(SeedSequence, DerivationIsDeterministicAndStreamSeparated)
{
    const support::SeedSequence a(42);
    const support::SeedSequence b(42);
    EXPECT_EQ(a.derive("workload"), b.derive("workload"));
    EXPECT_EQ(a.derive("run", 3), b.derive("run", 3));

    // Distinct streams, indices, and roots give distinct seeds.
    EXPECT_NE(a.derive("workload"), a.derive("run"));
    EXPECT_NE(a.derive("run", 0), a.derive("run", 1));
    EXPECT_NE(a.derive("workload"),
              support::SeedSequence(43).derive("workload"));

    // Order independence: deriving is pure, not stateful.
    const std::uint64_t first = a.derive("x");
    (void)a.derive("y");
    (void)a.derive("z", 7);
    EXPECT_EQ(a.derive("x"), first);
}

TEST(SeedSequence, ChildSequencesAreIndependent)
{
    const support::SeedSequence root(7);
    const support::SeedSequence tuner = root.child("tuner");
    EXPECT_EQ(tuner.root(), root.derive("tuner"));
    EXPECT_NE(tuner.derive("bandit"), root.derive("bandit"));
    // Reconstructible from the same path.
    EXPECT_EQ(root.child("tuner").derive("bandit"),
              tuner.derive("bandit"));
}

TEST(ScopedDeterministicSeeds, ScopesNest)
{
    // Inner scopes pin, and leaving them restores the outer pin
    // including its counter position — what lets a per-run pin
    // compose with record mode's process-wide pin.
    const support::ScopedDeterministicSeeds outer(100);
    const std::uint64_t a = support::entropySeed();
    {
        const support::ScopedDeterministicSeeds inner(200);
        const std::uint64_t inner_first = support::entropySeed();
        {
            const support::ScopedDeterministicSeeds again(200);
            EXPECT_EQ(support::entropySeed(), inner_first);
        }
    }
    const std::uint64_t b = support::entropySeed();
    EXPECT_NE(a, b); // The outer counter kept advancing.

    // The whole outer sequence is reproducible.
    std::uint64_t replayed_a, replayed_b;
    {
        const support::ScopedDeterministicSeeds outer2(100);
        replayed_a = support::entropySeed();
        {
            const support::ScopedDeterministicSeeds inner2(200);
            (void)support::entropySeed();
            {
                const support::ScopedDeterministicSeeds again2(200);
                (void)support::entropySeed();
            }
        }
        replayed_b = support::entropySeed();
    }
    EXPECT_EQ(a, replayed_a);
    EXPECT_EQ(b, replayed_b);
}

// =====================================================================
// FaultPlan
// =====================================================================

TEST(FaultPlan, ParsesTheFullGrammar)
{
    std::string error;
    const auto plan = replay::FaultPlan::parse(
        "seed=9; mismatch@g3, mismatch@g7; storm=0.25; corrupt@g2; "
        "corrupt=0.5; stall=150us; stallp=0.75; mistrain=0.1",
        error);
    ASSERT_TRUE(plan.has_value()) << error;
    EXPECT_EQ(plan->seed, 9u);
    EXPECT_EQ(plan->mismatchGroups,
              (std::vector<std::int64_t>{3, 7}));
    EXPECT_DOUBLE_EQ(plan->stormProbability, 0.25);
    EXPECT_EQ(plan->corruptGroups, (std::vector<std::int64_t>{2}));
    EXPECT_DOUBLE_EQ(plan->corruptProbability, 0.5);
    EXPECT_DOUBLE_EQ(plan->stallMicros, 150.0);
    EXPECT_DOUBLE_EQ(plan->stallProbability, 0.75);
    EXPECT_DOUBLE_EQ(plan->mistrainAmplitude, 0.1);
    EXPECT_TRUE(plan->active());

    // describe() round-trips through parse().
    const auto reparsed =
        replay::FaultPlan::parse(plan->describe(), error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(reparsed->describe(), plan->describe());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    std::string error;
    EXPECT_FALSE(replay::FaultPlan::parse("bogus=1", error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    EXPECT_FALSE(replay::FaultPlan::parse("storm=1.5", error));
    EXPECT_FALSE(replay::FaultPlan::parse("mismatch@x3", error));
    EXPECT_FALSE(replay::FaultPlan::parse("mismatch", error));
    EXPECT_FALSE(replay::FaultPlan::parse("stall=-2", error));
    EXPECT_FALSE(replay::FaultPlan::fromSpec("storm=nope", error));
}

TEST(FaultPlan, DefaultPlanIsInert)
{
    const replay::FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.forcesMismatch(0, 0));
    EXPECT_FALSE(plan.corruptsSpecState(0, 0));
    EXPECT_DOUBLE_EQ(plan.stallSeconds(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(plan.mistrainFactor(0), 1.0);
}

TEST(FaultPlan, DecisionsAreOrderIndependentHashes)
{
    std::string error;
    const auto plan =
        replay::FaultPlan::parse("storm=0.5; seed=11", error);
    ASSERT_TRUE(plan.has_value()) << error;

    // Same coordinates always answer the same, no matter how many
    // other questions were asked in between.
    const bool first = plan->forcesMismatch(2, 17);
    for (int i = 0; i < 100; ++i)
        (void)plan->forcesMismatch(i, i);
    EXPECT_EQ(plan->forcesMismatch(2, 17), first);

    // A storm at p=0.5 actually injects (and spares) some sites.
    int hits = 0;
    for (int g = 0; g < 200; ++g)
        hits += plan->forcesMismatch(0, g) ? 1 : 0;
    EXPECT_GT(hits, 50);
    EXPECT_LT(hits, 150);

    // A different seed picks different sites.
    const auto other =
        replay::FaultPlan::parse("storm=0.5; seed=12", error);
    ASSERT_TRUE(other.has_value());
    int diffs = 0;
    for (int g = 0; g < 200; ++g) {
        if (plan->forcesMismatch(0, g) != other->forcesMismatch(0, g))
            ++diffs;
    }
    EXPECT_GT(diffs, 0);

    // Mistrain factors stay within the amplitude band.
    const auto mistrain =
        replay::FaultPlan::parse("mistrain=0.2", error);
    ASSERT_TRUE(mistrain.has_value());
    for (std::uint64_t i = 0; i < 100; ++i) {
        const double factor = mistrain->mistrainFactor(i);
        EXPECT_GE(factor, 0.8);
        EXPECT_LE(factor, 1.2);
        EXPECT_DOUBLE_EQ(factor, mistrain->mistrainFactor(i));
    }
}

// =====================================================================
// Toy engine harness (same semantics as spec_engine_test.cpp)
// =====================================================================

struct ToyState
{
    long long v = 0;
    bool operator==(const ToyState &other) const { return v == other.v; }
};

struct ToyOutput
{
    long long observedPriorState;
    int input;
};

using Engine = sdi::SpecEngine<int, ToyState, ToyOutput>;

/** The toy dependence: state = 10 * input, deterministic. */
Engine::ComputeFn
makeCompute()
{
    return [](const int &input, ToyState &state,
              const sdi::ComputeContext &) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        state.v = static_cast<long long>(input) * 10;
        return {std::move(out), exec::Work{0.001, 0.0}};
    };
}

Engine::MatchFn
exactAnyMatcher()
{
    return [](const ToyState &spec,
              const std::vector<ToyState> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i) {
            if (originals[i] == spec)
                return static_cast<int>(i);
        }
        return -1;
    };
}

std::vector<int>
makeInputs(int n)
{
    std::vector<int> inputs;
    for (int i = 1; i <= n; ++i)
        inputs.push_back(i);
    return inputs;
}

sim::MachineConfig
simMachine()
{
    sim::MachineConfig config;
    config.dispatchOverhead = 0.0;
    return config;
}

SpecConfig
toyConfig()
{
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.sdThreads = 8;
    config.maxReexecutions = 1;
    return config;
}

/**
 * Fixture owning the session the toy runs record into, replay from,
 * or take faults from.
 */
class ReplaySessionTest : public ::testing::Test
{
  protected:
    /** Run the toy engine once on `ex` under the fixture's session;
     *  return its stats. */
    sdi::EngineStats
    runToyEngine(exec::Executor &ex, const std::vector<int> &inputs,
                 std::vector<long long> *outputs = nullptr,
                 replay::ReplaySession *run_session = nullptr)
    {
        ex.replaySession = run_session != nullptr ? run_session : &session;
        Engine engine(ex, inputs, ToyState{}, makeCompute(),
                      makeCompute(), exactAnyMatcher(),
                      toyConfig());
        engine.start();
        engine.join();
        if (outputs) {
            outputs->clear();
            for (const auto &out : engine.outputs())
                outputs->push_back(out->observedPriorState);
        }
        return engine.stats();
    }

    /** The same, on the simulator. */
    sdi::EngineStats
    runToyEngine(const std::vector<int> &inputs,
                 std::vector<long long> *outputs = nullptr)
    {
        exec::SimExecutor ex(simMachine(), 8);
        return runToyEngine(ex, inputs, outputs);
    }

    /** Record one toy-engine run and return its log. */
    replay::RecordLog
    recordToyRun(const std::vector<int> &inputs,
                 std::vector<long long> *outputs = nullptr)
    {
        session.startRecording(/* root seed */ 77);
        (void)runToyEngine(inputs, outputs);
        return session.finishRecording();
    }

    replay::ReplaySession session;
};

// =====================================================================
// Record → replay on the engine
// =====================================================================

TEST_F(ReplaySessionTest, RecordCapturesTheChoicePointSequence)
{
    const replay::RecordLog log = recordToyRun(makeInputs(20));

    EXPECT_EQ(log.rootSeed, 77u);
    EXPECT_EQ(log.runCount(), 1u);
    ASSERT_GE(log.records.size(), 2u);
    EXPECT_EQ(log.records.front().kind, replay::RecordKind::RunBegin);
    EXPECT_EQ(log.records.back().kind, replay::RecordKind::RunEnd);

    // 5 groups: 4 validations (all match) and 5 commits.
    int verdicts = 0, commits = 0;
    for (const auto &record : log.records) {
        verdicts +=
            record.kind == replay::RecordKind::MatchVerdict ? 1 : 0;
        commits += record.kind == replay::RecordKind::Commit ? 1 : 0;
    }
    EXPECT_EQ(verdicts, 4);
    EXPECT_EQ(commits, 5);

    // Epochs are the dense per-run record ordinals.
    for (std::size_t i = 0; i < log.records.size(); ++i)
        EXPECT_EQ(log.records[i].epoch, i) << "record " << i;
}

TEST_F(ReplaySessionTest, CleanReplayMatchesEverything)
{
    std::vector<long long> recorded_outputs;
    const replay::RecordLog log =
        recordToyRun(makeInputs(20), &recorded_outputs);
    const std::size_t total = log.records.size();

    std::vector<long long> replayed_outputs;
    session.startReplay(log);
    (void)runToyEngine(makeInputs(20), &replayed_outputs);
    const replay::ReplayReport report = session.finishReplay();

    EXPECT_FALSE(report.diverged) << report.first.describe();
    EXPECT_EQ(report.recordsMatched, total);
    EXPECT_EQ(report.runsReplayed, 1u);
    EXPECT_EQ(replayed_outputs, recorded_outputs);
}

TEST_F(ReplaySessionTest, InProcessDoubleRecordIsByteIdentical)
{
    const replay::RecordLog a = recordToyRun(makeInputs(24));
    const replay::RecordLog b = recordToyRun(makeInputs(24));
    EXPECT_EQ(a.saveToString(), b.saveToString());
}

TEST_F(ReplaySessionTest, FlippedVerdictIsReportedAsValueDivergence)
{
    replay::RecordLog log = recordToyRun(makeInputs(20));

    // Seed a bad log: flip the first MatchVerdict from "matched 0" to
    // "mismatch". The replayed engine computes 0, the log says -1.
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < log.records.size(); ++i) {
        if (log.records[i].kind == replay::RecordKind::MatchVerdict) {
            log.records[i].a = -1;
            flipped = i;
            break;
        }
    }
    ASSERT_GT(flipped, 0u);

    session.startReplay(log);
    (void)runToyEngine(makeInputs(20));
    const replay::ReplayReport report = session.finishReplay();

    ASSERT_TRUE(report.diverged);
    EXPECT_EQ(report.first.epoch, flipped);
    EXPECT_EQ(report.first.expectedKind,
              replay::RecordKind::MatchVerdict);
    EXPECT_EQ(report.first.actualKind,
              replay::RecordKind::MatchVerdict);
    EXPECT_EQ(report.first.expectedValue, -1);
    EXPECT_EQ(report.first.actualValue, 0);
    // The report's one-liner names the epoch and both values.
    const std::string what = report.first.describe();
    EXPECT_NE(what.find("MatchVerdict"), std::string::npos);
    EXPECT_NE(what.find("-1"), std::string::npos);
}

TEST_F(ReplaySessionTest, ForcedVerdictKeepsReplayOnTheRecordedPath)
{
    // Record WITH a fault that aborts speculation; replay the log
    // without the plan. The verdict diverges (computed 0, logged -1)
    // but replay forces the logged value, so the replayed engine
    // still aborts exactly like the recording did.
    std::string error;
    const auto plan =
        replay::FaultPlan::parse("mismatch@g2", error);
    ASSERT_TRUE(plan.has_value()) << error;

    session.setFaultPlan(*plan);
    session.startRecording(77);
    const sdi::EngineStats faulted = runToyEngine(makeInputs(20));
    replay::RecordLog log = session.finishRecording();
    session.setFaultPlan(replay::FaultPlan{});

    EXPECT_EQ(faulted.aborts, 1);

    session.startReplay(log);
    const sdi::EngineStats replayed = runToyEngine(makeInputs(20));
    const replay::ReplayReport report = session.finishReplay();

    EXPECT_TRUE(report.diverged); // The fault isn't there anymore...
    EXPECT_EQ(replayed.aborts, faulted.aborts); // ...but it's forced.
    EXPECT_EQ(replayed.mismatches, faulted.mismatches);
    EXPECT_EQ(replayed.squashedGroups, faulted.squashedGroups);
}

TEST_F(ReplaySessionTest, StructuralDivergenceStopsConsumingTheLog)
{
    replay::RecordLog log = recordToyRun(makeInputs(20));

    // Seed a bad log: change the first Commit's group, a structural
    // skew (the engine commits group 0 first, always).
    for (auto &record : log.records) {
        if (record.kind == replay::RecordKind::Commit) {
            record.group = 3;
            break;
        }
    }

    session.startReplay(log);
    (void)runToyEngine(makeInputs(20));
    const replay::ReplayReport report = session.finishReplay();

    ASSERT_TRUE(report.diverged);
    EXPECT_EQ(report.first.expectedKind, replay::RecordKind::Commit);
    EXPECT_EQ(report.first.expectedGroup, 3);
    EXPECT_EQ(report.first.actualGroup, 0);
}

TEST_F(ReplaySessionTest, TruncatedLogDivergesWhenRecordsRemain)
{
    // Replaying a 24-input log against a 20-input run: the log
    // expects more records than the execution produces.
    const replay::RecordLog log = recordToyRun(makeInputs(24));
    session.startReplay(log);
    (void)runToyEngine(makeInputs(20));
    const replay::ReplayReport report = session.finishReplay();
    EXPECT_TRUE(report.diverged);
}

TEST_F(ReplaySessionTest, FaultedRecordingReplaysExactlyUnderSamePlan)
{
    std::string error;
    const auto plan = replay::FaultPlan::parse(
        "mismatch@g2; corrupt@g4; seed=5", error);
    ASSERT_TRUE(plan.has_value()) << error;

    session.setFaultPlan(*plan);
    session.startRecording(77);
    const sdi::EngineStats recorded = runToyEngine(makeInputs(32));
    replay::RecordLog log = session.finishRecording();
    const std::size_t total = log.records.size();

    // FaultInjected annotations made it into the log.
    int injected = 0;
    for (const auto &record : log.records) {
        injected +=
            record.kind == replay::RecordKind::FaultInjected ? 1 : 0;
    }
    EXPECT_GT(injected, 0);

    // Same plan still installed: replay reproduces every record.
    session.startReplay(std::move(log));
    const sdi::EngineStats replayed = runToyEngine(makeInputs(32));
    const replay::ReplayReport report = session.finishReplay();

    EXPECT_FALSE(report.diverged) << report.first.describe();
    EXPECT_EQ(report.recordsMatched, total);
    EXPECT_EQ(replayed.aborts, recorded.aborts);
    EXPECT_EQ(replayed.mismatches, recorded.mismatches);
}

TEST_F(ReplaySessionTest, CorruptStateFaultForcesMismatch)
{
    std::string error;
    const auto plan = replay::FaultPlan::parse("corrupt@g1", error);
    ASSERT_TRUE(plan.has_value()) << error;

    session.setFaultPlan(*plan);
    const sdi::EngineStats stats = runToyEngine(makeInputs(20));

    // The stale state cannot match any original final, so group 1's
    // validation mismatches and the producer re-executes.
    EXPECT_GE(stats.mismatches, 1);
    EXPECT_EQ(session.faultCount(replay::FaultKind::CorruptState), 1u);
}

// =====================================================================
// Forced-abort reconciliation: EngineStats vs Trace events
// =====================================================================

TEST_F(ReplaySessionTest, EngineStatsReconcileWithTraceAcrossAbort)
{
    if (!STATS_OBS_ENABLED)
        GTEST_SKIP() << "tracing compiled out (STATS_OBS_DISABLE)";
    std::string error;
    // maxReexecutions = 1, so two forced mismatches of group 2 abort.
    const auto plan = replay::FaultPlan::parse("mismatch@g2", error);
    ASSERT_TRUE(plan.has_value()) << error;
    session.setFaultPlan(*plan);

    obs::Trace::global().enable();
    const sdi::EngineStats stats = runToyEngine(makeInputs(32));
    const auto events = obs::Trace::global().collect();
    obs::Trace::global().disable();

    ASSERT_EQ(stats.aborts, 1);

    std::map<obs::EventType, int> counts;
    for (const auto &event : events)
        ++counts[event.type];

    // Every stats counter the abort path touches has its event-stream
    // counterpart.
    EXPECT_EQ(counts[obs::EventType::Abort], stats.aborts);
    EXPECT_EQ(counts[obs::EventType::Squash],
              static_cast<int>(stats.squashedGroups));
    EXPECT_EQ(counts[obs::EventType::ValidateMismatch],
              static_cast<int>(stats.mismatches));
    EXPECT_EQ(counts[obs::EventType::Rollback],
              static_cast<int>(stats.reexecutions));
    EXPECT_EQ(counts[obs::EventType::Commit] +
                  static_cast<int>(stats.squashedGroups),
              static_cast<int>(stats.groups));
    // The injections that caused it all are visible in the trace.
    EXPECT_EQ(counts[obs::EventType::FaultInjected],
              static_cast<int>(stats.mismatches));
    EXPECT_EQ(counts[obs::EventType::ReplayDivergence], 0);
}

// =====================================================================
// Sessions on the real thread pool
// =====================================================================

std::map<replay::RecordKind, int>
kindCounts(const replay::RecordLog &log)
{
    std::map<replay::RecordKind, int> counts;
    for (const auto &record : log.records)
        ++counts[record.kind];
    return counts;
}

TEST_F(ReplaySessionTest, ThreadExecutorRecordsEveryChoicePoint)
{
    // The completion callbacks that validate and commit run on pool
    // workers, not on the thread that started the engine; the
    // recording must still hold every record the simulator's does.
    const replay::RecordLog simulated = recordToyRun(makeInputs(24));
    ASSERT_EQ(simulated.records.size(), 13u);

    exec::ThreadExecutor ex(4);
    session.startRecording(77);
    (void)runToyEngine(ex, makeInputs(24));
    const replay::RecordLog threaded = session.finishRecording();
    EXPECT_EQ(kindCounts(threaded), kindCounts(simulated));
}

TEST_F(ReplaySessionTest, StalledWorkersDelayButDoNotCorrupt)
{
    std::string error;
    const auto plan =
        replay::FaultPlan::parse("stall=200us; stallp=0.5", error);
    ASSERT_TRUE(plan.has_value()) << error;
    session.setFaultPlan(*plan);

    const auto inputs = makeInputs(24);
    exec::ThreadExecutor ex(4);
    std::vector<long long> outputs;
    (void)runToyEngine(ex, inputs, &outputs);

    // Outputs stay correct under the induced timing chaos...
    ASSERT_EQ(outputs.size(), inputs.size());
    long long prior = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(outputs[i], prior);
        prior = static_cast<long long>(inputs[i]) * 10;
    }
    // ...and some tasks really were stalled (p=0.5 over ~11 tasks).
    EXPECT_GT(session.faultCount(replay::FaultKind::StalledWorker), 0u);
}

TEST_F(ReplaySessionTest, StallFaultsFollowTheExecutorsSession)
{
    // Two runs share the pool's workers at once; the executor given
    // the stalling session stalls every tagged task of its run (5 aux
    // + 6 body tasks), whichever worker runs it.
    std::string error;
    const auto plan = replay::FaultPlan::parse("stall=100us", error);
    ASSERT_TRUE(plan.has_value()) << error;
    replay::ReplaySession stalling;
    stalling.setFaultPlan(*plan);

    threading::ThreadPool &pool = threading::ThreadPool::shared(4);
    std::thread other([&] {
        exec::ThreadExecutor ex(pool);
        (void)runToyEngine(ex, makeInputs(24), nullptr, &stalling);
    });
    exec::ThreadExecutor ex(pool);
    (void)runToyEngine(ex, makeInputs(24));
    other.join();

    EXPECT_EQ(stalling.faultCount(replay::FaultKind::StalledWorker),
              11u);
}

TEST_F(ReplaySessionTest, ConcurrentRecordingsOnASharedPoolStayApart)
{
    // Two threads record different toy runs at once on the shared
    // pool, each into its own session: each log holds exactly its own
    // run's records.
    const replay::RecordLog solo_short = recordToyRun(makeInputs(20));
    const replay::RecordLog solo_long = recordToyRun(makeInputs(36));
    ASSERT_NE(kindCounts(solo_short), kindCounts(solo_long));

    threading::ThreadPool &pool = threading::ThreadPool::shared(4);
    for (int round = 0; round < 4; ++round) {
        replay::ReplaySession short_session;
        replay::ReplaySession long_session;
        short_session.startRecording(77);
        long_session.startRecording(77);
        std::thread other([&] {
            exec::ThreadExecutor ex(pool);
            (void)runToyEngine(ex, makeInputs(36), nullptr,
                               &long_session);
        });
        exec::ThreadExecutor ex(pool);
        (void)runToyEngine(ex, makeInputs(20), nullptr, &short_session);
        other.join();
        const replay::RecordLog short_log =
            short_session.finishRecording();
        const replay::RecordLog long_log = long_session.finishRecording();

        EXPECT_EQ(kindCounts(short_log), kindCounts(solo_short))
            << "round " << round;
        EXPECT_EQ(kindCounts(long_log), kindCounts(solo_long))
            << "round " << round;
        // RunBegin fingerprints the run's own configuration.
        ASSERT_FALSE(short_log.records.empty());
        ASSERT_FALSE(long_log.records.empty());
        EXPECT_EQ(short_log.records.front().payload,
                  solo_short.records.front().payload);
        EXPECT_EQ(long_log.records.front().payload,
                  solo_long.records.front().payload);
    }
}

// =====================================================================
// Mistrain faults
// =====================================================================

TEST_F(ReplaySessionTest, MistrainPerturbsObjectivesDeterministically)
{
    EXPECT_DOUBLE_EQ(session.mistrainObjective(10.0), 10.0);

    std::string error;
    const auto plan =
        replay::FaultPlan::parse("mistrain=0.5; seed=3", error);
    ASSERT_TRUE(plan.has_value()) << error;
    session.setFaultPlan(*plan);

    bool perturbed = false;
    for (int i = 0; i < 8; ++i) {
        const double value = session.mistrainObjective(10.0);
        EXPECT_GE(value, 5.0);
        EXPECT_LE(value, 15.0);
        perturbed = perturbed || value != 10.0;
    }
    EXPECT_TRUE(perturbed);
    EXPECT_EQ(session.faultCount(replay::FaultKind::Mistrain), 8u);
}

// =====================================================================
// Documentation lockstep (docs/REPLAY.md)
// =====================================================================

std::string
readRepoFile(const std::string &relative)
{
    const std::string path =
        std::string(STATS_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * Byte-exact golden of a faulted, seeded toy run with metadata
 * (tests/golden/replay_log.strl): every record kind appears, so the
 * file pins the whole log format against codec changes. Regenerate
 * only together with a kLogSchemaVersion bump.
 */
TEST_F(ReplaySessionTest, FaultedRecordingMatchesTheGoldenLog)
{
    std::string error;
    const auto plan = replay::FaultPlan::parse(
        "mismatch@g2; corrupt@g4; seed=5", error);
    ASSERT_TRUE(plan.has_value()) << error;
    session.setFaultPlan(*plan);
    session.startRecording(77);
    session.setMetadata("benchmark", "toy");
    session.setMetadata("mode", "par");
    (void)runToyEngine(makeInputs(32));
    const replay::RecordLog log = session.finishRecording();

    std::set<replay::RecordKind> kinds;
    for (const auto &record : log.records)
        kinds.insert(record.kind);
    EXPECT_EQ(kinds.size(), std::size_t(replay::kRecordKindCount));
    EXPECT_EQ(log.saveToString(),
              readRepoFile("tests/golden/replay_log.strl"));
}

TEST(ReplayDocs, DocumentationCoversTheSchema)
{
    const std::string doc = readRepoFile("docs/REPLAY.md");
    ASSERT_FALSE(doc.empty());

    // The documented schema version matches the code.
    EXPECT_NE(doc.find("version: **" +
                       std::to_string(replay::kLogSchemaVersion) +
                       "**"),
              std::string::npos)
        << "docs/REPLAY.md does not state log schema version "
        << replay::kLogSchemaVersion;

    // Every record kind and fault kind is documented by name.
    for (int k = 0; k < replay::kRecordKindCount; ++k) {
        const std::string name =
            replay::recordKindName(static_cast<replay::RecordKind>(k));
        EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
            << "docs/REPLAY.md does not document record kind " << name;
    }
    for (int k = 0; k < replay::kFaultKindCount; ++k) {
        const std::string name =
            replay::faultKindName(static_cast<replay::FaultKind>(k));
        EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
            << "docs/REPLAY.md does not document fault kind " << name;
    }

    // The fault-plan grammar keys are documented.
    for (const char *key : {"mismatch@g", "storm=", "corrupt=",
                            "stall=", "stallp=", "mistrain=", "seed="}) {
        EXPECT_NE(doc.find(key), std::string::npos)
            << "docs/REPLAY.md does not document fault clause " << key;
    }
}

} // namespace
