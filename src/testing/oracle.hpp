/**
 * @file
 * The nondeterminism-aware sequential-vs-speculative differential
 * oracle (paper section 3.1's correctness claim, made executable).
 *
 * For a valid case the oracle drives the whole pipeline —
 * verify → middle-end → analysis → back-end instantiation — and then
 * executes the instantiated state dependence three ways:
 *
 *  1. **Sequentially, N times**, sampling the program's modeled
 *     nondeterminism, to collect legal final-state fingerprints and
 *     self-check that interpretation is deterministic.
 *  2. **Speculatively** on the engine (simulated executor, so
 *     verdicts are reproducible).
 *  3. **Speculatively under the case's FaultPlan storm**, if any.
 *
 * The acceptance criterion is *exact*, not sampled: the modeled
 * nondeterminism is a pure hash (scenario seed, input position,
 * attempt number), so the set of states a legal sequential execution
 * can reach after any prefix is enumerable. A speculative run passes
 * iff its committed per-input observed states form a chain where
 * every transition is one of the ≤ maxReexecutions+2 legal
 * transitions of its position — i.e. the committed history *is* some
 * legal nondeterministic sequential execution. (With the
 * valid-by-construction matcher the chain requirement is waived by
 * design; ordering and completeness are still enforced.)
 *
 * Near-miss cases short-circuit: the oracle asserts the expected
 * stage (verifier or analyzer) rejects the module.
 */

#pragma once

#include <string>
#include <vector>

#include "ir/exec_tier.hpp"
#include "sdi/spec_config.hpp"
#include "testing/fuzz_case.hpp"

namespace stats::replay {
class ReplaySession;
}

namespace stats::testing {

struct OracleOptions
{
    /** Run the full speculation-safety analysis on the midend IR. */
    bool runAnalysis = true;

    /**
     * Execution tier for every interpreted transition (sequential
     * sampling, engine bodies, chain re-derivation). The tier is an
     * implementation detail of `getValue()` execution, so oracle
     * verdicts must not depend on it — tests/tier_differential_test
     * holds the pipeline to that.
     */
    ir::ExecTier execTier = ir::ExecTier::Auto;

    /** Simulated threads for the engine runs. */
    int simThreads = 16;

    /** Honor the scenario's fault plan with a second engine run. */
    bool faultRun = true;

    /** Record/replay session of both engine runs (nullptr = off). */
    replay::ReplaySession *session = nullptr;
};

struct OracleResult
{
    bool ok = true;

    /** Near-miss case was rejected where expected. */
    bool rejected = false;

    /** Pipeline stage reached (or failed): "verify", "midend",
     *  "analysis", "backend", "sequential", "speculative",
     *  "faulted". */
    std::string stage;

    /** Stable failure kind ("" when ok), e.g. "chain-violation". */
    std::string failKind;

    /** Human-readable failure details. */
    std::string detail;

    /** Distinct final states seen across the sequential samples. */
    std::vector<long long> sequentialFinals;

    sdi::EngineStats cleanStats;
    sdi::EngineStats faultStats;
    bool faulted = false; ///< The fault-storm run executed.
};

/** Run the full differential oracle over one case. */
OracleResult runOracle(const FuzzCase &fuzz_case,
                       const OracleOptions &options = {});

/** Number of legal transition variants per input position. */
int legalAttempts(const Scenario &scenario);

/**
 * The modeled per-invocation nondeterminism: additive noise as a pure
 * hash of (seed, position, attempt). Zero outside the scenario's
 * noisyPercent slice.
 */
long long noiseFor(std::uint64_t seed, int position, int attempt,
                   int noisy_percent, int max_noise);

/** Confine a state to the harness's state domain [0, 2^20). */
long long wrapState(long long value);

} // namespace stats::testing
