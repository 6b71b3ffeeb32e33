/**
 * @file
 * Figure 20: autotuner convergence.
 *
 * "Evaluating 88 configurations (less than 1%) is sufficient to find
 * the best binary ... The autotuner uses nondeterminism for better
 * exploration; different searches for the same program may find
 * different best configurations. The variance in best speedups
 * disappears after exploring 46 configurations."
 */

#include <algorithm>
#include <iostream>

#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

int
main(int argc, char **argv)
{
    benchx::ObsSession obs_session(argc, argv);
    benchx::printHeader(
        "Figure 20",
        "Autotuner convergence: best configuration vs #evaluations",
        "the best binary is found well within ~88 evaluations out of "
        "state spaces of >1e5 points; search variance dies out around "
        "half that");

    const auto machine = benchx::paperMachine();
    constexpr int kThreads = 28;
    constexpr int kBudget = 120;
    constexpr int kSearches = 4; // Independent nondeterministic runs.

    // Average, over benchmarks and search seeds, of the relative
    // performance (best-so-far / final-best) after N evaluations.
    std::vector<std::vector<double>> relative_at(kBudget);
    double total_points = 0.0;
    int space_count = 0;

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        total_points += bench->stateSpace(kThreads).totalPoints();
        ++space_count;
        for (int seed = 1; seed <= kSearches; ++seed) {
            profiler::Profiler profiler(*bench, Mode::ParStats, kThreads,
                                        machine);
            profiler.setReplaySession(obs_session.replay());
            autotuner::Autotuner tuner(
                bench->stateSpace(kThreads),
                static_cast<std::uint64_t>(seed) * 977);
            const auto result = tuner.tune(
                profiler.objectiveFunction(profiler::Objective::Time),
                kBudget);
            const double best = result.bestObjective;
            for (int n = 0; n < kBudget; ++n) {
                const double so_far =
                    result.trace[std::min<std::size_t>(
                        static_cast<std::size_t>(n),
                        result.trace.size() - 1)];
                relative_at[static_cast<std::size_t>(n)].push_back(
                    best / so_far);
            }
        }
    }

    support::TextTable table({"#configurations", "relative speedup %",
                              "stddev %"});
    std::vector<double> curve, spread;
    for (int n : {1, 2, 4, 8, 12, 16, 24, 32, 46, 64, 88, 100, 119}) {
        const auto &values = relative_at[static_cast<std::size_t>(n)];
        const double mean_pct = 100.0 * support::mean(values);
        const double sd_pct = 100.0 * support::stddev(values);
        curve.push_back(mean_pct);
        spread.push_back(sd_pct);
        table.addRow(std::to_string(n), {mean_pct, sd_pct}, 1);
    }
    table.print(std::cout);
    std::cout << "\nAverage state-space size: "
              << total_points / space_count
              << " points per benchmark (paper: ~1.3M).\n";

    std::cout << "\nJSON:\n";
    support::JsonWriter json(std::cout, false);
    json.beginObject()
        .field("figure", "fig20")
        .field("relativeSpeedupPct", curve)
        .field("stddevPct", spread)
        .field("avgStateSpacePoints", total_points / space_count)
        .endObject();
    return 0;
}
