/**
 * @file
 * Figure 18: speedup vs number of tradeoffs encoded.
 *
 * "Developers gain most of the STATS benefits with a minimum effort:
 * encoding a single tradeoff yields around 55% of the speedup of
 * encoding all, and encoding two yields around 95%." Tradeoffs are
 * enabled in the expected-payoff order a developer would pick (the
 * Table 1 ordering = the registration order of each benchmark's
 * auxiliary tradeoffs); with zero tradeoffs encoded STATS has no
 * auxiliary code to generate and the program keeps only its original
 * parallelization.
 */

#include <algorithm>
#include <iostream>

#include "common/experiment.hpp"
#include "support/statistics.hpp"
#include "tradeoff/registry.hpp"

using namespace stats;
using namespace stats::benchmarks;

namespace {

/**
 * Tune with only the first `enabled` auxiliary tradeoffs free; the
 * rest are pinned to their defaults before every evaluation.
 */
double
tunedTimeWithSubset(Benchmark &bench, benchx::ObsSession &obs,
                    int enabled, int threads,
                    const sim::MachineConfig &machine, int budget)
{
    const auto space = bench.stateSpace(threads);

    // Auxiliary tradeoff dimension names, in payoff order.
    std::vector<std::string> aux_dims;
    for (std::size_t i = 0; i < space.dimensionCount(); ++i) {
        const auto &name = space.dimension(i).name;
        if (name.rfind(tradeoff::kAuxPrefix, 0) == 0)
            aux_dims.push_back(name);
    }

    profiler::Profiler profiler(bench, Mode::ParStats, threads, machine);
    profiler.setReplaySession(obs.replay());
    autotuner::Autotuner tuner(space, 7);
    const auto result = tuner.tune(
        [&](const tradeoff::Configuration &config) {
            tradeoff::Configuration pinned = config;
            for (std::size_t i = static_cast<std::size_t>(enabled);
                 i < aux_dims.size(); ++i) {
                space.set(pinned, aux_dims[i],
                          space.dimension(space.indexOf(aux_dims[i]))
                              .defaultIndex);
            }
            if (enabled == 0) {
                // No tradeoffs encoded: no auxiliary code to tune.
                space.set(pinned, dims::kUseAux, 0);
            }
            return obs.replay()->mistrainObjective(
                profiler.profile(pinned).seconds);
        },
        budget);
    return result.bestObjective;
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::ObsSession obs_session(argc, argv);
    benchx::printHeader(
        "Figure 18",
        "Relative speedup vs number of encoded tradeoffs ('pay as you "
        "go')",
        "1 tradeoff gives ~55% of the full-STATS speedup, 2 give ~95%");

    const auto machine = benchx::paperMachine();
    constexpr int kThreads = 28;
    constexpr int kMaxTradeoffs = 5; // Algorithmic tradeoffs swept.

    // relative[n] = geomean over benchmarks of
    //               speedup(n tradeoffs)/speedup(all).
    std::vector<std::vector<double>> ratios(kMaxTradeoffs + 1);
    support::JsonWriter json(std::cout, false);
    json.beginObject().field("figure", "fig18").key("benchmarks");
    json.beginArray();

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto space = bench->stateSpace(kThreads);
        int aux_count = 0;
        for (std::size_t i = 0; i < space.dimensionCount(); ++i) {
            if (space.dimension(i).name.rfind(tradeoff::kAuxPrefix, 0) ==
                0) {
                ++aux_count;
            }
        }

        const double full_time = tunedTimeWithSubset(
            *bench, obs_session, aux_count, kThreads, machine, 30);
        json.beginObject().field("name", name).key("relative");
        json.beginArray();
        for (int n = 0; n <= kMaxTradeoffs; ++n) {
            const double time = tunedTimeWithSubset(
                *bench, obs_session, std::min(n, aux_count), kThreads,
                machine, n == 0 ? 8 : 22);
            const double relative = full_time / time; // Speedup ratio.
            ratios[static_cast<std::size_t>(n)].push_back(
                std::min(relative, 1.0));
            json.value(std::min(relative, 1.0));
        }
        json.endArray().endObject();
    }
    json.endArray();

    support::TextTable table({"#tradeoffs", "relative speedup %"});
    std::vector<double> curve;
    for (int n = 0; n <= kMaxTradeoffs; ++n) {
        const double geo =
            100.0 * support::geomean(ratios[static_cast<std::size_t>(n)]);
        curve.push_back(geo);
        table.addRow(std::to_string(n), {geo}, 1);
    }
    json.field("relativeGeomeanPct", curve).endObject();
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n(100% = each benchmark's best speedup with all "
                 "tradeoffs encoded.)\n";
    return 0;
}
