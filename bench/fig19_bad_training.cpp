/**
 * @file
 * Figure 19: non-representative training inputs.
 *
 * Autotunes each benchmark on the adversarial training workloads of
 * paper section 4.6 (the subject does not move, points overlap,
 * unrealistic swaption terms, ...) and evaluates the chosen
 * configuration on the representative inputs. "STATS loses only a
 * small fraction of the performance obtained when representative
 * inputs are used" — correctness is guaranteed by the runtime
 * regardless.
 */

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
        "Figure 19", "Training on non-representative inputs",
        "only a small performance fraction is lost; output quality is "
        "unaffected (guaranteed by the runtime checks)");

    const auto machine = benchx::paperMachine();
    constexpr int kThreads = 28;

    support::TextTable table({"benchmark", "Original", "Par. STATS",
                              "Par. STATS w/ bad training"});
    std::vector<double> good, bad;
    support::JsonWriter json(std::cout, false);
    json.beginObject().field("figure", "fig19").key("rows").beginArray();

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench, obs_session);

        RunRequest original = obs_session.request();
        original.threads = kThreads;
        original.mode = Mode::Original;
        original.machine = machine;
        const double original_speedup =
            seq / bench->run(original).virtualSeconds;

        const auto trained_well = benchx::tuneAt(
            *bench, obs_session, Mode::ParStats, kThreads, machine, 32,
            profiler::Objective::Time, 1,
            WorkloadKind::Representative);
        const auto trained_badly = benchx::tuneAt(
            *bench, obs_session, Mode::ParStats, kThreads, machine, 32,
            profiler::Objective::Time, 1,
            WorkloadKind::NonRepresentative);

        // Evaluate both configurations on the representative inputs.
        const auto evaluate = [&](const tradeoff::Configuration &config) {
            RunRequest request = obs_session.request();
            request.threads = kThreads;
            request.mode = Mode::ParStats;
            request.config = config;
            request.machine = machine;
            double total = 0.0;
            for (int rep = 0; rep < 2; ++rep)
                total += bench->run(request).virtualSeconds;
            return seq / (total / 2);
        };
        const double good_speedup = evaluate(trained_well.config);
        const double bad_speedup = evaluate(trained_badly.config);
        good.push_back(good_speedup);
        bad.push_back(bad_speedup);

        table.addRow(name,
                     {original_speedup, good_speedup, bad_speedup}, 2);
        json.beginObject()
            .field("name", name)
            .field("original", original_speedup)
            .field("parStats", good_speedup)
            .field("parStatsBadTraining", bad_speedup)
            .endObject();
    }
    table.addRow("geo. mean",
                 {0.0, support::geomean(good), support::geomean(bad)},
                 2);
    json.endArray()
        .field("lossPct", 100.0 * (1.0 - support::geomean(bad) /
                                             support::geomean(good)))
        .endObject();

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nPerformance lost to bad training: "
              << support::TextTable::formatDouble(
                     100.0 * (1.0 - support::geomean(bad) /
                                        support::geomean(good)),
                     1)
              << "% (paper: a small fraction).\n";
    return 0;
}
