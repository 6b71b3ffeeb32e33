/**
 * @file
 * Figure 14: Intel Hyper-Threading on a single socket.
 *
 * Constrains execution to one 14-core socket and compares Original
 * and Par. STATS with and without the 14 extra HT hardware threads.
 * "The speedup (geometric mean) increased from 12.18x to 16.13x ...
 * STATS obtained a 32% performance improvement" — i.e. STATS is
 * constrained by hardware resources, not by a lack of TLP.
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
        "Figure 14", "Single-socket Hyper-Threading study",
        "HT buys STATS ~+32% (Intel's guidance for a successful HT "
        "use is ~30%) and the original ~+13%");

    const auto no_ht = benchx::singleSocketMachine(false);
    const auto ht = benchx::singleSocketMachine(true);

    support::TextTable table({"benchmark", "Original", "Original w/ HT",
                              "Par. STATS", "Par. STATS w/ HT"});
    std::vector<double> o14, o28, s14, s28;
    support::JsonWriter json(std::cout, false);
    json.beginObject().field("figure", "fig14").key("rows").beginArray();

    const std::vector<int> socket_threads{2, 4, 6, 8, 10, 12, 14};
    const std::vector<int> ht_threads{2,  4,  6,  8,  10, 12, 14,
                                      16, 20, 24, 28};

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench, obs_session);

        // Original: best thread count on each machine (a user would
        // not force sync-bound code onto every hardware thread).
        const auto original_no_ht = benchx::originalCurve(
            *bench, obs_session, no_ht, socket_threads);
        const auto original_ht =
            benchx::originalCurve(*bench, obs_session, ht, ht_threads);

        // STATS: best of the Seq/Par searches (as in Figure 12).
        const auto tuned_seconds = [&](Mode mode, int threads,
                                       const sim::MachineConfig &machine) {
            return benchx::tuneAt(*bench, obs_session, mode, threads,
                                  machine, 32)
                .seconds;
        };
        const auto stats_no_ht =
            std::min(tuned_seconds(Mode::ParStats, 14, no_ht),
                     tuned_seconds(Mode::SeqStats, 14, no_ht));
        const auto stats_ht = std::min(tuned_seconds(Mode::ParStats, 28, ht),
                                       tuned_seconds(Mode::SeqStats, 28, ht));

        const double v_o14 = seq / original_no_ht.bestTime;
        const double v_o28 = seq / original_ht.bestTime;
        const double v_s14 = seq / stats_no_ht;
        const double v_s28 = seq / stats_ht;
        o14.push_back(v_o14);
        o28.push_back(v_o28);
        s14.push_back(v_s14);
        s28.push_back(v_s28);
        table.addRow(name, {v_o14, v_o28, v_s14, v_s28}, 2);

        json.beginObject()
            .field("name", name)
            .field("original", v_o14)
            .field("originalHt", v_o28)
            .field("parStats", v_s14)
            .field("parStatsHt", v_s28)
            .endObject();
    }
    table.addRow("geo. mean",
                 {support::geomean(o14), support::geomean(o28),
                  support::geomean(s14), support::geomean(s28)},
                 2);
    json.endArray()
        .field("statsHtGainPct",
               100.0 * (support::geomean(s28) / support::geomean(s14) -
                        1.0))
        .field("originalHtGainPct",
               100.0 * (support::geomean(o28) / support::geomean(o14) -
                        1.0))
        .endObject();

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nHT gain: STATS "
              << support::TextTable::formatDouble(
                     100.0 * (support::geomean(s28) /
                                  support::geomean(s14) -
                              1.0),
                     1)
              << "% (paper: +32%), original "
              << support::TextTable::formatDouble(
                     100.0 * (support::geomean(o28) /
                                  support::geomean(o14) -
                              1.0),
                     1)
              << "% (paper: +13%).\n";
    return 0;
}
