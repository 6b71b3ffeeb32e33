/**
 * @file
 * Figure 12: speedup vs hardware threads for Original / Seq. STATS /
 * Par. STATS, per benchmark, plus the maximum-speedup comparison.
 *
 * "Taking advantage of state dependences doubles the performance of
 * the considered benchmarks (the geometric mean speedup increases
 * from 7.75x to 20.01x) on a 28 core platform" (paper section 4.3).
 */

#include <iostream>
#include <sstream>

#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

int
main(int argc, char **argv)
{
    benchx::ObsSession obs_session(argc, argv);
    benchx::printHeader(
        "Figure 12",
        "Speedup vs hardware threads: Original / Seq. STATS / Par. STATS",
        "STATS roughly doubles the original TLP's best; fluidanimate "
        "gains nothing (its auxiliary code aborts); bodytrack's STATS "
        "TLP beats its original TLP; swaptions' Seq. STATS loses to "
        "Original at low core counts");

    const auto &threads = benchx::threadSweep();
    std::vector<double> best_original, best_seq, best_par;
    support::JsonWriter json(std::cout, false);
    std::ostringstream tables;

    json.beginObject().field("figure", "fig12");
    json.key("threads").beginArray();
    for (int t : threads)
        json.value(static_cast<std::int64_t>(t));
    json.endArray();
    json.key("benchmarks").beginArray();

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto data = benchx::measureScalability(*bench, obs_session);

        const auto orig = benchx::speedups(data.original, data.seqTime);
        const auto seqs = benchx::speedups(data.seqStats, data.seqTime);
        const auto pars = benchx::speedups(data.parStats, data.seqTime);
        best_original.push_back(data.seqTime / data.original.bestTime);
        best_seq.push_back(data.seqTime / data.seqStats.bestTime);
        best_par.push_back(data.seqTime / data.parStats.bestTime);

        tables << "\n--- " << name << " ---\n";
        support::TextTable table(
            {"threads", "Original", "Seq. STATS", "Par. STATS"});
        for (std::size_t i = 0; i < threads.size(); ++i) {
            table.addRow(std::to_string(threads[i]),
                         {orig[i], seqs[i], pars[i]}, 2);
        }
        table.addRow("max", {best_original.back(), best_seq.back(),
                             best_par.back()},
                     2);
        table.print(tables);

        json.beginObject()
            .field("name", name)
            .field("original", orig)
            .field("seqStats", seqs)
            .field("parStats", pars)
            .endObject();
    }
    json.endArray();
    json.field("geomeanOriginalBest", support::geomean(best_original))
        .field("geomeanSeqStatsBest", support::geomean(best_seq))
        .field("geomeanParStatsBest", support::geomean(best_par))
        .endObject();

    std::cout << tables.str();
    std::cout << "\nGeometric means of the best speedups:\n"
              << "  Original:   "
              << support::TextTable::formatDouble(
                     support::geomean(best_original), 2)
              << "x\n"
              << "  Seq. STATS: "
              << support::TextTable::formatDouble(
                     support::geomean(best_seq), 2)
              << "x\n"
              << "  Par. STATS: "
              << support::TextTable::formatDouble(
                     support::geomean(best_par), 2)
              << "x  ("
              << support::TextTable::formatDouble(
                     100.0 * (support::geomean(best_par) /
                                  support::geomean(best_original) -
                              1.0),
                     1)
              << "% over the original; the paper reports +158.2%)\n";
    return 0;
}
