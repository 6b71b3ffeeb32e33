/**
 * @file
 * Table 1: developer effort vs compiler-generated code.
 *
 * For each benchmark: the LOC of its STATS (SDI/TI) encoding, the
 * number of state dependences, the LOC the developer wrote per
 * tradeoff, the state-comparison LOC, the code generated by the
 * compilers (front-end header + middle-end auxiliary clones), the
 * binary-size increase from auxiliary-code generation, and the extra
 * committed work the auxiliary code adds at run time.
 */

#include <iostream>
#include <sstream>

#include "benchmarks/common/extended_sources.hpp"
#include "common/experiment.hpp"
#include "common/ir_synth.hpp"
#include "midend/midend.hpp"

using namespace stats;
using namespace stats::benchmarks;

namespace {

/** Kernel/program sizing per benchmark (see ir_synth.hpp). */
struct IrShape
{
    std::size_t kernel;
    std::size_t program;
};

IrShape
shapeOf(const std::string &name, std::size_t source_loc)
{
    std::size_t kernel = 90;
    if (name == "fluidanimate")
        kernel = 200;
    else if (name == "bodytrack")
        kernel = 140;
    else if (name == "streamcluster" || name == "streamclassifier")
        kernel = 120;
    else if (name == "facedet")
        kernel = 110;
    return {kernel, source_loc * 10};
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::ObsSession obs_session(argc, argv);
    benchx::printHeader(
        "Table 1",
        "Developer effort: LOC per tradeoff vs compiler-generated code",
        "developer LOC is negligible next to compiler-generated code; "
        "auxiliary code adds <= 7.1% extra committed work");

    support::TextTable table(
        {"benchmark", "SDI/TI LOC", "state deps", "LOC/tradeoff",
         "cmp LOC", "generated LOC", "bin size +%", "extra work %"});
    support::JsonWriter json(std::cout, false);
    json.beginObject().field("table", "table1").key("rows").beginArray();

    for (const auto &name : allBenchmarkNames()) {
        const auto frontend_result = frontend::compileExtendedSource(
            extendedSourceFor(name), name);

        // Real middle-end run on the benchmark-shaped module.
        const IrShape shape =
            shapeOf(name, frontend_result.originalLoc);
        ir::Module module = benchx::synthesizeIr(
            frontend_result, shape.kernel, shape.program);
        const std::size_t before = module.instructionCount();
        const auto report = midend::runMiddleEnd(module);
        const double size_increase =
            100.0 * static_cast<double>(report.instructionsAdded) /
            static_cast<double>(before);

        // Extra committed work, measured on a real autotuned STATS
        // run (the binary the toolchain would ship).
        auto bench = createBenchmark(name);
        const auto tuned =
            benchx::tuneAt(*bench, obs_session, Mode::SeqStats, 28,
                           benchx::paperMachine(), 30);
        RunRequest request = obs_session.request();
        request.threads = 28;
        request.mode = Mode::SeqStats;
        request.config = tuned.config;
        const RunResult run = bench->run(request);
        const double extra =
            100.0 * run.engineStats.extraWorkFraction();

        std::ostringstream loc_list;
        for (std::size_t i = 0; i < frontend_result.tradeoffs.size();
             ++i) {
            loc_list << (i ? "/" : "")
                     << frontend_result.tradeoffs[i].declaredLoc;
        }
        // Generated LOC: front-end header + middle-end clones (one
        // IR instruction printed per line).
        const std::size_t generated =
            frontend_result.generatedLoc + report.instructionsAdded;

        table.addRow(
            {name, std::to_string(frontend_result.originalLoc),
             std::to_string(frontend_result.stateDeps.size()),
             loc_list.str(),
             std::to_string(frontend_result.stateComparisonLoc),
             std::to_string(generated),
             support::TextTable::formatDouble(size_increase, 1),
             support::TextTable::formatDouble(extra, 1)});

        json.beginObject()
            .field("name", name)
            .field("sourceLoc", frontend_result.originalLoc)
            .field("stateDeps", frontend_result.stateDeps.size())
            .field("tradeoffLoc", loc_list.str())
            .field("comparisonLoc", frontend_result.stateComparisonLoc)
            .field("generatedLoc", generated)
            .field("binarySizeIncreasePct", size_increase)
            .field("extraCommittedWorkPct", extra)
            .endObject();
    }
    json.endArray().endObject();
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nMost code changes are performed automatically by the "
                 "STATS compilers; the developer's per-tradeoff LOC is "
                 "small.\n";
    return 0;
}
