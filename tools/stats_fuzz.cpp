/**
 * @file
 * stats-fuzz — developer driver for the generative testing subsystem.
 *
 * `statscc fuzz` runs campaigns; this tool exposes the individual
 * stages for debugging a finding:
 *
 *   stats-fuzz gen --seed=S --index=I          print generated case I
 *   stats-fuzz run <case-file>...              oracle each case file
 *   stats-fuzz shrink <case-file> [--out=F]    minimize a failing case
 *
 * Options: gen takes --near-miss-every=N --faults-every=N
 * --max-inputs=N; shrink takes --shrink-evals=N; run and shrink take
 * --no-analysis.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/log.hpp"
#include "support/string_utils.hpp"
#include "testing/fuzzer.hpp"

namespace {

using namespace stats;

struct Options
{
    std::uint64_t seed = 1;
    std::uint64_t index = 0;
    std::string out;
    testing::GeneratorOptions generator;
    testing::OracleOptions oracle;
    int shrinkEvaluations = 400;
    std::vector<std::string> files;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: stats-fuzz <gen|run|shrink> [options]\n"
        << "  gen --seed=S --index=I        print one generated case\n"
        << "  run <case-file>...            run the oracle on cases\n"
        << "  shrink <case-file> [--out=F]  minimize a failing case\n"
        << "campaigns: statscc fuzz\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &word)
{
    try {
        return std::stoull(word);
    } catch (const std::exception &) {
        support::fatal("expected a number, got '", word, "'");
    }
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string word = argv[i];
        if (!support::startsWith(word, "--")) {
            options.files.push_back(word);
            continue;
        }
        const auto eq = word.find('=');
        const std::string key =
            eq == std::string::npos ? word.substr(2)
                                    : word.substr(2, eq - 2);
        const std::string value =
            eq == std::string::npos ? "" : word.substr(eq + 1);
        auto intValue = [&] {
            return static_cast<int>(parseU64(value));
        };
        if (key == "seed") {
            options.seed = parseU64(value);
        } else if (key == "index") {
            options.index = parseU64(value);
        } else if (key == "out") {
            options.out = value;
        } else if (key == "near-miss-every") {
            options.generator.nearMissEvery = intValue();
        } else if (key == "faults-every") {
            options.generator.faultsEvery = intValue();
        } else if (key == "max-inputs") {
            options.generator.maxInputs = intValue();
        } else if (key == "shrink-evals") {
            options.shrinkEvaluations = intValue();
        } else if (key == "no-analysis") {
            options.oracle.runAnalysis = false;
        } else {
            usage();
        }
    }
    return options;
}

int
cmdGen(const Options &options)
{
    const testing::FuzzCase fuzz_case = testing::generateCase(
        options.seed, options.index, options.generator);
    std::cout << testing::serializeCase(fuzz_case);
    return 0;
}

int
cmdRun(const Options &options)
{
    if (options.files.empty())
        usage();
    int failed = 0;
    for (const auto &file : options.files) {
        const auto result = testing::replayCaseFile(
            file, options.oracle, std::cout);
        if (!result.ok)
            ++failed;
    }
    return failed == 0 ? 0 : 1;
}

int
cmdShrink(const Options &options)
{
    if (options.files.size() != 1)
        usage();
    std::string error;
    const auto loaded = testing::loadCaseFile(options.files[0], error);
    if (!loaded)
        support::fatal("cannot load '", options.files[0], "': ", error);

    testing::ShrinkOptions shrink;
    shrink.maxEvaluations = options.shrinkEvaluations;
    shrink.oracle = options.oracle;
    const auto result = testing::shrinkCase(*loaded, shrink);
    if (result.failKind.empty()) {
        std::cerr << "case does not fail the oracle; nothing to shrink\n";
        return 1;
    }
    std::cerr << "; shrunk in " << result.evaluations
              << " oracle evaluation(s), failure kind '"
              << result.failKind << "'\n";

    const std::string text = testing::serializeCase(result.minimized);
    if (options.out.empty()) {
        std::cout << text;
    } else {
        std::ofstream out(options.out, std::ios::binary);
        if (!out)
            support::fatal("cannot write '", options.out, "'");
        out << text;
        std::cerr << "; wrote " << options.out << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    const Options options = parseOptions(argc, argv);
    if (command == "gen")
        return cmdGen(options);
    if (command == "run")
        return cmdRun(options);
    if (command == "shrink")
        return cmdShrink(options);
    usage();
}
