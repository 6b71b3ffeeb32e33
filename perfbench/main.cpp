/**
 * @file
 * The repository benchmark binary (run it through run.py, which
 * builds it):
 *
 *   perfbench --workload serve_admit|serve_heavy|spec_fine --seed N
 *             --seconds S --trace 0|1
 *             [--corrupt served|rejected|expired|spec]
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and the metrics (end-to-end ones untraced,
 * per-layer ones traced). The line before it is the run stamp. Any
 * failed operation (rejected, unfinished or wrong output) makes
 * `correct` false and the exit code 1.
 *
 * A traced run also measures, on a short complementary probe, the
 * layers its workload does not reach (the serving and IR layers on
 * spec_fine, the engine and pool on serve_*), so every run reports
 * the same per-layer names; README.md says which workload each
 * number belongs to.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

std::string g_command;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_admit|serve_heavy|spec_fine --seed N --seconds S "
                 "--trace 0|1 [--corrupt served|rejected|expired|spec]\n",
                 problem);
    std::exit(2);
}

/** The JSON stamp (command, host, nproc, compiler, build, commit). */
const std::string &
stampJson()
{
    static const std::string stamp = [] {
        char host[256] = {};
        gethostname(host, sizeof host - 1);
        const char *commit = std::getenv("PERFBENCH_COMMIT");
        return "{\"command\": " + jsonString(g_command) +
               ", \"host\": " + jsonString(host) +
               ", \"nproc\": " +
               std::to_string(std::thread::hardware_concurrency()) +
               ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
               ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
               ", \"commit\": " + jsonString(commit ? commit : "unknown") +
               "}";
    }();
    return stamp;
}

} // namespace

void
writeTrace(const std::string &workload, const SpanLog &spans)
{
    const std::string path = kOutDir + "/trace_" + workload + ".json";
    std::ofstream out(path);
    spans.writeJson(out, stampJson());
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunArgs args;
    std::string workload;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            g_command += ' ';
        g_command += argv[i];
    }
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--corrupt")
                args.corrupt = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (args.seconds <= 0)
        usage("--seconds must be positive");
    if (!args.corrupt.empty() && args.corrupt != "served" &&
        args.corrupt != "rejected" && args.corrupt != "expired" &&
        args.corrupt != "spec")
        usage("--corrupt takes served, rejected, expired or spec");
    mkdir(kOutDir.c_str(), 0755);

    Report report;
    if (workload == "serve_admit" || workload == "serve_heavy") {
        report = workload == "serve_admit" ? runServeAdmit(args)
                                           : runServeHeavy(args);
        if (args.trace) {
            RunArgs probe = args;
            probe.seconds = 1.0;
            probe.probe = true;
            report.absorb(runSpecFine(probe));
        }
    } else if (workload == "spec_fine") {
        report = runSpecFine(args);
        if (args.trace) {
            RunArgs probe = args;
            probe.seconds = 1.0;
            probe.probe = true;
            report.absorb(runServeAdmit(probe));
        }
    } else {
        usage("unknown workload");
    }

    std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
                double(report.failed) / double(std::max<std::uint64_t>(
                                            1, report.attempted)),
                (unsigned long long)report.failed,
                (unsigned long long)report.attempted);
    std::printf("stamp %s\n", stampJson().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    bool first = true;
    for (const auto &[name, metric] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), metric.first,
                    metric.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    return report.failed == 0 ? 0 : 1;
}
