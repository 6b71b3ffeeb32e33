/**
 * @file
 * statsd — the STATS serving daemon (docs/SERVING.md).
 *
 * Serves ExecutionPlans over a unix-domain socket: admission
 * (validation + per-tenant token-bucket quotas), weighted
 * deficit-round-robin scheduling, cross-request batching, and
 * record/replay capture per served run. `stats-cli` is the matching
 * client; `stats-cli drain` is the clean shutdown path, after which
 * statsd prints its shutdown report (docs/SERVING.md §7).
 *
 * Usage:
 *   statsd [--socket=PATH] [--quota=tenant:rate:burst:maxq:weight]...
 *          [--default-quota=rate:burst:maxq:weight] [--quantum=Q]
 *          [--execution-workers=N] [--no-analysis] [--trace]
 *          [--metrics=FILE]
 *
 * `--quota` may repeat (and each accepts a comma-separated list).
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "serving/daemon.hpp"
#include "support/string_utils.hpp"

namespace {

using namespace stats;

void
usage()
{
    std::cerr
        << "usage: statsd [options]\n"
        << "options:\n"
        << "  --socket=PATH            listen socket "
           "(default statsd.sock)\n"
        << "  --quota=T:R:B:Q:W        tenant T: R req/s, burst B,\n"
        << "                           queue bound Q, WDRR weight W\n"
        << "                           (repeatable, comma-separable)\n"
        << "  --default-quota=R:B:Q:W  quota for unlisted tenants\n"
        << "  --quantum=Q              WDRR quantum (default 1)\n"
        << "  --execution-workers=N    plan execution threads\n"
        << "                           (default: half the cores)\n"
        << "  --no-analysis            skip the admission lint stage\n"
        << "  --trace                  enable the trace layer\n"
        << "  --metrics=FILE           dump metrics JSON on drain\n";
}

int
fail(const std::string &message)
{
    std::cerr << "statsd: " << message << "\n";
    return 1;
}

/**
 * Parse "rate:burst:maxQueued:weight" (the `tenant:`-less form).
 * Returns false and sets `error` on a malformed spec.
 */
bool
parseQuotaSpec(const std::string &spec, serving::TenantQuota &quota,
               std::string &error)
{
    std::vector<std::string> parts;
    std::stringstream stream(spec);
    for (std::string part; std::getline(stream, part, ':');)
        parts.push_back(part);
    if (parts.size() != 4) {
        error = "want rate:burst:maxQueued:weight";
        return false;
    }
    try {
        quota.ratePerSec = std::stod(parts[0]);
        quota.burst = std::stod(parts[1]);
        quota.maxQueued =
            static_cast<std::size_t>(std::stoull(parts[2]));
        quota.weight = std::stoi(parts[3]);
    } catch (const std::exception &) {
        error = "malformed number in quota spec";
        return false;
    }
    if (quota.ratePerSec <= 0.0 || quota.burst < 1.0 ||
        quota.maxQueued < 1 || quota.weight < 1) {
        error = "quota values out of range";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "statsd.sock";
    std::string metrics_path;
    bool trace = false;
    serving::Server::Options options;
    std::vector<std::pair<std::string, serving::TenantQuota>> quotas;
    for (int i = 1; i < argc; ++i) {
        const std::string word = argv[i];
        if (!support::startsWith(word, "--")) {
            usage();
            return 1;
        }
        const auto eq = word.find('=');
        const std::string key =
            word.substr(2, eq == std::string::npos
                               ? std::string::npos
                               : eq - 2);
        const std::string value =
            eq == std::string::npos ? "" : word.substr(eq + 1);
        std::string error;
        if (key == "socket") {
            socket_path = value;
        } else if (key == "quota") {
            for (const auto &spec : support::split(value, ',')) {
                if (spec.empty())
                    continue;
                const auto colon = spec.find(':');
                serving::TenantQuota quota;
                if (colon == std::string::npos || colon == 0 ||
                    !parseQuotaSpec(spec.substr(colon + 1), quota,
                                    error))
                    return fail("--quota '" + spec + "': " +
                                (error.empty()
                                     ? "want tenant:rate:burst:"
                                       "maxQueued:weight"
                                     : error));
                quotas.emplace_back(spec.substr(0, colon), quota);
            }
        } else if (key == "default-quota") {
            if (!parseQuotaSpec(value, options.defaultQuota, error))
                return fail("--default-quota: " + error);
        } else if (key == "quantum") {
            try {
                options.quantum = std::stod(value);
            } catch (const std::exception &) {
                return fail("--quantum wants a number, got '" + value +
                            "'");
            }
            if (!(options.quantum > 0.0))
                return fail("--quantum must be positive");
        } else if (key == "execution-workers") {
            try {
                options.executionWorkers = std::stoul(value);
            } catch (const std::exception &) {
                return fail("--execution-workers wants a number, "
                            "got '" + value + "'");
            }
            if (options.executionWorkers < 1)
                return fail("--execution-workers must be at least 1");
        } else if (key == "no-analysis") {
            options.runAnalysis = false;
        } else if (key == "trace") {
            trace = true;
        } else if (key == "metrics") {
            metrics_path = value;
        } else if (key == "help") {
            usage();
            return 0;
        } else {
            usage();
            return 1;
        }
    }

    if (trace) {
        obs::Trace::global().enable();
        if (!obs::traceActive())
            return fail("--trace needs tracing compiled in "
                        "(built with STATS_OBS_DISABLE)");
    }

    const bool analysis = options.runAnalysis;
    serving::Daemon daemon(socket_path, std::move(options));
    for (const auto &[tenant, quota] : quotas)
        daemon.server().setQuota(tenant, quota);

    std::cout << "statsd: serving on " << daemon.socketPath()
              << " (analysis " << (analysis ? "on" : "off") << ", "
              << daemon.server().workerCount() << " worker(s))\n";
    daemon.serveForever();

    std::cout << "statsd: drained after "
              << daemon.server().completedCount()
              << " completed request(s)\n";
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            return fail("cannot open '" + metrics_path + "'");
        obs::MetricsRegistry::global().writeJson(out);
        std::cout << "statsd: wrote metrics to " << metrics_path
                  << "\n";
    }
    return 0;
}
