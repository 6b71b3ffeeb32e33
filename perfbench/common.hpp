/**
 * @file
 * Shared pieces of the repository benchmark: the clock, order
 * statistics, the metric report every workload returns, the
 * in-memory span recorder of the traced run, and the allocation
 * counter (common.cpp replaces the global operator new).
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the whole process (every thread), seconds. The kernel
 * leaves out the time the host takes the cores away (steal), so this
 * clock reads the program's work whatever the host's load (README.md,
 * "Why CPU time").
 */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty set. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

inline double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

inline double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : sum(values) / double(values.size());
}

/**
 * Operations attempted and failed, plus the metrics of one run. A
 * failed operation is one that was rejected, did not finish, or whose
 * output differs from its reference; any makes the run incorrect.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), printed in name order. */
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }

    /** Add `other`'s operations and any metric this report lacks. */
    void
    absorb(const Report &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const auto &[name, value] : other.metrics)
            metrics.emplace(name, value);
    }
};

/** Directory for sockets and the trace file (in the checkout). */
inline const std::string kOutDir = ".bench_out";

/** What every workload entry point receives. */
struct RunArgs
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /**
     * Checker self-test: "served" flips a byte of one served result,
     * "rejected" submits one plan admission refuses, "expired" keeps
     * one finished result in the daemon so the others are lost before
     * the check, and "spec" flips one spec_fine output.
     */
    std::string corrupt;
    /** A short complementary probe inside another workload's traced
     *  run: smaller bursts, no trace file. */
    bool probe = false;
};

// ------------------------------------------------------------ spans

/**
 * In-memory spans of the traced run, written as JSON when the run
 * ends. Only the traced instantiation of a workload touches this
 * class; the untraced one compiles no span code.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::int64_t parent = -1;
        std::uint64_t request = 0;
    };

    /** Record a finished span; returns its index (a parent id). */
    std::int64_t
    add(std::string name, double start, double end, std::int64_t parent,
        std::uint64_t request)
    {
        _spans.push_back({std::move(name), start, end, parent, request});
        return std::int64_t(_spans.size()) - 1;
    }

    /** Open a span whose end is filled in later by close(). */
    std::int64_t
    open(std::string name, double start, std::int64_t parent,
         std::uint64_t request)
    {
        return add(std::move(name), start, start, parent, request);
    }

    void
    close(std::int64_t id, double end)
    {
        _spans[std::size_t(id)].end = end;
    }

    /** Durations (seconds) of every span named `name`. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Per span name: total time not covered by its children
     * (seconds) and the span count.
     */
    std::map<std::string, std::pair<double, std::size_t>> selfTimes() const;

    /** Spans plus the self-time summary as one JSON document. */
    void writeJson(std::ostream &out, const std::string &stamp) const;

  private:
    std::vector<Span> _spans;
};

// ------------------------------------------------------ allocations

/** Heap allocations counted while enabled (common.cpp). */
extern std::atomic<std::uint64_t> g_heapAllocs;
/** Counting switch; the untraced run never turns it on. */
extern std::atomic<bool> g_countAllocs;

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace perfbench
