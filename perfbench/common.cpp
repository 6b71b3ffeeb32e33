#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<std::uint64_t> g_heapAllocs{0};
std::atomic<bool> g_countAllocs{false};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB.
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : _spans)
        if (span.name == name)
            out.push_back(span.end - span.start);
    return out;
}

std::map<std::string, std::pair<double, std::size_t>>
SpanLog::selfTimes() const
{
    std::vector<std::vector<std::size_t>> children(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        if (_spans[i].parent >= 0)
            children[std::size_t(_spans[i].parent)].push_back(i);

    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> cover;
        for (const std::size_t c : children[i])
            cover.emplace_back(std::max(_spans[c].start, span.start),
                               std::min(_spans[c].end, span.end));
        std::sort(cover.begin(), cover.end());
        double covered = 0.0, reach = span.start;
        for (const auto &[lo, hi] : cover) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        auto &entry = out[span.name];
        entry.first += (span.end - span.start) - covered;
        entry.second += 1;
    }
    return out;
}

void
SpanLog::writeJson(std::ostream &out, const std::string &stamp) const
{
    out << "{\"stamp\": " << stamp << ",\n \"self_time\": {";
    bool first = true;
    for (const auto &[name, self] : selfTimes()) {
        out << (first ? "" : ", ") << "\"" << name
            << "\": {\"self_s\": " << self.first
            << ", \"count\": " << self.second << "}";
        first = false;
    }
    out << "},\n \"spans\": [";
    char buf[160];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::snprintf(buf, sizeof buf,
                      "\", \"start\": %.9f, \"end\": %.9f, \"parent\": "
                      "%lld, \"request\": %llu}",
                      s.start, s.end, (long long)s.parent,
                      (unsigned long long)s.request);
        out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
            << ", \"name\": \"" << s.name << buf;
    }
    out << "]}\n";
}

} // namespace perfbench

// Count heap allocations (not bytes) for alloc.per_input, the same
// global replacement bench/micro_scheduler.cpp uses. Counting is off
// unless the traced run switches it on.

void *
operator new(std::size_t size)
{
    if (perfbench::g_countAllocs.load(std::memory_order_relaxed))
        perfbench::g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (perfbench::g_countAllocs.load(std::memory_order_relaxed))
        perfbench::g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t alignment =
        std::max(static_cast<std::size_t>(align), sizeof(void *));
    void *p = nullptr;
    if (posix_memalign(&p, alignment, size ? size : alignment) == 0)
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
