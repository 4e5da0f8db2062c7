#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

void
LatencyHist::add(double ns)
{
    int e = 0;
    double m = std::frexp(std::max(ns, 1.0), &e);  // ns = m * 2^e
    int sub = static_cast<int>((m * 2.0 - 1.0) * kSub);
    int idx = std::min((e - 1) * kSub + std::min(sub, kSub - 1),
                       kSub * kOctaves - 1);
    ++buckets[static_cast<std::size_t>(idx)];
    ++total;
}

void
LatencyHist::merge(const LatencyHist &o)
{
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += o.buckets[i];
    total += o.total;
}

double
LatencyHist::quantile(double q) const
{
    if (total == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            double octave = std::ldexp(1.0, static_cast<int>(i) / kSub);
            double lo = octave * (1.0 + static_cast<double>(i % kSub) / kSub);
            return lo + octave / (2.0 * kSub);  // bucket midpoint
        }
    }
    return 0;
}

bool
Spans::writeChrome(const std::string &path,
                   const std::vector<const Spans *> &all)
{
    std::ofstream os(path);
    if (!os)
        return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Spans *s : all)
        for (const Event &e : s->kept)
            origin = std::min(origin, e.start);

    sim::JsonWriter w(os, false);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.beginArray("traceEvents");
    for (const Spans *s : all) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", std::uint64_t{1});
        w.field("tid", std::uint64_t{s->track});
        w.beginObject("args");
        w.field("name", "worker " + std::to_string(s->track));
        w.endObject();
        w.endObject();
        for (const Event &e : s->kept) {
            w.beginObject();
            w.field("name", e.name == kRootName ? s->root
                                                : kLayerSpanNames[e.name]);
            w.field("cat", "perfbench");
            w.field("ph", "X");
            w.field("ts", nsBetween(origin, e.start) * 1e-3);
            w.field("dur", e.durNs * 1e-3);
            w.field("pid", std::uint64_t{1});
            w.field("tid", std::uint64_t{s->track});
            w.beginObject("args");
            w.field("req", e.req);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return static_cast<bool>(os);
}

} // namespace perfbench
