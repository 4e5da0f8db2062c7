/**
 * @file
 * Wall-clock spans around the benchmark's calls into each layer.
 *
 * A traced replay opens one root span per trace record (one request
 * id) and one child span per layer call inside it. Per-layer self
 * time is summed as the spans close; the first few thousand spans
 * are also kept in memory and written, when the run ends, as Chrome
 * trace-event JSON that Perfetto loads. Untraced replays use NoSpans,
 * which compiles the same replay code without a clock read.
 */

#ifndef UTLB_PERFBENCH_SPANS_HPP
#define UTLB_PERFBENCH_SPANS_HPP

#include <array>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/** Untraced replays: layer calls run bare. */
struct NoSpans {
    void beginRecord() {}
    void endRecord() {}

    template <class F>
    auto
    call(Layer, F &&f)
    {
        return f();
    }
};

/**
 * Log-bucketed histogram of durations (1/64-octave buckets, about
 * 1% resolution), for percentiles over millions of windows.
 */
class LatencyHist
{
  public:
    void add(double ns);
    void merge(const LatencyHist &o);

    /** Duration (ns) at quantile @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr int kSub = 64;
    static constexpr int kOctaves = 48;
    std::vector<std::uint64_t> buckets =
        std::vector<std::uint64_t>(kSub * kOctaves, 0);
    std::uint64_t total = 0;
};

/** Traced replays: a root span per record, a child per layer call. */
class Spans
{
  public:
    /**
     * @param rootName name of the per-record root span
     * @param tid      track (worker) the spans belong to
     */
    explicit Spans(const char *rootName, unsigned tid = 0)
        : root(rootName), track(tid)
    {
        kept.reserve(kKeepEvents);
    }

    void beginRecord() { recStart = Clock::now(); }

    void
    endRecord()
    {
        Clock::time_point end = Clock::now();
        double ns = nsBetween(recStart, end);
        windows.add(ns);
        rootNs += ns;
        keep(kRootName, recStart, ns);
        ++request;
    }

    /** Run @p f as a child span of layer @p l. */
    template <class F>
    auto
    call(Layer l, F &&f)
    {
        Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            f();
            stop(l, t0);
        } else {
            auto r = f();
            stop(l, t0);
            return r;
        }
    }

    const std::array<LayerTotal, kLayers> &totals() const { return tot; }

    /** Durations of the root spans. */
    const LatencyHist &windowHist() const { return windows; }

    /** Summed duration of the root spans. */
    double windowNs() const { return rootNs; }

    /**
     * Write the kept spans of every recorder in @p all as one Chrome
     * trace-event document, one track per recorder.
     * @return false if @p path cannot be written.
     */
    static bool writeChrome(const std::string &path,
                            const std::vector<const Spans *> &all);

  private:
    static constexpr std::size_t kKeepEvents = 10000;
    static constexpr unsigned kRootName = kLayers;

    struct Event {
        Clock::time_point start;
        double durNs;
        unsigned name;       //!< Layer index, or kRootName
        std::uint64_t req;   //!< request (record) id
    };

    void
    stop(Layer l, Clock::time_point t0)
    {
        double ns = nsBetween(t0, Clock::now());
        auto i = static_cast<unsigned>(l);
        ++tot[i].calls;
        tot[i].ns += ns;
        keep(i, t0, ns);
    }

    void
    keep(unsigned name, Clock::time_point start, double ns)
    {
        if (kept.size() < kKeepEvents)
            kept.push_back({start, ns, name, request});
    }

    const char *root;
    unsigned track;
    Clock::time_point recStart{};
    std::uint64_t request = 0;
    std::array<LayerTotal, kLayers> tot{};
    LatencyHist windows;
    double rootNs = 0;
    std::vector<Event> kept;
};

} // namespace perfbench

#endif // UTLB_PERFBENCH_SPANS_HPP
