/**
 * @file
 * Shared pieces of the replay benchmark: run options, the modeled
 * outputs a replay must reproduce, the report a workload fills in,
 * and the per-layer tallies its traced run yields.
 *
 * All timing happens here, outside the library: the benchmark times
 * its own calls into each layer's public functions.
 */

#ifndef UTLB_PERFBENCH_BENCH_HPP
#define UTLB_PERFBENCH_BENCH_HPP

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/page.hpp"
#include "sim/json.hpp"
#include "sim/types.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/record.hpp"

namespace perfbench {

namespace check = utlb::check;
namespace core = utlb::core;
namespace mem = utlb::mem;
namespace sim = utlb::sim;
namespace tlbsim = utlb::tlbsim;
namespace trace = utlb::trace;

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p a to @p b. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return nsBetween(t0, Clock::now()) * 1e-9;
}

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 12345;  //!< tlbsim's default seed
    double seconds = 10;         //!< timed measurement per run
    bool trace = false;          //!< per-layer (traced) run
    std::string traceOut;        //!< Chrome trace path ("" = none)
};

/**
 * The set-up times of a run; setup_s is their median. kMinReps
 * set-ups are timed before timing starts, and the run uses the last.
 * More are timed on throwaway copies between timed passes, at most
 * once a second and never closer than kSpacing times the last
 * set-up's length (so at most about 5% of the timed phase), up to
 * kMaxReps. Set-ups that all fall within one second sample the
 * shared host at one moment, and its speed changes over seconds: in
 * one set of ten paper_cold runs they read 5.4-6.1 ms in some runs and
 * 7.8-9.4 ms in others. Spread over the run, they see the host the
 * timed passes see.
 */
class SetupTimes
{
  public:
    /** Whether to time another set-up before timing starts. */
    bool beforeTiming() const { return times.size() < kMinReps; }

    /** Time one call of @p setUp. */
    template <class F>
    void
    time(F &&setUp)
    {
        Clock::time_point t0 = Clock::now();
        setUp();
        last = Clock::now();
        times.push_back(nsBetween(t0, last) * 1e-9);
    }

    /** Between timed passes: time one more call of @p setUp if due. */
    template <class F>
    void
    between(F &&setUp)
    {
        if (times.size() < kMaxReps
            && secondsSince(last)
                >= std::max(kEveryS, kSpacing * times.back()))
            time(setUp);
    }

    std::size_t count() const { return times.size(); }

    /** setup_s. */
    double median() const;

  private:
    static constexpr std::size_t kMinReps = 5;
    static constexpr std::size_t kMaxReps = 64;
    static constexpr double kEveryS = 1.0;
    static constexpr double kSpacing = 20.0;

    std::vector<double> times;  //!< seconds per set-up
    Clock::time_point last;     //!< end of the last set-up
};

/** The modeled outputs of a replay: what tlbsim reports. */
struct Modeled {
    std::uint64_t lookups = 0;
    std::uint64_t probes = 0;
    std::uint64_t checkMissLookups = 0;
    std::uint64_t niMissLookups = 0;
    std::uint64_t niMissProbes = 0;
    std::uint64_t pagesPinned = 0;
    std::uint64_t pagesUnpinned = 0;
    std::uint64_t pinIoctls = 0;
    std::uint64_t interrupts = 0;
    sim::Tick hostTime = 0;
    sim::Tick pinTime = 0;
    sim::Tick unpinTime = 0;
    sim::Tick nicTime = 0;
    std::uint64_t compulsoryMisses = 0;
    std::uint64_t capacityMisses = 0;
    std::uint64_t conflictMisses = 0;

    bool operator==(const Modeled &) const = default;
    Modeled &operator+=(const Modeled &o);

    /** The same outputs with the three-C split cleared. */
    Modeled withoutThreeC() const;

    /** The outputs of a tlbsim run. */
    static Modeled of(const tlbsim::SimResult &r);

    /** Write as an object under @p key (times in ticks, ps). */
    void write(sim::JsonWriter &w, std::string_view key) const;
};

/**
 * simulateUtlb's host-side accounting of one lookup, from a
 * core::EnsureResult (per-page path) or core::Translation (batched).
 */
template <class HostHalf>
void
countHost(sim::Tick userCheck, const HostHalf &host, Modeled &m)
{
    ++m.lookups;
    m.hostTime += userCheck + host.pinCost + host.unpinCost;
    m.pinTime += host.pinCost;
    m.unpinTime += host.unpinCost;
    if (host.checkMiss)
        ++m.checkMissLookups;
    m.pagesPinned += host.pagesPinned;
    m.pagesUnpinned += host.pagesUnpinned;
    m.pinIoctls += host.pinIoctls;
}

/** The paper's 4 MB per-process pin limit in 4 KB pages (Table 5). */
inline constexpr std::size_t kPaperPinLimit = 1024;

/** One printed metric. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Report {
    std::uint64_t attempted = 0;  //!< translations issued
    std::uint64_t failed = 0;     //!< failed or rejected by the check
    std::vector<std::string> problems;  //!< output-check findings
    std::vector<Metric> metrics;
    /** Modeled outputs of the deterministic replays, as JSON, for
     *  the reference comparison (empty on mt_churn). */
    std::string modeledJson;
    std::size_t setupReps = 0;  //!< set-ups timed for setup_s

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record an output-check finding. */
    void problem(std::string what);
};

/** Layers whose calls the traced run wraps in spans. */
enum class Layer : unsigned { Pin, Probe, Walk, Install, Intr, Classify };
inline constexpr std::size_t kLayers = 6;
inline constexpr std::array<const char *, kLayers> kLayerSpanNames = {
    "pin.prepare", "cache.probe", "table.walk", "cache.install",
    "intr.translate", "tlbsim.classify"};

/** Calls into one layer and their summed self time. */
struct LayerTotal {
    std::uint64_t calls = 0;
    double ns = 0;
};

/**
 * Everything the per-layer metrics are computed from, gathered over
 * a workload's traced phase.
 */
struct LayerStats {
    double genMs = 0;               //!< trace generation (median)
    double tlbsimSelfShare = 0;     //!< paper_cold only

    /** Calls and self time per layer. On mt_churn the layer calls
     *  happen inside translateRange, so calls come from the
     *  library's counters and self time stays 0. */
    std::array<LayerTotal, kLayers> spans{};
    double tracedWallNs = 0;        //!< wall time of traced replays
    double tracedRate = 0;          //!< passRate() of the traced passes
    double untracedRate = 0;        //!< same, tracing off
    /** Share of traced wall outside every span; < 0 = the remainder
     *  of tracedWallNs after the layer spans. */
    double unattributedShare = -1;

    Modeled utlb;                   //!< UTLB side of the traced phase
    std::uint64_t evictions = 0;    //!< NIC cache capacity evictions
    std::uint64_t invalidations = 0;
    std::uint64_t framesAllocated = 0;
    std::uint64_t pinOps = 0;       //!< PinFacility pin + unpin ops
    std::uint64_t allXlat = 0;      //!< UTLB + Intr translations
    std::uint64_t intrMisses = 0;

    double mtScaling = 0;
    double mtWorkerSkew = 0;
    double windowP50Us = 0;
    double windowP99Us = 0;
};

/**
 * The frame each page of @p tr must translate to: its process' page
 * table mapping (kInvalidPfn when unmapped). @p spaceOf(pid) returns
 * the process' address space or nullptr. Frames are never remapped
 * once a page is touched, so after a first pass this holds for every
 * later pass.
 */
template <class SpaceOf>
std::vector<mem::Pfn>
expectedFrames(const trace::Trace &tr, SpaceOf spaceOf)
{
    std::vector<mem::Pfn> exp;
    for (const auto &rec : tr) {
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        const mem::AddressSpace *s = spaceOf(rec.pid);
        mem::Vpn start = mem::pageOf(rec.va);
        for (std::size_t i = 0; i < npages; ++i) {
            std::optional<mem::Pfn> pfn =
                s ? s->lookup(start + i) : std::optional<mem::Pfn>{};
            exp.push_back(pfn.value_or(mem::kInvalidPfn));
        }
    }
    return exp;
}

/**
 * Check one pass' translated frames against @p exp: each frame that
 * differs, or is @p garbage or invalid, is a failed translation.
 */
void checkFrames(const std::vector<mem::Pfn> &got,
                 const std::vector<mem::Pfn> &exp, mem::Pfn garbage,
                 const std::string &what, Report &r);

/** Emit every per-layer metric of @p s into @p r. */
void emitLayerMetrics(const LayerStats &s, Report &r);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * The throughput a run reports from its per-pass throughputs: their
 * 90th percentile. Passes last milliseconds, and on a host whose
 * cores are shared with other tenants the speed of the same pass
 * swings by 2x between states that last seconds; the high percentile
 * reads the passes the neighbours left alone, where the median flips
 * with whichever state dominated a run. Used by warm_hits, mt_churn
 * and the per-layer comparisons of traced and untraced phases.
 */
double passRate(std::vector<double> rates);

/**
 * xlat_per_s of warm_hits, pin_churn and paper_cold: the throughput of
 * one pass whose replay i (of @p xlat[i] translations) runs at the
 * passRate() of its throughputs @p rates[i] over the run. A warm trace
 * replay lasts about a millisecond, a cold tlbsim replay 10-55 ms, so
 * each one's fast decile is caught even when a whole pass seldom runs
 * undisturbed. On paper_cold, over eight 30-second runs during which
 * the host slowed for about a minute, it spread 0.09 where the
 * per-replay median spread 0.22.
 */
double fastPassRate(const std::vector<std::uint64_t> &xlat,
                    const std::vector<std::vector<double>> &rates);

/** CPUs this process may run on (what nproc prints). */
unsigned hostCpus();

/**
 * mt_churn's worker threads: one per application process, and never
 * more than hostCpus(), since an oversubscribed run measures the
 * scheduler.
 */
unsigned mtWorkers();

/**
 * From now on, keep freed arrays of 16 MiB or more for the next new[]
 * of the same size (kept_arrays.cpp): cold replays then stop paying the
 * kernel to map and zero a fresh PhysMemory backing store each time.
 */
void keepLargeArrays();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Translations (page probes) a trace issues. */
std::uint64_t pagesOf(const trace::Trace &tr);

/** Generate each named trace; @p genMs receives the total time. */
std::vector<trace::Trace> generate(const std::vector<std::string> &names,
                                   std::uint64_t seed, double &genMs);

/** The workloads; each fills @p r. */
void runPaperCold(const Options &o, Report &r);
void runWarmHits(const Options &o, Report &r);
void runPinChurn(const Options &o, Report &r);
void runMtChurn(const Options &o, Report &r);

} // namespace perfbench

#endif // UTLB_PERFBENCH_BENCH_HPP
