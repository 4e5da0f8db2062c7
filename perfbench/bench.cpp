#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "trace/workloads.hpp"

namespace perfbench {

Modeled &
Modeled::operator+=(const Modeled &o)
{
    lookups += o.lookups;
    probes += o.probes;
    checkMissLookups += o.checkMissLookups;
    niMissLookups += o.niMissLookups;
    niMissProbes += o.niMissProbes;
    pagesPinned += o.pagesPinned;
    pagesUnpinned += o.pagesUnpinned;
    pinIoctls += o.pinIoctls;
    interrupts += o.interrupts;
    hostTime += o.hostTime;
    pinTime += o.pinTime;
    unpinTime += o.unpinTime;
    nicTime += o.nicTime;
    compulsoryMisses += o.compulsoryMisses;
    capacityMisses += o.capacityMisses;
    conflictMisses += o.conflictMisses;
    return *this;
}

Modeled
Modeled::withoutThreeC() const
{
    Modeled m = *this;
    m.compulsoryMisses = m.capacityMisses = m.conflictMisses = 0;
    return m;
}

Modeled
Modeled::of(const tlbsim::SimResult &r)
{
    Modeled m;
    m.lookups = r.lookups;
    m.probes = r.probes;
    m.checkMissLookups = r.checkMissLookups;
    m.niMissLookups = r.niMissLookups;
    m.niMissProbes = r.niMissProbes;
    m.pagesPinned = r.pagesPinned;
    m.pagesUnpinned = r.pagesUnpinned;
    m.pinIoctls = r.pinIoctls;
    m.interrupts = r.interrupts;
    m.hostTime = r.hostTime;
    m.pinTime = r.pinTime;
    m.unpinTime = r.unpinTime;
    m.nicTime = r.nicTime;
    m.compulsoryMisses = r.compulsoryMisses;
    m.capacityMisses = r.capacityMisses;
    m.conflictMisses = r.conflictMisses;
    return m;
}

void
Modeled::write(sim::JsonWriter &w, std::string_view key) const
{
    // Field names follow tlbsim's utlb-stats-v1 "results" object;
    // modeled times stay in exact integer ticks (picoseconds).
    w.beginObject(key);
    w.field("lookups", lookups);
    w.field("probes", probes);
    w.field("check_miss_lookups", checkMissLookups);
    w.field("ni_miss_lookups", niMissLookups);
    w.field("ni_miss_probes", niMissProbes);
    w.field("pages_pinned", pagesPinned);
    w.field("pages_unpinned", pagesUnpinned);
    w.field("pin_ioctls", pinIoctls);
    w.field("interrupts", interrupts);
    w.field("host_time_ps", std::uint64_t{hostTime});
    w.field("pin_time_ps", std::uint64_t{pinTime});
    w.field("unpin_time_ps", std::uint64_t{unpinTime});
    w.field("nic_time_ps", std::uint64_t{nicTime});
    w.field("compulsory_misses", compulsoryMisses);
    w.field("capacity_misses", capacityMisses);
    w.field("conflict_misses", conflictMisses);
    w.endObject();
}

void
Report::problem(std::string what)
{
    // Keep the first few findings; a broken stack repeats itself.
    if (problems.size() < 20)
        problems.push_back(std::move(what));
    else if (problems.size() == 20)
        problems.push_back("... further findings omitted");
}

void
checkFrames(const std::vector<mem::Pfn> &got,
            const std::vector<mem::Pfn> &exp, mem::Pfn garbage,
            const std::string &what, Report &r)
{
    std::uint64_t bad = 0;
    if (got.size() != exp.size()) {
        bad = std::max(got.size(), exp.size());
    } else {
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] != exp[i] || got[i] == garbage
                || got[i] == mem::kInvalidPfn)
                ++bad;
        }
    }
    if (bad != 0) {
        r.failed += bad;
        r.problem(what + ": " + std::to_string(bad)
                  + " translated frames disagree with the page table");
    }
}

namespace {

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

} // namespace

void
emitLayerMetrics(const LayerStats &s, Report &r)
{
    auto calls = [&](Layer l) {
        return static_cast<double>(s.spans[static_cast<unsigned>(l)].calls);
    };
    auto selfNs = [&](Layer l) {
        return ratio(s.spans[static_cast<unsigned>(l)].ns, calls(l));
    };
    auto share = [&](Layer l) {
        return ratio(s.spans[static_cast<unsigned>(l)].ns, s.tracedWallNs);
    };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const Modeled &u = s.utlb;

    r.metric("trace.gen_ms", s.genMs, "ms");
    r.metric("tlbsim.self_share", s.tlbsimSelfShare, "ratio");
    r.metric("tlbsim.classify_share", share(Layer::Classify), "ratio");

    r.metric("pin.calls", calls(Layer::Pin), "count");
    r.metric("pin.self_ns", selfNs(Layer::Pin), "ns");
    r.metric("pin.share", share(Layer::Pin), "ratio");
    r.metric("pin.check_miss_ratio", ratio(d(u.checkMissLookups),
                                           d(u.lookups)), "ratio");
    r.metric("pin.pages_per_ioctl", ratio(d(u.pagesPinned),
                                          d(u.pinIoctls)), "pages");
    r.metric("pin.unpins_per_xlat", ratio(d(u.pagesUnpinned), d(u.probes)),
             "ratio");

    r.metric("mem.frames_per_xlat", ratio(d(s.framesAllocated),
                                          d(s.allXlat)), "ratio");
    r.metric("mem.pin_ops_per_xlat", ratio(d(s.pinOps), d(s.allXlat)),
             "ratio");

    r.metric("probe.calls", calls(Layer::Probe), "count");
    r.metric("probe.self_ns", selfNs(Layer::Probe), "ns");
    r.metric("probe.share", share(Layer::Probe), "ratio");
    r.metric("cache.hit_ratio",
             u.probes == 0 ? 0.0
                           : 1.0 - ratio(d(u.niMissProbes), d(u.probes)),
             "ratio");
    r.metric("install.calls", calls(Layer::Install), "count");
    r.metric("install.self_ns", selfNs(Layer::Install), "ns");
    r.metric("install.share", share(Layer::Install), "ratio");
    r.metric("cache.evictions_per_install",
             ratio(d(s.evictions), calls(Layer::Install)), "ratio");
    r.metric("cache.invalidations_per_xlat",
             ratio(d(s.invalidations), d(u.probes)), "ratio");

    r.metric("walk.calls", calls(Layer::Walk), "count");
    r.metric("walk.self_ns", selfNs(Layer::Walk), "ns");
    r.metric("walk.share", share(Layer::Walk), "ratio");

    r.metric("intr.calls", calls(Layer::Intr), "count");
    r.metric("intr.self_ns", selfNs(Layer::Intr), "ns");
    r.metric("intr.share", share(Layer::Intr), "ratio");
    r.metric("intr.miss_ratio", ratio(d(s.intrMisses), calls(Layer::Intr)),
             "ratio");

    r.metric("mt.scaling", s.mtScaling, "x");
    r.metric("mt.worker_skew", s.mtWorkerSkew, "x");
    r.metric("mt.window_us_p50", s.windowP50Us, "us");
    r.metric("mt.window_us_p99", s.windowP99Us, "us");

    double attributed = 0;
    for (const LayerTotal &t : s.spans)
        attributed += t.ns;
    r.metric("traced.overhead",
             s.tracedRate == 0 ? 0.0 : s.untracedRate / s.tracedRate - 1.0,
             "ratio");
    r.metric("traced.unattributed_share",
             s.unattributedShare >= 0
                 ? s.unattributedShare
                 : 1.0 - ratio(attributed, s.tracedWallNs),
             "ratio");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** Element at quantile @p q of @p v (nearest rank below). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

} // namespace

double
passRate(std::vector<double> rates)
{
    return quantile(std::move(rates), 0.9);
}

double
fastPassRate(const std::vector<std::uint64_t> &xlat,
             const std::vector<std::vector<double>> &rates)
{
    double total = 0, seconds = 0;
    for (std::size_t i = 0; i < xlat.size(); ++i) {
        auto x = static_cast<double>(xlat[i]);
        total += x;
        seconds += x / passRate(rates[i]);
    }
    return total / seconds;
}

double
SetupTimes::median() const
{
    return perfbench::median(times);
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
mtWorkers()
{
    return std::min(hostCpus(),
                    static_cast<unsigned>(trace::kAppProcs));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t
pagesOf(const trace::Trace &tr)
{
    std::uint64_t n = 0;
    for (const auto &rec : tr)
        n += mem::pagesSpanned(rec.va, rec.nbytes);
    return n;
}

std::vector<trace::Trace>
generate(const std::vector<std::string> &names, std::uint64_t seed,
         double &genMs)
{
    Clock::time_point t0 = Clock::now();
    std::vector<trace::Trace> out;
    for (const std::string &n : names)
        out.push_back(trace::generateTrace(n, seed));
    genMs = nsBetween(t0, Clock::now()) * 1e-6;
    return out;
}

} // namespace perfbench
