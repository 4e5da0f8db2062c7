/**
 * @file
 * The sequential workloads: paper_cold, warm_hits and pin_churn.
 *
 * paper_cold times cold tlbsim replays (simulateUtlb/simulateIntr).
 * warm_hits and pin_churn time the path vmmc::Node uses, prepare()
 * then nicTranslate() per page, on stacks built the way simulateUtlb
 * builds them. The traced run of each replays the same records
 * through the layer calls nicTranslate() is made of: cache lookup,
 * then host-table walk and cache install on a miss.
 */

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "spans.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

namespace {

using mem::Pfn;
using mem::ProcId;
using mem::Vpn;

const std::vector<std::string> kPaperTraces = {
    "fft", "lu", "barnes", "radix", "raytrace", "volrend", "water"};
/** Footprints of 1.9-2.4 K pages: they fit the 8 K-entry cache. */
const std::vector<std::string> kWarmTraces = {"barnes", "volrend", "water"};
/** Footprints of 6.4-12.5 K pages: far over the pin limit. */
const std::vector<std::string> kChurnTraces = {"fft", "lu", "radix"};

/**
 * The paper's default configuration (SimConfig's defaults: 8192-entry
 * direct-mapped cache with index offsetting, prefetch 1, LRU, per-page
 * pre-pinning) with tlbsim's use of one seed for trace and policy.
 */
tlbsim::SimConfig
paperConfig(std::uint64_t seed, std::size_t memLimitPages)
{
    tlbsim::SimConfig cfg;
    cfg.seed = seed;
    cfg.memLimitPages = memLimitPages;
    return cfg;
}

/** Frames a node gets: the sizing rule simulateUtlb uses. */
std::size_t
framesFor(const trace::Trace &tr)
{
    return trace::measure(tr).distinctPages * 10 + 2048;
}

/**
 * Hill's three-C classification of NIC cache misses: compulsory on a
 * page's first probe, capacity when a fully-associative LRU cache of
 * the same size would also miss, conflict otherwise.
 */
class MissClassifier
{
  public:
    explicit MissClassifier(std::size_t capacity) : cap(capacity) {}

    void
    probe(ProcId pid, Vpn vpn, bool missed, Modeled &m)
    {
        std::uint64_t key = (static_cast<std::uint64_t>(pid) << 40) | vpn;
        bool first = seen.insert(key).second;
        bool shadowHit = touch(key);
        if (!missed)
            return;
        if (first)
            ++m.compulsoryMisses;
        else if (!shadowHit)
            ++m.capacityMisses;
        else
            ++m.conflictMisses;
    }

  private:
    /** LRU-touch @p key in the shadow. @return prior residency. */
    bool
    touch(std::uint64_t key)
    {
        auto it = where.find(key);
        if (it != where.end()) {
            lru.splice(lru.end(), lru, it->second);
            return true;
        }
        where.emplace(key, lru.insert(lru.end(), key));
        if (where.size() > cap) {
            where.erase(lru.front());
            lru.pop_front();
        }
        return false;
    }

    std::size_t cap;
    std::unordered_set<std::uint64_t> seen;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        where;
};

/** One node's UTLB stack, built as simulateUtlb builds it. */
struct UtlbNode {
    UtlbNode(const trace::Trace &tr, const tlbsim::SimConfig &c)
        : cfg(c), phys(framesFor(tr)), sram(4u << 20),
          costs(c.hostProfile), cache(c.cache, timings, &sram),
          driver(phys, pins, sram, cache, costs)
    {}

    /** The process' view, created on its first record. */
    core::UserUtlb &
    view(ProcId pid)
    {
        auto it = procs.find(pid);
        if (it == procs.end()) {
            Proc p;
            p.space = std::make_unique<mem::AddressSpace>(pid, phys);
            driver.registerProcess(*p.space);
            core::UtlbConfig ucfg;
            ucfg.prefetchEntries = cfg.prefetchEntries;
            ucfg.pin.memLimitPages = cfg.memLimitPages;
            ucfg.pin.policy = cfg.policy;
            ucfg.pin.prepinPages = cfg.prepinPages;
            ucfg.pin.seed = cfg.seed + pid;
            p.utlb = std::make_unique<core::UserUtlb>(driver, cache,
                                                      timings, pid, ucfg);
            it = procs.emplace(pid, std::move(p)).first;
        }
        return *it->second.utlb;
    }

    const mem::AddressSpace *
    space(ProcId pid) const
    {
        auto it = procs.find(pid);
        return it == procs.end() ? nullptr : it->second.space.get();
    }

    void
    audit(check::AuditReport &rep) const
    {
        cache.audit(rep);
        driver.audit(rep);
        for (const auto &[pid, p] : procs)
            p.utlb->pinManager().audit(rep);
    }

    Pfn garbage() const { return driver.garbageFrame(); }

    tlbsim::SimConfig cfg;
    mem::PhysMemory phys;
    mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;

    struct Proc {
        std::unique_ptr<mem::AddressSpace> space;
        std::unique_ptr<core::UserUtlb> utlb;
    };
    std::unordered_map<ProcId, Proc> procs;

    /** readRun scratch for the decomposed miss path. */
    std::vector<std::optional<Pfn>> runBuf;
};

/** One node's interrupt-baseline stack, built as simulateIntr does. */
struct IntrNode {
    IntrNode(const trace::Trace &tr, const tlbsim::SimConfig &c)
        : cfg(c), phys(framesFor(tr)), costs(c.hostProfile),
          cache(c.cache, timings), intr(pins, cache, costs, timings)
    {}

    void
    ensure(ProcId pid)
    {
        if (spaces.count(pid))
            return;
        auto space = std::make_unique<mem::AddressSpace>(pid, phys);
        pins.registerSpace(*space);
        if (cfg.memLimitPages != 0)
            pins.setPinLimit(pid, cfg.memLimitPages);
        spaces.emplace(pid, std::move(space));
    }

    const mem::AddressSpace *
    space(ProcId pid) const
    {
        auto it = spaces.find(pid);
        return it == spaces.end() ? nullptr : it->second.get();
    }

    void
    audit(check::AuditReport &rep) const
    {
        cache.audit(rep);
        pins.audit(rep);
    }

    /** The baseline has no garbage frame; failures read as invalid. */
    Pfn garbage() const { return mem::kInvalidPfn; }

    tlbsim::SimConfig cfg;
    mem::PhysMemory phys;
    mem::PinFacility pins;
    utlb::nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::InterruptTlb intr;
    std::unordered_map<ProcId, std::unique_ptr<mem::AddressSpace>> spaces;
};

/** simulateUtlb's per-probe NIC-side accounting. */
void
countProbe(sim::Tick cost, bool miss, Modeled &m, bool &anyMiss)
{
    ++m.probes;
    m.nicTime += cost;
    if (miss) {
        ++m.niMissProbes;
        anyMiss = true;
    }
}

/**
 * One pass of @p tr through the path vmmc::Node uses: prepare(),
 * then nicTranslate() per page. Appends one frame per page to @p out
 * (kInvalidPfn for pages of a lookup whose pinning failed).
 */
void
replayNode(UtlbNode &n, const trace::Trace &tr, Modeled &m,
           std::vector<Pfn> &out)
{
    for (const auto &rec : tr) {
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        core::UserUtlb &u = n.view(rec.pid);
        core::EnsureResult host = u.prepare(rec.va, rec.nbytes);
        countHost(n.costs.userCheck(), host, m);
        if (!host.ok) {
            out.insert(out.end(), npages, mem::kInvalidPfn);
            continue;
        }
        Vpn start = mem::pageOf(rec.va);
        bool anyMiss = false;
        for (std::size_t i = 0; i < npages; ++i) {
            core::NicLookup nl = u.nicTranslate(start + i);
            countProbe(nl.cost, nl.miss, m, anyMiss);
            out.push_back(nl.pfn);
        }
        if (anyMiss)
            ++m.niMissLookups;
    }
}

/**
 * The miss half of nicTranslate() as separate layer calls: walk the
 * host table (pageTableShared + readRun), then install what it holds.
 * prepare() pinned the page, so the §3.1 fault path is never needed;
 * a missing entry returns kInvalidPfn, which the output check rejects.
 */
template <class S>
Pfn
missByLayers(UtlbNode &n, ProcId pid, Vpn vpn, S &spans, sim::Tick &cost)
{
    std::vector<std::optional<Pfn>> &run = n.runBuf;
    spans.call(Layer::Walk, [&] {
        core::HostPageTable *table = n.driver.pageTableShared(pid);
        if (table)
            table->readRun(vpn, n.cfg.prefetchEntries, run);
        else
            run.clear();
    });
    if (run.empty() || !run[0])
        return mem::kInvalidPfn;
    spans.call(Layer::Install, [&] {
        for (std::size_t i = 0; i < run.size(); ++i) {
            if (run[i])
                n.cache.insert(pid, vpn + i, *run[i],
                               i == 0 ? core::InsertMode::Demand
                                      : core::InsertMode::Prefetch);
        }
    });
    cost += n.timings.missHandleCost(run.size());
    return *run[0];
}

/**
 * One pass of @p tr through the UTLB layer calls: prepare(), then per
 * page (peek and the three-C classifier when @p cls is set, as
 * simulateUtlb does) a cache lookup and, on a miss, missByLayers().
 */
template <class S>
void
replayLayers(UtlbNode &n, const trace::Trace &tr, MissClassifier *cls,
             S &spans, Modeled &m, std::vector<Pfn> &out)
{
    for (const auto &rec : tr) {
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        core::UserUtlb &u = n.view(rec.pid);
        spans.beginRecord();
        core::EnsureResult host = spans.call(
            Layer::Pin, [&] { return u.prepare(rec.va, rec.nbytes); });
        countHost(n.costs.userCheck(), host, m);
        if (!host.ok) {
            out.insert(out.end(), npages, mem::kInvalidPfn);
            spans.endRecord();
            continue;
        }
        Vpn start = mem::pageOf(rec.va);
        bool anyMiss = false;
        for (std::size_t i = 0; i < npages; ++i) {
            Vpn vpn = start + i;
            if (cls) {
                bool wouldHit = spans.call(Layer::Probe, [&] {
                    return n.cache.peek(rec.pid, vpn).has_value();
                });
                spans.call(Layer::Classify,
                           [&] { cls->probe(rec.pid, vpn, !wouldHit, m); });
            }
            core::CacheProbe p = spans.call(
                Layer::Probe, [&] { return n.cache.lookup(rec.pid, vpn); });
            sim::Tick cost = p.cost;
            Pfn pfn = p.hit ? p.pfn
                            : missByLayers(n, rec.pid, vpn, spans, cost);
            countProbe(cost, !p.hit, m, anyMiss);
            out.push_back(pfn);
        }
        if (anyMiss)
            ++m.niMissLookups;
        spans.endRecord();
    }
}

/** One pass of @p tr through InterruptTlb::translate, per page. */
template <class S>
void
replayIntr(IntrNode &n, const trace::Trace &tr, MissClassifier *cls,
           S &spans, Modeled &m, std::vector<Pfn> &out)
{
    for (const auto &rec : tr) {
        n.ensure(rec.pid);
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        spans.beginRecord();
        ++m.lookups;
        Vpn start = mem::pageOf(rec.va);
        bool anyMiss = false;
        for (std::size_t i = 0; i < npages; ++i) {
            Vpn vpn = start + i;
            if (cls) {
                bool wouldHit = spans.call(Layer::Probe, [&] {
                    return n.cache.peek(rec.pid, vpn).has_value();
                });
                spans.call(Layer::Classify,
                           [&] { cls->probe(rec.pid, vpn, !wouldHit, m); });
            }
            core::IntrLookup lk = spans.call(
                Layer::Intr, [&] { return n.intr.translate(rec.pid, vpn); });
            countProbe(lk.cost, lk.miss, m, anyMiss);
            if (lk.miss) {
                ++m.interrupts;
                ++m.pagesPinned;
                m.pinTime += n.costs.kernelPinCost();
            }
            m.pagesUnpinned += lk.unpins;
            m.unpinTime += static_cast<sim::Tick>(lk.unpins)
                * n.costs.kernelUnpinCost();
            out.push_back(lk.failed ? mem::kInvalidPfn : lk.pfn);
        }
        if (anyMiss)
            ++m.niMissLookups;
        spans.endRecord();
    }
}

/** Address-space lookup of a node, for expectedFrames(). */
template <class Node>
auto
spaceOf(const Node &n)
{
    return [&n](ProcId pid) { return n.space(pid); };
}

/** Run the auditors of @p n; any finding is a problem. */
template <class Node>
void
auditNode(const Node &n, const std::string &what, Report &r)
{
    check::AuditReport rep;
    n.audit(rep);
    if (!rep.ok())
        r.problem(what + ": audit failed: " + rep.summary());
}

/** The replay of @p what must reproduce the timed run's outputs. */
void
compare(const Modeled &got, const Modeled &want, const std::string &what,
        Report &r)
{
    if (!(got == want))
        r.problem(what + ": modeled outputs differ from the timed run");
}

/** Counters of one node over a phase, for the mem and cache layers. */
template <class Node>
void
addNodeCounters(const Node &n, LayerStats &ls)
{
    ls.framesAllocated += n.phys.allocatedFrames();
    ls.pinOps += n.pins.totalPinOps() + n.pins.totalUnpinOps();
}

// ---------------------------------------------------------------- paper_cold

void
addColdCounters(const UtlbNode &n, const Modeled &m, LayerStats &ls)
{
    ls.utlb += m;
    ls.evictions += n.cache.evictions();
    ls.invalidations += n.cache.invalidations();
}

void
addColdCounters(const IntrNode &n, const Modeled &, LayerStats &ls)
{
    ls.intrMisses += n.intr.misses();
}

/**
 * One cold replay of @p tr on a fresh node, checked against @p ref
 * (the tlbsim replay of phase A). @p replay(node, classifier, modeled,
 * frames) runs the records. @return wall ns of building the node,
 * replaying and destroying it: what one tlbsim call spends.
 */
template <class Node, class Replay>
double
coldReplay(const trace::Trace &tr, const tlbsim::SimConfig &cfg,
           bool classify, Replay replay, const Modeled &ref,
           const std::string &what, Report &r, LayerStats &ls)
{
    std::vector<Pfn> got;
    Modeled m;
    Clock::time_point t0 = Clock::now();
    auto n = std::make_unique<Node>(tr, cfg);
    MissClassifier cls(cfg.cache.entries);
    replay(*n, classify ? &cls : nullptr, m, got);
    double ns = nsBetween(t0, Clock::now());

    r.attempted += got.size();
    compare(classify ? m : m.withoutThreeC(),
            classify ? ref : ref.withoutThreeC(), what, r);
    checkFrames(got, expectedFrames(tr, spaceOf(*n)), n->garbage(), what,
                r);
    auditNode(*n, what, r);
    ls.allXlat += m.probes;
    addNodeCounters(*n, ls);
    addColdCounters(*n, m, ls);

    Clock::time_point t1 = Clock::now();
    n.reset();
    return ns + nsBetween(t1, Clock::now());
}

/**
 * One decomposed cold round: every trace on fresh UTLB and Intr
 * nodes. @return wall ns, as coldReplay() counts it.
 */
template <class S>
double
coldRound(const std::vector<trace::Trace> &traces,
          const tlbsim::SimConfig &cfg, bool classify, S &spans,
          const std::vector<Modeled> &refU, const std::vector<Modeled> &refI,
          Report &r, LayerStats &ls)
{
    double wallNs = 0;
    for (std::size_t k = 0; k < traces.size(); ++k) {
        const trace::Trace &tr = traces[k];
        wallNs += coldReplay<UtlbNode>(
            tr, cfg, classify,
            [&](UtlbNode &n, MissClassifier *cls, Modeled &m,
                std::vector<Pfn> &out) {
                replayLayers(n, tr, cls, spans, m, out);
            },
            refU[k], kPaperTraces[k] + " utlb", r, ls);
        wallNs += coldReplay<IntrNode>(
            tr, cfg, classify,
            [&](IntrNode &n, MissClassifier *cls, Modeled &m,
                std::vector<Pfn> &out) {
                replayIntr(n, tr, cls, spans, m, out);
            },
            refI[k], kPaperTraces[k] + " intr", r, ls);
    }
    return wallNs;
}

// ------------------------------------------------- warm_hits and pin_churn

/** The nodes of a repeatedly replayed workload, warmed up. */
struct WarmSet {
    std::vector<std::unique_ptr<UtlbNode>> nodes;
    std::vector<Modeled> warmup;               //!< per trace
    std::vector<std::vector<Pfn>> warmFrames;  //!< per trace, warm-up
    std::vector<std::vector<Pfn>> expected;    //!< per trace
};

WarmSet
warmUp(const std::vector<trace::Trace> &traces,
       const tlbsim::SimConfig &cfg)
{
    WarmSet s;
    for (const trace::Trace &tr : traces) {
        s.nodes.push_back(std::make_unique<UtlbNode>(tr, cfg));
        Modeled m;
        std::vector<Pfn> got;
        replayNode(*s.nodes.back(), tr, m, got);
        s.warmup.push_back(m);
        s.warmFrames.push_back(std::move(got));
        s.expected.push_back(expectedFrames(tr, spaceOf(*s.nodes.back())));
    }
    return s;
}

/**
 * Check the frames of @p s's warm-up pass, the only pass that misses
 * on warm_hits: what nicTranslate() returns from its miss service.
 */
void
checkWarmUp(const WarmSet &s, const std::vector<std::string> &names,
            Report &r)
{
    for (std::size_t k = 0; k < names.size(); ++k) {
        r.attempted += s.warmFrames[k].size();
        checkFrames(s.warmFrames[k], s.expected[k], s.nodes[k]->garbage(),
                    names[k] + " warm-up", r);
    }
}

/** The mem and cache counters of every node in @p s, summed. */
LayerStats
nodeCounters(const WarmSet &s)
{
    LayerStats c;
    for (const auto &n : s.nodes) {
        addNodeCounters(*n, c);
        c.evictions += n->cache.evictions();
        c.invalidations += n->cache.invalidations();
    }
    return c;
}

/** Timed passes of one phase: wall and modeled outputs per pass. */
struct Passes {
    std::vector<double> rate;                  //!< translations/s
    std::vector<std::vector<double>> traceRate;  //!< [trace][pass]
    std::vector<std::vector<Modeled>> modeled; //!< [pass][trace]
    double wallNs = 0;

    /** xlat_per_s: see fastPassRate(). */
    double
    fastRate(const WarmSet &s) const
    {
        std::vector<std::uint64_t> pages;
        for (const std::vector<Pfn> &e : s.expected)
            pages.push_back(e.size());
        return fastPassRate(pages, traceRate);
    }
};

/**
 * Replay every trace of @p s once per pass until @p seconds of wall
 * time have gone (at least one pass), checking each pass' frames.
 * @p replay(node, trace, modeled, out) runs one trace; @p between()
 * runs after each pass.
 */
template <class Replay, class Between>
Passes
timedPasses(WarmSet &s, const std::vector<trace::Trace> &traces,
            const std::vector<std::string> &names, double seconds,
            Replay replay, Report &r, Between between)
{
    Passes ps;
    ps.traceRate.resize(traces.size());
    std::vector<std::vector<Pfn>> got(traces.size());
    for (std::size_t k = 0; k < traces.size(); ++k)
        got[k].reserve(s.expected[k].size());
    Clock::time_point start = Clock::now();
    do {
        double wallNs = 0;
        double xlat = 0;
        std::vector<Modeled> pass(traces.size());
        for (std::size_t k = 0; k < traces.size(); ++k) {
            got[k].clear();
            Clock::time_point t0 = Clock::now();
            replay(*s.nodes[k], traces[k], pass[k], got[k]);
            double ns = nsBetween(t0, Clock::now());
            wallNs += ns;
            xlat += static_cast<double>(got[k].size());
            ps.traceRate[k].push_back(
                static_cast<double>(got[k].size()) / (ns * 1e-9));
        }
        for (std::size_t k = 0; k < traces.size(); ++k) {
            r.attempted += got[k].size();
            checkFrames(got[k], s.expected[k], s.nodes[k]->garbage(),
                        names[k], r);
        }
        ps.rate.push_back(xlat / (wallNs * 1e-9));
        ps.modeled.push_back(std::move(pass));
        ps.wallNs += wallNs;
        between();
    } while (secondsSince(start) < seconds);
    for (std::size_t k = 0; k < traces.size(); ++k)
        auditNode(*s.nodes[k], names[k], r);
    return ps;
}

/** warm_hits and pin_churn: the same replay on their own traces. */
void
runReplayed(const Options &o, Report &r,
            const std::vector<std::string> &names, std::size_t memLimit)
{
    tlbsim::SimConfig cfg = paperConfig(o.seed, memLimit);

    // Set-up, timed repeatedly: generate, build, warm-up pass.
    SetupTimes setups;
    std::vector<double> genMs;
    std::vector<trace::Trace> traces;
    WarmSet set;
    while (setups.beforeTiming()) {
        set = WarmSet{};  // free the previous stacks before timing
        setups.time([&] {
            double g = 0;
            traces = generate(names, o.seed, g);
            set = warmUp(traces, cfg);
            genMs.push_back(g);
        });
    }
    checkWarmUp(set, names, r);

    // Phase A: the vmmc::Node path, tracing off.
    std::vector<trace::Trace> spareTraces;
    WarmSet spare;
    Passes a = timedPasses(
        set, traces, names, o.trace ? o.seconds / 2 : o.seconds,
        [](UtlbNode &n, const trace::Trace &tr, Modeled &m,
           std::vector<Pfn> &out) { replayNode(n, tr, m, out); },
        r, [&] {
            if (o.trace)
                return;
            setups.between([&] {
                double g = 0;
                spareTraces = generate(names, o.seed, g);
                spare = warmUp(spareTraces, cfg);
            });
            spare = WarmSet{};
        });

    // Modeled outputs for the reference: warm-up and first timed pass.
    std::ostringstream js;
    {
        sim::JsonWriter w(js, false);
        w.beginObject();
        for (std::size_t k = 0; k < names.size(); ++k) {
            w.beginObject(names[k]);
            set.warmup[k].write(w, "warmup");
            a.modeled[0][k].write(w, "pass1");
            w.endObject();
        }
        w.endObject();
    }
    r.modeledJson = js.str();

    if (!o.trace) {
        r.metric("xlat_per_s", a.fastRate(set), "1/s");
        r.metric("setup_s", setups.median(), "s");
        r.setupReps = setups.count();
        r.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Phase C: the same records on fresh nodes, layer by layer, traced.
    LayerStats ls;
    ls.genMs = median(genMs);
    std::vector<Modeled> warmA = std::move(set.warmup);
    set = WarmSet{};
    WarmSet fresh = warmUp(traces, cfg);
    checkWarmUp(fresh, names, r);
    for (std::size_t k = 0; k < names.size(); ++k)
        compare(fresh.warmup[k], warmA[k], names[k] + " warm-up", r);
    LayerStats before = nodeCounters(fresh);
    Spans spans("record");
    Passes c = timedPasses(
        fresh, traces, names, o.seconds / 2,
        [&](UtlbNode &n, const trace::Trace &tr, Modeled &m,
            std::vector<Pfn> &out) {
            replayLayers(n, tr, nullptr, spans, m, out);
        },
        r, [] {});
    for (std::size_t p = 0; p < c.modeled.size(); ++p) {
        for (std::size_t k = 0; k < names.size(); ++k) {
            if (p < a.modeled.size())
                compare(c.modeled[p][k], a.modeled[p][k],
                        names[k] + " pass " + std::to_string(p + 1), r);
            ls.utlb += c.modeled[p][k];
        }
    }
    LayerStats after = nodeCounters(fresh);
    ls.framesAllocated = after.framesAllocated - before.framesAllocated;
    ls.pinOps = after.pinOps - before.pinOps;
    ls.evictions = after.evictions - before.evictions;
    ls.invalidations = after.invalidations - before.invalidations;
    ls.allXlat = ls.utlb.probes;
    ls.spans = spans.totals();
    ls.tracedWallNs = c.wallNs;
    ls.tracedRate = passRate(c.rate);
    ls.untracedRate = passRate(a.rate);
    emitLayerMetrics(ls, r);
    if (!o.traceOut.empty() && !Spans::writeChrome(o.traceOut, {&spans}))
        r.problem("cannot write " + o.traceOut);
}

} // namespace

void
runPaperCold(const Options &o, Report &r)
{
    // Set-up, timed repeatedly: the seven traces.
    SetupTimes setups;
    std::vector<double> genMs;
    std::vector<trace::Trace> traces, spare;
    while (setups.beforeTiming()) {
        traces.clear();
        setups.time([&] {
            double g = 0;
            traces = generate(kPaperTraces, o.seed, g);
            genMs.push_back(g);
        });
    }
    tlbsim::SimConfig cfg = paperConfig(o.seed, 0);
    std::size_t n = traces.size();
    keepLargeArrays();

    // Phase A: cold tlbsim replays, tracing off. Every round must
    // reproduce the first round's modeled outputs.
    std::vector<Modeled> refU(n), refI(n);
    std::vector<double> rate;  // per round
    std::vector<std::vector<double>> replayRate(2 * n);  // per replay
    Clock::time_point start = Clock::now();
    for (bool first = true;
         first || secondsSince(start) < (o.trace ? o.seconds / 3 : o.seconds);
         first = false) {
        double wallNs = 0;
        double xlat = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t pages = pagesOf(traces[k]);
            for (int mech = 0; mech < 2; ++mech) {
                Clock::time_point t0 = Clock::now();
                tlbsim::SimResult res = mech == 0
                    ? tlbsim::simulateUtlb(traces[k], cfg)
                    : tlbsim::simulateIntr(traces[k], cfg);
                double ns = nsBetween(t0, Clock::now());
                wallNs += ns;
                replayRate[2 * k + mech].push_back(
                    static_cast<double>(res.probes) / (ns * 1e-9));
                Modeled m = Modeled::of(res);
                Modeled &ref = mech == 0 ? refU[k] : refI[k];
                std::string what =
                    kPaperTraces[k] + (mech == 0 ? " utlb" : " intr");
                if (first)
                    ref = m;
                else if (!(m == ref))
                    r.problem(what + ": a cold replay's modeled outputs "
                                     "changed between rounds");
                r.attempted += pages;
                if (res.probes < pages) {
                    r.failed += pages - res.probes;
                    r.problem(what + ": lookups failed to pin");
                }
                xlat += static_cast<double>(res.probes);
            }
        }
        rate.push_back(xlat / (wallNs * 1e-9));
        if (!o.trace) {
            setups.between([&] {
                double g = 0;
                spare = generate(kPaperTraces, o.seed, g);
            });
            spare.clear();
        }
    }

    std::ostringstream js;
    {
        sim::JsonWriter w(js, false);
        w.beginObject();
        for (std::size_t k = 0; k < n; ++k) {
            w.beginObject(kPaperTraces[k]);
            refU[k].write(w, "utlb");
            refI[k].write(w, "intr");
            w.endObject();
        }
        w.endObject();
    }
    r.modeledJson = js.str();

    LayerStats ls;
    if (!o.trace) {
        // Output check: one decomposed round over the same records,
        // with the classifier, must reproduce phase A; its frames and
        // audits are checked on the way.
        NoSpans none;
        coldRound(traces, cfg, true, none, refU, refI, r, ls);
        std::vector<std::uint64_t> probes;
        for (std::size_t k = 0; k < n; ++k) {
            probes.push_back(refU[k].probes);
            probes.push_back(refI[k].probes);
        }
        r.metric("xlat_per_s", fastPassRate(probes, replayRate), "1/s");
        r.metric("setup_s", setups.median(), "s");
        r.setupReps = setups.count();
        r.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Phase B: the layer calls alone (no classifier, no spans).
    std::vector<double> bRate;
    start = Clock::now();
    do {
        LayerStats scratch;
        NoSpans none;
        double ns = coldRound(traces, cfg, false, none, refU, refI, r,
                              scratch);
        bRate.push_back(static_cast<double>(scratch.allXlat) / (ns * 1e-9));
    } while (secondsSince(start) < o.seconds / 3);

    // Phase C: traced, classifier included, as simulateUtlb runs it.
    Spans spans("record");
    std::vector<double> cRate;
    start = Clock::now();
    do {
        std::uint64_t before = ls.allXlat;
        double ns = coldRound(traces, cfg, true, spans, refU, refI, r, ls);
        ls.tracedWallNs += ns;
        cRate.push_back(static_cast<double>(ls.allXlat - before)
                        / (ns * 1e-9));
    } while (secondsSince(start) < o.seconds / 3);

    ls.genMs = median(genMs);
    ls.tlbsimSelfShare = 1.0 - passRate(rate) / passRate(bRate);
    ls.spans = spans.totals();
    ls.untracedRate = passRate(rate);
    ls.tracedRate = passRate(cRate);
    emitLayerMetrics(ls, r);
    if (!o.traceOut.empty() && !Spans::writeChrome(o.traceOut, {&spans}))
        r.problem("cannot write " + o.traceOut);
}

void
runWarmHits(const Options &o, Report &r)
{
    runReplayed(o, r, kWarmTraces, 0);
}

void
runPinChurn(const Options &o, Report &r)
{
    runReplayed(o, r, kChurnTraces, kPaperPinLimit);
}

} // namespace perfbench
