/**
 * @file
 * mt_churn: worker threads in one process, one per application
 * process, each driving translateRange() through its own
 * concurrent-mode UserUtlb. All views share one SharedUtlbCache and a
 * UtlbDriver with one shard per process, under the paper's 1024-page
 * pin limit, with no fill pipeline attached. This is the only
 * workload on the concurrent paths: lookupRunMT/insertMT, stripe
 * locks and seqlocks, driver shards, and the shared PinFacility and
 * PhysMemory mutexes.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "check/audit.hpp"
#include "core/driver.hpp"
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

/** One process' records: its fft records, then its lu records. */
struct Input {
    mem::ProcId pid = 0;
    trace::Trace recs;
    std::size_t distinctPages = 0;
};

std::vector<Input>
makeInputs(const std::vector<trace::Trace> &traces, unsigned procs)
{
    std::vector<Input> in(procs);
    for (unsigned p = 0; p < procs; ++p) {
        in[p].pid = p;
        std::unordered_set<mem::Vpn> seen;
        for (const trace::Trace &tr : traces) {
            for (const trace::TraceRecord &rec : tr) {
                if (rec.pid != p)
                    continue;
                in[p].recs.push_back(rec);
                std::size_t n = mem::pagesSpanned(rec.va, rec.nbytes);
                for (std::size_t i = 0; i < n; ++i)
                    seen.insert(mem::pageOf(rec.va) + i);
            }
        }
        in[p].distinctPages = seen.size();
    }
    return in;
}

/** What one pass of one input produced. */
struct Tally {
    Modeled m;
    std::vector<Pfn> frames;  //!< one per page, in record order
};

/** One translateRange() per record of @p in, closed loop. */
template <class S>
void
replayInput(core::UserUtlb &view, const Input &in, const core::HostCosts &costs,
            S &spans, Tally &t)
{
    t.frames.clear();
    for (const trace::TraceRecord &rec : in.recs) {
        std::size_t npages = mem::pagesSpanned(rec.va, rec.nbytes);
        if (npages == 0)
            continue;
        spans.beginRecord();
        core::Translation tr = view.translateRange(rec.va, rec.nbytes);
        spans.endRecord();
        // simulateUtlb's accounting of a batched lookup.
        Modeled &m = t.m;
        countHost(costs.userCheck(), tr, m);
        if (!tr.ok) {
            t.frames.insert(t.frames.end(), npages, mem::kInvalidPfn);
            continue;
        }
        m.probes += npages;
        m.nicTime += tr.nicCost;
        m.niMissProbes += tr.missPages.size();
        if (!tr.missPages.empty())
            ++m.niMissLookups;
        for (std::size_t i = 0; i < npages; ++i)
            t.frames.push_back(tr.pageAddrs[i] >> mem::kPageShift);
    }
}

/** The shared stack and one concurrent view per process. */
struct MtStack {
    explicit MtStack(const std::vector<Input> &in)
        : phys(framesFor(in)), sram(4u << 20),
          costs(core::HostProfile::PentiumIINT),
          cache(core::CacheConfig{8192, 1, true}, timings, &sram),
          driver(phys, pins, sram, cache, costs,
                 static_cast<unsigned>(in.size()))
    {
        for (const Input &i : in) {
            spaces.push_back(std::make_unique<mem::AddressSpace>(i.pid, phys));
            driver.registerProcess(*spaces.back());
            core::UtlbConfig ucfg;
            ucfg.concurrent = true;
            ucfg.pin.memLimitPages = kPaperPinLimit;
            views.push_back(std::make_unique<core::UserUtlb>(
                driver, cache, timings, i.pid, ucfg));
        }
    }

    static std::size_t
    framesFor(const std::vector<Input> &in)
    {
        std::size_t pages = 0;
        for (const Input &i : in)
            pages += i.distinctPages;
        return pages * 2 + 2048;  // data pages, table leaves, slack
    }

    /** Fold every view's stat shard into the cache (views idle). */
    void
    flush()
    {
        for (auto &v : views)
            v->flushShardStats();
    }

    void
    audit(check::AuditReport &rep) const
    {
        cache.audit(rep);
        driver.audit(rep);
        for (const auto &v : views)
            v->pinManager().audit(rep);
    }

    mem::PhysMemory phys;
    mem::PinFacility pins;
    utlb::nic::Sram sram;
    utlb::nic::NicTimings timings;
    core::HostCosts costs;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;
    std::vector<std::unique_ptr<mem::AddressSpace>> spaces;
    std::vector<std::unique_ptr<core::UserUtlb>> views;
};

/**
 * Threads that each run body(thread) once per pass. A pass starts
 * when run() releases them all at once and ends when the last one
 * finishes.
 */
class Pool
{
  public:
    Pool(unsigned n, std::function<void(unsigned)> body)
        : work(std::move(body)), start(n + 1), done(n + 1)
    {
        for (unsigned t = 0; t < n; ++t)
            threads.emplace_back([this, t] { loop(t); });
    }

    ~Pool()
    {
        stopping.store(true);
        start.arrive_and_wait();
        for (std::thread &t : threads)
            t.join();
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Run one pass. @return wall ns from release to last finish. */
    double
    run()
    {
        Clock::time_point t0 = Clock::now();
        start.arrive_and_wait();
        done.arrive_and_wait();
        return nsBetween(t0, Clock::now());
    }

  private:
    void
    loop(unsigned t)
    {
        for (;;) {
            start.arrive_and_wait();
            if (stopping.load())
                return;
            work(t);
            done.arrive_and_wait();
        }
    }

    std::function<void(unsigned)> work;
    std::barrier<> start;
    std::barrier<> done;
    std::atomic<bool> stopping{false};
    std::vector<std::thread> threads;
};

/**
 * One stack driven by @p nthreads threads: thread t replays the
 * inputs t, t + nthreads, ... each pass. With one thread, that is
 * every input in turn: the 1-worker run of the same per-worker inputs.
 */
class Run
{
  public:
    Run(const std::vector<Input> &in, unsigned nthreads, bool traced)
        : inputs(&in), stack(in), tallies(in.size()), busyNs(nthreads, 0.0)
    {
        for (unsigned t = 0; t < nthreads; ++t)
            spans.push_back(std::make_unique<Spans>("translateRange", t));
        pool = std::make_unique<Pool>(nthreads, [this, nthreads](unsigned t) {
            Clock::time_point t0 = Clock::now();
            for (std::size_t v = t; v < inputs->size(); v += nthreads) {
                if (tracing) {
                    replayInput(*stack.views[v], (*inputs)[v], stack.costs,
                                *spans[t], tallies[v]);
                } else {
                    NoSpans none;
                    replayInput(*stack.views[v], (*inputs)[v], stack.costs,
                                none, tallies[v]);
                }
            }
            busyNs[t] += nsBetween(t0, Clock::now());
        });
        // The untimed first pass pins and allocates every frame; after
        // it the frame of each page is fixed.
        pool->run();
        for (std::size_t v = 0; v < in.size(); ++v) {
            const mem::AddressSpace *space = stack.spaces[v].get();
            expected.push_back(expectedFrames(
                in[v].recs, [space](mem::ProcId) { return space; }));
            tallies[v].m = Modeled{};
        }
        std::fill(busyNs.begin(), busyNs.end(), 0.0);
        tracing = traced;
    }

    /** One timed pass, then its output check. */
    void
    pass(Report &r)
    {
        double ns = pool->run();
        double pages = 0;
        for (std::size_t v = 0; v < tallies.size(); ++v) {
            const std::vector<Pfn> &got = tallies[v].frames;
            pages += static_cast<double>(got.size());
            r.attempted += got.size();
            checkFrames(got, expected[v], stack.driver.garbageFrame(),
                        "mt_churn pid " + std::to_string(v), r);
        }
        rate.push_back(pages / (ns * 1e-9));
        wallNs += ns;
    }

    /**
     * Run passes for @p seconds (at least one), and @p between() after
     * each.
     */
    void
    passesFor(double seconds, Report &r,
              const std::function<void()> &between = [] {})
    {
        Clock::time_point start = Clock::now();
        do {
            pass(r);
            between();
        } while (secondsSince(start) < seconds);
    }

    /** Stop the threads, then run every auditor. */
    void
    finish(Report &r)
    {
        pool.reset();
        stack.flush();
        check::AuditReport rep;
        stack.audit(rep);
        if (!rep.ok())
            r.problem("mt_churn: audit failed: " + rep.summary());
    }

    const std::vector<Input> *inputs;
    MtStack stack;
    std::vector<Tally> tallies;            //!< per input (process)
    std::vector<std::vector<Pfn>> expected;
    std::vector<std::unique_ptr<Spans>> spans;  //!< per thread
    std::vector<double> busyNs;            //!< per thread, timed passes
    std::vector<double> rate;              //!< translations/s per pass
    double wallNs = 0;
    bool tracing = false;                  //!< set between passes
    std::unique_ptr<Pool> pool;            //!< last: stopped first
};

/** Library counters the mt per-layer metrics are deltas of. */
struct Counters {
    std::uint64_t checks = 0, lookups = 0, installs = 0, evictions = 0;
    std::uint64_t invalidations = 0, frames = 0, pinOps = 0;

    static Counters
    of(MtStack &s)
    {
        s.flush();
        Counters c;
        for (const auto &v : s.views)
            c.checks += v->pinManager().totalChecks();
        c.lookups = s.cache.hits() + s.cache.misses();
        c.installs = s.cache.insertions();
        c.evictions = s.cache.evictions();
        c.invalidations = s.cache.invalidations();
        c.frames = s.phys.allocatedFrames();
        c.pinOps = s.pins.totalPinOps() + s.pins.totalUnpinOps();
        return c;
    }
};

} // namespace

void
runMtChurn(const Options &o, Report &r)
{
    unsigned workers = mtWorkers();
    const std::vector<std::string> names = {"fft", "lu"};

    // Set-up, timed repeatedly: generate, build, warm-up pass.
    SetupTimes setups;
    std::vector<double> genMs;
    std::vector<Input> inputs;
    std::unique_ptr<Run> run;
    while (setups.beforeTiming()) {
        run.reset();
        setups.time([&] {
            double g = 0;
            inputs = makeInputs(generate(names, o.seed, g), workers);
            run = std::make_unique<Run>(inputs, workers, false);
            genMs.push_back(g);
        });
    }

    // Phase A: all workers, tracing off.
    std::vector<Input> spareInputs;
    std::unique_ptr<Run> spare;
    run->passesFor(o.trace ? o.seconds / 3 : o.seconds, r, [&] {
        if (o.trace)
            return;
        setups.between([&] {
            double g = 0;
            spareInputs = makeInputs(generate(names, o.seed, g), workers);
            spare = std::make_unique<Run>(spareInputs, workers, false);
        });
        spare.reset();
    });
    run->finish(r);
    double aRate = passRate(run->rate);
    if (!o.trace) {
        r.metric("xlat_per_s", aRate, "1/s");
        r.metric("setup_s", setups.median(), "s");
        r.setupReps = setups.count();
        r.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }
    run.reset();

    // Phase B: all workers, each translateRange() call a span.
    LayerStats ls;
    ls.genMs = median(genMs);
    auto traced = std::make_unique<Run>(inputs, workers, true);
    Counters before = Counters::of(traced->stack);
    traced->passesFor(o.seconds / 3, r);
    Counters after = Counters::of(traced->stack);

    for (const Tally &t : traced->tallies)
        ls.utlb += t.m;
    auto idx = [](Layer l) { return static_cast<unsigned>(l); };
    ls.spans[idx(Layer::Pin)].calls = after.checks - before.checks;
    ls.spans[idx(Layer::Probe)].calls = after.lookups - before.lookups;
    ls.spans[idx(Layer::Walk)].calls = ls.utlb.niMissProbes;
    ls.spans[idx(Layer::Install)].calls = after.installs - before.installs;
    ls.evictions = after.evictions - before.evictions;
    ls.invalidations = after.invalidations - before.invalidations;
    ls.framesAllocated = after.frames - before.frames;
    ls.pinOps = after.pinOps - before.pinOps;
    ls.allXlat = ls.utlb.probes;
    ls.tracedWallNs = traced->wallNs;
    ls.tracedRate = passRate(traced->rate);
    ls.untracedRate = aRate;

    LatencyHist windows;
    double busy = 0, inWindows = 0;
    std::vector<const Spans *> all;
    for (const auto &s : traced->spans) {
        windows.merge(s->windowHist());
        inWindows += s->windowNs();
        all.push_back(s.get());
    }
    for (double b : traced->busyNs)
        busy += b;
    ls.mtWorkerSkew = *std::max_element(traced->busyNs.begin(),
                                        traced->busyNs.end())
        / (busy / workers);
    ls.windowP50Us = windows.quantile(0.50) * 1e-3;
    ls.windowP99Us = windows.quantile(0.99) * 1e-3;
    // Worker time outside translateRange windows: the replay loop,
    // barrier wake-ups, and waiting behind the slowest worker.
    ls.unattributedShare = 1.0 - inWindows / (workers * traced->wallNs);
    traced->finish(r);
    if (!o.traceOut.empty() && !Spans::writeChrome(o.traceOut, all))
        r.problem("cannot write " + o.traceOut);
    traced.reset();

    // Phase C: one thread replays every worker's input in turn.
    Run single(inputs, 1, false);
    single.passesFor(o.seconds / 3, r);
    single.finish(r);
    ls.mtScaling = aRate / passRate(single.rate);
    emitLayerMetrics(ls, r);
}

} // namespace perfbench
