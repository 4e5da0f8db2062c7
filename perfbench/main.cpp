/**
 * @file
 * replay_bench: one run of one benchmark workload (see README.md).
 *
 *   replay_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--trace-out PATH]
 *
 * Prints, as its last line, one JSON object: correct, attempted,
 * failed, metrics (end-to-end with --trace 0, per-layer with
 * --trace 1), the output-check findings, the modeled outputs of the
 * deterministic replays, and a record of the host and build.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "sim/simd.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "replay_bench: %s\n"
                 "usage: replay_bench --workload "
                 "paper_cold|warm_hits|pin_churn|mt_churn\n"
                 "         [--seed N] [--seconds S] [--trace 0|1]\n"
                 "         [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string v = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = v;
            else if (arg == "--seed")
                o.seed = std::stoull(v);
            else if (arg == "--seconds")
                o.seconds = std::stod(v);
            else if (arg == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (arg == "--trace-out")
                o.traceOut = v;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0))
        usage("--seconds must be >= 0");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "replay_bench: refusing to time a build without "
                         "NDEBUG; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 2;
#endif
    Options o = parse(argc, argv);

    unsigned workers = o.workload == "mt_churn" ? mtWorkers() : 1;

    Report r;
    if (o.workload == "paper_cold")
        runPaperCold(o, r);
    else if (o.workload == "warm_hits")
        runWarmHits(o, r);
    else if (o.workload == "pin_churn")
        runPinChurn(o, r);
    else if (o.workload == "mt_churn")
        runMtChurn(o, r);
    else
        usage(("unknown workload " + o.workload).c_str());

    for (const std::string &p : r.problems)
        std::fprintf(stderr, "replay_bench: check failed: %s\n", p.c_str());

    std::ostringstream os;
    sim::JsonWriter w(os, false);
    w.beginObject();
    w.field("correct", r.problems.empty() && r.failed == 0);
    w.field("attempted", r.attempted);
    w.field("failed", r.failed);
    w.beginObject("metrics");
    for (const Metric &m : r.metrics) {
        w.beginObject(m.name);
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.beginArray("problems");
    for (const std::string &p : r.problems)
        w.value(p);
    w.endArray();
    if (!r.modeledJson.empty())
        w.rawField("modeled", r.modeledJson);
    w.beginObject("host");
    w.field("workload", o.workload);
    w.field("seed", o.seed);
    w.field("seconds", o.seconds);
    w.field("trace", o.trace);
    w.field("nproc", std::uint64_t{hostCpus()});
    w.field("worker_threads", std::uint64_t{workers});
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("check_level", PERFBENCH_CHECK_LEVEL);
    w.field("simd", utlb::simd::activePathName());
    w.field("setup_reps", std::uint64_t{r.setupReps});
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
    return 0;
}
