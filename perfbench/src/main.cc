/**
 * @file
 * m4ps_perfbench: runs one workload of the repository benchmark and
 * prints its result line (README.md).
 *
 *   m4ps_perfbench --workload <study_pal|job_cif_soft|serve_qcif_open>
 *                  --seed N --seconds S --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 switches obs
 * tracing on for half of the operations and prints the per-layer
 * metrics.  Exit 0 when the workload ran (its checks are reported in
 * the result line), 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "support/threadpool.hh"
#include "workloads.hh"

namespace pb
{

void
addEndToEnd(Result &r, const EndToEnd &e)
{
    r.add("setup_s", median(e.setupS), "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("frames_per_s", e.phaseS > 0 ? e.frames / e.phaseS : 0, "1/s");
    r.add("op_p50_ms", median(e.opMs), "ms");
    r.add("psnr_db", e.psnrDb, "dB");
    r.add("op_p90_ms", quantile(e.opMs, 0.9), "ms");
}

void
addObsMetrics(Result &r, const std::vector<double> &untracedMs,
              const std::vector<double> &tracedMs, double attributedMs)
{
    const double base = median(untracedMs);
    r.add("obs.overhead_pct",
          base > 0 ? (median(tracedMs) - base) / base * 100 : 0, "%");
    r.add("unattributed_ms", base - attributedMs, "ms");
}

} // namespace pb

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "m4ps_perfbench: %s\n"
                 "usage: m4ps_perfbench --workload "
                 "<study_pal|job_cif_soft|serve_qcif_open> --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            o.seconds = std::atoi(v);
        else if (flag == "--trace")
            o.trace = std::atoi(v) != 0;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (o.seconds < 1)
        return usage("--seconds must be >= 1");

    // One codec thread: host timing must not depend on the pool width.
    m4ps::support::ThreadPool::setGlobalThreads(1);

    pb::Result r;
    int rc = 2;
    try {
        if (o.workload == "study_pal")
            rc = pb::runStudy(o, r);
        else if (o.workload == "job_cif_soft")
            rc = pb::runJob(o, r);
        else if (o.workload == "serve_qcif_open")
            rc = pb::runServe(o, r);
        else
            return usage(("unknown workload '" + o.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "m4ps_perfbench: %s\n", e.what());
        return 1;
    }
    if (rc != 0)
        return rc;
    std::printf("%s\n", r.json().c_str());
    return 0;
}
