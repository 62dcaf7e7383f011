/**
 * @file
 * The three workloads (README.md) and the metric helpers they share.
 * Each run*() fills @p r and returns 0, or non-zero when the workload
 * could not run at all.
 */

#ifndef M4PS_PERFBENCH_WORKLOADS_HH
#define M4PS_PERFBENCH_WORKLOADS_HH

#include <vector>

#include "common.hh"

namespace pb
{

int runStudy(const Options &o, Result &r);
int runJob(const Options &o, Result &r);
int runServe(const Options &o, Result &r);

/** Raw samples behind the end-to-end metrics of one untraced run. */
struct EndToEnd
{
    std::vector<double> setupS;  //!< One per set-up repetition.
    std::vector<double> opMs;    //!< One per timed operation.
    double frames = 0;           //!< Frames carried in the phase.
    double phaseS = 0;           //!< Timed-phase wall time.
    double psnrDb = 0;
};

/** setup_s, peak_rss_mb, frames_per_s, op_p50_ms, psnr_db, op_p90_ms. */
void addEndToEnd(Result &r, const EndToEnd &e);

/** obs.overhead_pct (traced vs untraced op medians) and
 *  unattributed_ms (untraced op median minus @p attributedMs). */
void addObsMetrics(Result &r, const std::vector<double> &untracedMs,
                   const std::vector<double> &tracedMs,
                   double attributedMs);

} // namespace pb

#endif // M4PS_PERFBENCH_WORKLOADS_HH
