/**
 * @file
 * job_cif_soft: the offline worker path.  One operation is one job:
 * a CIF encode job through service::runJob with per-frame checkpoints
 * and soft-decision rate-1/2 FEC, the framed file through the seeded
 * AWGN channel at an Es/N0 where every block is corrected, and a
 * tolerant FEC decode job through runJob.
 */

#include <fstream>
#include <string>

#include "codec/encoder.hh"
#include "core/runner.hh"
#include "fec/frame.hh"
#include "layers.hh"
#include "serveload.hh"
#include "service/checkpoint.hh"
#include "service/jobspec.hh"
#include "service/worker.hh"
#include "support/obs/obs.hh"
#include "support/serialize.hh"
#include "workloads.hh"

namespace pb
{

using namespace m4ps;

namespace
{

/** The job pair of one run. */
struct Jobs
{
    service::JobSpec encode;
    service::JobSpec decode;
    std::string rxPath;
};

Jobs
makeJobs(uint64_t seed, const WorkDir &dir)
{
    Jobs j;
    const std::string out = dir.file("job.m4v");
    j.rxPath = dir.file("job.rx");
    j.encode = service::parseSpecLine(
        "enc", "type=encode width=352 height=288 frames=30 bitrate=384000 "
               "resync-interval=1 checkpoint=1 fec=soft fec-rate=1/2 "
               "seed=" + std::to_string(1 + mixSeed(seed, 1) % 1000000) +
                   " out=" + out);
    j.decode = service::parseSpecLine(
        "dec", "type=decode width=352 height=288 frames=30 tolerant=1 "
               "fec=soft fec-rate=1/2 input=" + j.rxPath +
                   " out=" + dir.file("job.report"));
    j.encode.validate();
    j.decode.validate();
    return j;
}

/**
 * One measured job operation.  Only what the checks need is kept:
 * the framed output is compared with the run's first one as soon as
 * the job ends, and the channel output is rebuilt from its seed, so
 * bookkeeping does not grow the process with the number of jobs.
 */
struct JobOp
{
    int encodeRc = -1;
    int decodeRc = -1;
    double opMs = 0;
    bool sameFramed = false; //!< Framed output equals the first job's.
    uint64_t channelSeed = 0;
    std::string report;
};

/** Run one job; @p framed is the first job's output (empty: this
 *  is the first job, and it fills @p framed). */
JobOp
runJobOp(const Jobs &j, uint64_t channelSeed, std::vector<uint8_t> &framed)
{
    JobOp op;
    op.channelSeed = channelSeed;
    const double t0 = nowSec();
    op.encodeRc = service::runJob(j.encode);
    std::vector<uint8_t> out = readFile(j.encode.output);
    const std::vector<uint8_t> rx =
        fec::channelSoft(out, kEsN0Db, channelSeed);
    {
        std::ofstream f(j.rxPath, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(rx.data()),
                static_cast<std::streamsize>(rx.size()));
    }
    op.decodeRc = service::runJob(j.decode);
    op.opMs = (nowSec() - t0) * 1e3;
    if (framed.empty())
        framed = out;
    op.sameFramed = !out.empty() && out == framed;
    const std::vector<uint8_t> rep = readFile(j.decode.output);
    op.report.assign(rep.begin(), rep.end());
    return op;
}

/** Integer value of "key N" in a decode report; -1 if absent. */
long
reportField(const std::string &report, const std::string &key)
{
    const size_t at = report.find(key + " ");
    return at == std::string::npos
               ? -1
               : std::stol(report.substr(at + key.size() + 1));
}

/**
 * Checks of one job: both jobs succeeded, the framed output is the
 * run's verified one, and after the channel every block is corrected
 * and the recovered stream equals the independent reference encode.
 */
void
checkJobOp(Result &r, const JobOp &op, const std::vector<uint8_t> &framed,
           const std::vector<uint8_t> &reference, int frames)
{
    r.beginOp();
    r.check(op.encodeRc == service::kWorkerOk &&
                op.decodeRc == service::kWorkerOk,
            "job exit codes " + std::to_string(op.encodeRc) + "/" +
                std::to_string(op.decodeRc));
    r.check(op.sameFramed, "framed output differs between jobs");
    const fec::RecoverResult rec =
        fec::recover(fec::channelSoft(framed, kEsN0Db, op.channelSeed));
    r.check(rec.stats.blocksUncorrectable == 0 &&
                rec.stats.framingErrors == 0 && rec.stats.blocks > 0,
            "channel left uncorrectable blocks");
    r.check(rec.stream == reference,
            "stream recovered after the channel differs from the reference");
    r.check(reportField(op.report, "fec_blocks_uncorrectable") == 0 &&
                reportField(op.report, "displayed") == frames,
            "decode job report: " + op.report);
}

} // namespace

int
runJob(const Options &o, Result &r)
{
    WorkDir dir("job");
    EndToEnd e2e;
    Jobs jobs;
    JobOp warm;
    std::vector<uint8_t> framed;
    const int reps = o.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowSec();
        jobs = makeJobs(o.seed, dir);
        framed.clear();
        warm = runJobOp(jobs, mixSeed(o.seed, 100), framed);
        e2e.setupS.push_back(nowSec() - t0);
    }
    const core::Workload &w = jobs.encode.workload;

    std::vector<JobOp> ops, traced;
    std::vector<obs::TraceEvent> events;
    const double phase0 = nowSec();
    for (uint64_t i = 0; ops.empty() || nowSec() - phase0 < o.seconds; ++i) {
        ops.push_back(runJobOp(jobs, mixSeed(o.seed, 200 + i), framed));
        if (o.trace) // traced twin of the same job
            traced.push_back(withTracing(events, [&] {
                return runJobOp(jobs, mixSeed(o.seed, 200 + i), framed);
            }));
    }
    e2e.phaseS = nowSec() - phase0;

    // Checks.  The reference is an untraced encode made apart from
    // the job path; the framed output is verified against it once
    // (recovered before the channel) and byte-compared thereafter.
    const std::vector<uint8_t> reference =
        core::ExperimentRunner::encodeUntraced(w);
    r.beginOp();
    const fec::RecoverResult clean = fec::recover(framed);
    r.check(clean.stream == reference &&
                clean.stats.blocksUncorrectable == 0 &&
                clean.stats.framingErrors == 0,
            "framed output, recovered before the channel, differs from "
            "encodeUntraced");
    checkJobOp(r, warm, framed, reference, w.frames);
    for (const JobOp &op : ops) {
        checkJobOp(r, op, framed, reference, w.frames);
        e2e.opMs.push_back(op.opMs);
        e2e.frames += w.frames;
    }

    // Resume: a mid-sequence checkpoint written here through
    // saveState/saveCheckpoint; the encode job must pick it up and
    // finish with the same bytes.
    {
        r.beginOp();
        memsim::SimContext ctx;
        core::SceneFeeder feeder(ctx, w);
        codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
        const int half = w.frames / 2;
        for (int t = 0; t < half; ++t)
            enc.encodeFrame(feeder.inputs(t), t);
        service::Checkpoint c;
        c.configHash = jobs.encode.configHash();
        c.nextFrame = half;
        support::StateWriter sw;
        enc.saveState(sw);
        c.state = sw.take();
        service::saveCheckpoint(
            service::checkpointPath(jobs.encode.output), c);
        const int rc = service::runJob(jobs.encode);
        r.check(rc == service::kWorkerOk &&
                    readFile(jobs.encode.output) == framed,
                "job resumed from a mid-sequence checkpoint produced "
                "different bytes");
    }

    int displayed = 0;
    e2e.psnrDb = meanPsnr(w, reference, &displayed);

    if (!o.trace) {
        addEndToEnd(r, e2e);
        return 0;
    }

    std::vector<double> tracedMs;
    for (const JobOp &op : traced) {
        checkJobOp(r, op, framed, reference, w.frames);
        tracedMs.push_back(op.opMs);
    }
    addStageMetrics(r, events, traced.size() * double(w.frames));
    probeKernels(r, mixSeed(o.seed, 7));
    const CodecTimes ct = probeCodec(r, w);
    probeMemsim(r, capFrames(w, 8), core::o2R12k1MB());
    const FecTimes ft = probeFec(r, reference, mixSeed(o.seed, 8));
    const CkptTimes ck = probeCheckpoint(r, w, dir.path());
    probeServe(r,
               "type=encode width=352 height=288 frames=4 bitrate=384000 "
               "checkpoint=0 seed=" + std::to_string(w.seed),
               dir.path());

    // A job renders, encodes and checkpoints every frame, runs the
    // three FEC calls once, and decodes every frame.
    addObsMetrics(r, e2e.opMs, tracedMs,
                  w.frames * (ct.renderMs + ct.encodeMs + ck.serializeMs +
                              ck.saveMs + ct.decodeMs) +
                      ft.protectMs + ft.channelMs + ft.recoverMs);
    return 0;
}

} // namespace pb
