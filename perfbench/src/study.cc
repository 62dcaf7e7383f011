/**
 * @file
 * study_pal: the paper's Tables 2-3.  One operation is one table
 * cell - ExperimentRunner::runEncode plus runDecode of the 720x576,
 * 1 VO / 1 VOL, 30-frame, 38.4 kbit/s workload on one machine preset.
 * A round is one cell per preset, and runs attempt whole rounds.
 */

#include <string>

#include "core/runner.hh"
#include "layers.hh"
#include "serveload.hh"
#include "support/obs/obs.hh"
#include "workloads.hh"

namespace pb
{

using namespace m4ps;

namespace
{

/** PSNR floor, well below the 33.4-33.6 dB the workload reaches. */
constexpr double kPsnrFloorDb = 28.0;

/** One measured table cell. */
struct Cell
{
    size_t machine = 0;
    double opMs = 0;
    std::vector<uint8_t> stream;
    memsim::CounterSet encCtrs;
    memsim::CounterSet decCtrs;
    double l1MissRate = 0;
    double psnr = 0;
    int displayed = 0;
};

Cell
runCell(const core::Workload &w,
        const std::vector<core::MachineConfig> &machines, size_t m)
{
    Cell c;
    c.machine = m;
    const double t0 = nowSec();
    const core::RunResult e =
        core::ExperimentRunner::runEncode(w, machines[m], &c.stream);
    const core::RunResult d =
        core::ExperimentRunner::runDecode(w, machines[m], c.stream);
    c.opMs = (nowSec() - t0) * 1e3;
    c.encCtrs = e.whole.ctrs;
    c.decCtrs = d.whole.ctrs;
    c.l1MissRate = e.whole.l1MissRate;
    c.psnr = d.meanPsnrY;
    c.displayed = d.displayedFrames;
    return c;
}

/**
 * Drive a fresh hierarchy of @p m with address sweeps whose miss
 * counts follow from the cache geometry alone (true LRU, sequential
 * lines, power-of-two sets), and compare with the simulator.
 */
void
checkGeometry(Result &r, const core::MachineConfig &m)
{
    const uint64_t s1 = m.l1.sizeBytes, b1 = m.l1.lineBytes;
    const uint64_t s2 = m.l2.sizeBytes, b2 = m.l2.lineBytes;
    auto sweep = [&](uint64_t footprint, int loadPasses, int storePasses) {
        auto mh = m.makeHierarchy();
        for (int p = 0; p < loadPasses + storePasses; ++p)
            for (uint64_t a = 0; a < footprint; a += 8) {
                if (p < loadPasses)
                    mh->load(a, 8);
                else
                    mh->store(a, 8);
            }
        return mh->counters();
    };
    const std::string tag = " on " + m.name;
    r.beginOp();
    // L1-sized: cold misses only, then every reload and store hits.
    memsim::CounterSet c = sweep(s1, 2, 1);
    r.check(c.gradLoads == 2 * s1 / 8 && c.gradStores == s1 / 8 &&
                c.l1Misses == s1 / b1 && c.l2Misses == s1 / b2 &&
                c.l1Writebacks == 0,
            "memsim geometry: L1-resident sweep" + tag);
    // Half of L2: L1 thrashes on the second pass, L2 keeps it all.
    c = sweep(s2 / 2, 2, 0);
    r.check(c.l1Misses == 2 * (s2 / 2) / b1 && c.l2Misses == (s2 / 2) / b2,
            "memsim geometry: L2-resident sweep" + tag);
    // Twice L2: every line misses in both levels on both passes.
    c = sweep(2 * s2, 2, 0);
    r.check(c.l1Misses == 2 * (2 * s2) / b1 &&
                c.l2Misses == 2 * (2 * s2) / b2,
            "memsim geometry: L2-thrashing sweep" + tag);
}

/** Per-cell checks against the untraced reference and the first cell. */
void
checkCell(Result &r, const Cell &c, const Cell &first,
          const std::vector<uint8_t> &reference, int frames,
          const std::string &machine)
{
    r.beginOp();
    const std::string tag = " on " + machine;
    r.check(c.stream == reference,
            "traced bitstream differs from encodeUntraced" + tag);
    r.check(c.encCtrs.gradLoads == first.encCtrs.gradLoads &&
                c.encCtrs.gradStores == first.encCtrs.gradStores &&
                c.decCtrs.gradLoads == first.decCtrs.gradLoads &&
                c.decCtrs.gradStores == first.decCtrs.gradStores,
            "simulated loads/stores depend on the preset" + tag);
    r.check(c.l1MissRate < 0.01, "encode L1 miss rate not under 1%" + tag);
    r.check(c.displayed == frames, "decoder displayed " +
                                       std::to_string(c.displayed) +
                                       " frames" + tag);
    r.check(c.psnr > kPsnrFloorDb, "PSNR below floor" + tag);
}

} // namespace

int
runStudy(const Options &o, Result &r)
{
    const std::vector<core::MachineConfig> machines = core::paperMachines();
    EndToEnd e2e;
    core::Workload w;
    Cell warm;
    const int reps = o.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowSec();
        w = core::paperWorkload(720, 576, 1, 1);
        w.seed = 1 + mixSeed(o.seed, 1) % 1000000;
        for (const auto &m : machines)
            checkGeometry(r, m);
        warm = runCell(w, machines, 0);
        e2e.setupS.push_back(nowSec() - t0);
    }

    std::vector<Cell> cells;
    std::vector<Cell> traced;
    std::vector<obs::TraceEvent> events;
    const double phase0 = nowSec();
    double roundS = 0;
    while (cells.empty() || nowSec() - phase0 < o.seconds - roundS / 2) {
        const double r0 = nowSec();
        for (size_t m = 0; m < machines.size(); ++m) {
            cells.push_back(runCell(w, machines, m));
            if (o.trace) // traced twin of the same cell
                traced.push_back(withTracing(
                    events, [&] { return runCell(w, machines, m); }));
        }
        roundS = nowSec() - r0;
    }
    e2e.phaseS = nowSec() - phase0;

    // Checks, after the timed phase: the untraced encode is computed
    // here, apart from the traced path it is compared with.
    const std::vector<uint8_t> reference =
        core::ExperimentRunner::encodeUntraced(w);
    checkCell(r, warm, warm, reference, w.frames, machines[0].name);
    double psnrSum = 0;
    for (const Cell &c : cells) {
        checkCell(r, c, warm, reference, w.frames, machines[c.machine].name);
        e2e.opMs.push_back(c.opMs);
        e2e.frames += w.frames;
        psnrSum += c.psnr;
    }
    e2e.psnrDb = psnrSum / cells.size();

    if (!o.trace) {
        addEndToEnd(r, e2e);
        return 0;
    }

    std::vector<double> tracedMs;
    for (size_t i = 0; i < traced.size(); ++i) {
        checkCell(r, traced[i], warm, reference, w.frames,
                  machines[traced[i].machine].name);
        r.check(traced[i].encCtrs == cells[i].encCtrs &&
                    traced[i].decCtrs == cells[i].decCtrs,
                "memsim counters differ with obs tracing on");
        tracedMs.push_back(traced[i].opMs);
    }
    addStageMetrics(r, events, traced.size() * double(w.frames));
    probeKernels(r, mixSeed(o.seed, 7));
    const CodecTimes ct = probeCodec(r, w);
    const double nsPerAccess = probeMemsim(r, w, machines[0]);
    probeFec(r, reference, mixSeed(o.seed, 8));
    WorkDir dir("study");
    probeCheckpoint(r, w, dir.path());
    probeServe(r,
               "type=encode width=720 height=576 frames=4 bitrate=384000 "
               "checkpoint=0 seed=" + std::to_string(w.seed),
               dir.path());

    // A cell renders every frame twice (capture, then the PSNR
    // reference), runs the codec both ways, and pays the memsim layer
    // per simulated access.
    const double accesses = static_cast<double>(
        cells[0].encCtrs.accesses() + cells[0].decCtrs.accesses());
    addObsMetrics(r, e2e.opMs, tracedMs,
                  w.frames * (2 * ct.renderMs + ct.encodeMs + ct.decodeMs) +
                      accesses * nsPerAccess * 1e-6);
    return 0;
}

} // namespace pb
