/**
 * @file
 * serve_qcif_open: the daemon under independent users.  Seeded
 * open-loop arrivals of QCIF x 30-frame encode sessions at 128 kbit/s
 * against an in-process serve::Server; one operation is one session,
 * timed from when it was due to its terminal STATUS.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "core/runner.hh"
#include "layers.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serveload.hh"
#include "service/jobspec.hh"
#include "support/obs/obs.hh"
#include "workloads.hh"

namespace pb
{

using namespace m4ps;

namespace
{

/** Offered load: one session per 200 ms slot. */
constexpr double kSessionsPerSec = 5.0;

/** Share of its slot in which a session may fall due. */
constexpr double kJitter = 0.4;

/** Distinct scenes per run; sessions cycle through them. */
constexpr int kScenes = 8;

std::string
sessionSpec(uint64_t sceneSeed)
{
    return "type=encode width=176 height=144 frames=30 bitrate=128000 "
           "checkpoint=0 seed=" + std::to_string(sceneSeed);
}

/** The run's sessions: specs and due offsets (sorted, seeded). */
struct Schedule
{
    std::vector<std::string> specs;
    std::vector<double> due;
};

/**
 * @p n sessions over @p seconds, one per equal slot, due at a seeded
 * instant in the first kJitter of its slot: open loop at a fixed
 * rate, with at least (1 - kJitter) of a slot (120 ms) between
 * sessions, so a session that takes about 85 ms runs alone unless the
 * daemon slows down.  Poisson arrivals at 10/s overlapped two thirds
 * of the sessions, and the cost of an overlap on this 4-vCPU host
 * varied so much that op_p90_ms swung between 89 and 173 ms across
 * seeds.
 */
Schedule
makeSchedule(uint64_t seed, int n, double seconds, uint64_t salt)
{
    std::mt19937_64 rng(mixSeed(seed, salt));
    std::uniform_real_distribution<double> within(0.0, 1.0);
    const double slot = seconds / n;
    Schedule s;
    for (int i = 0; i < n; ++i) {
        s.due.push_back((i + kJitter * within(rng)) * slot);
        s.specs.push_back(
            sessionSpec(1 + mixSeed(seed, 10 + rng() % kScenes) % 1000000));
    }
    return s;
}

std::unique_ptr<serve::Server>
startServer(const WorkDir &dir)
{
    serve::ServerConfig cfg;
    cfg.checkpointDir = dir.path();
    auto server = std::make_unique<serve::Server>(cfg);
    server->start();
    return server;
}

/** Direct encodes of each (spec, fidelity level) a session ran at. */
class References
{
  public:
    const std::vector<uint8_t> &
    get(const std::string &spec, int level)
    {
        auto key = std::make_pair(spec, level);
        auto it = streams_.find(key);
        if (it == streams_.end()) {
            service::JobSpec js = service::parseSpecLine("ref", spec);
            if (level > 0)
                serve::DegradationLadder::applyToSpec(js, level);
            it = streams_
                     .emplace(key, core::ExperimentRunner::encodeUntraced(
                                       js.workload))
                     .first;
        }
        return it->second;
    }

  private:
    std::map<std::pair<std::string, int>, std::vector<uint8_t>> streams_;
};

/** Session checks: verdict, sequence, and the bytes it carried. */
void
checkServed(Result &r, const SessionRecord &s, const std::string &spec,
            References &refs)
{
    r.beginOp();
    checkSession(r, s);
    const long level = statusField(s, "degrade_level");
    const long retarget = statusField(s, "retarget_steps");
    r.check(level >= 0 && retarget == 0,
            "session STATUS: " + s.statusJson);
    r.check(level >= 0 && s.stream == refs.get(spec, static_cast<int>(level)),
            "served stream differs from a direct encode of its spec");
}

} // namespace

int
runServe(const Options &o, Result &r)
{
    WorkDir dir("serve");
    EndToEnd e2e;
    std::unique_ptr<serve::Server> server;
    Schedule sched;
    SessionRecord warm;
    std::string warmSpec;
    const int n = std::max(1, static_cast<int>(kSessionsPerSec * o.seconds));
    const int reps = o.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        if (server)
            server->stop();
        const double t0 = nowSec();
        sched = makeSchedule(o.seed, n, o.seconds, 1);
        server = startServer(dir);
        warmSpec = sched.specs[0];
        warm = runSession(server->endpoint(), warmSpec);
        e2e.setupS.push_back(nowSec() - t0);
    }

    // Timed phase.  The traced run splits it: the first half with obs
    // tracing off, the second with it on.
    const double phase0 = nowSec() + 0.02;
    std::vector<SessionRecord> recs;
    std::vector<SessionRecord> traced;
    std::vector<obs::TraceEvent> events;
    if (!o.trace) {
        recs = runSchedule(server->endpoint(), sched.specs, sched.due,
                           phase0);
    } else {
        const Schedule a = makeSchedule(o.seed, n / 2, o.seconds / 2.0, 1);
        const Schedule b = makeSchedule(o.seed, n / 2, o.seconds / 2.0, 2);
        recs = runSchedule(server->endpoint(), a.specs, a.due, phase0);
        traced = withTracing(events, [&] {
            return runSchedule(server->endpoint(), b.specs, b.due, nowSec());
        });
        sched.specs = a.specs;
        sched.specs.insert(sched.specs.end(), b.specs.begin(), b.specs.end());
    }
    double phaseEnd = phase0;
    for (const SessionRecord &s : recs)
        phaseEnd = std::max(phaseEnd, s.end);
    e2e.phaseS = phaseEnd - phase0;

    std::string err;
    const std::string stats =
        serve::queryServerStats(server->endpoint(), &err);
    server->stop();
    const serve::ServerStats st = server->stats();

    // Checks.
    References refs;
    checkServed(r, warm, warmSpec, refs);
    std::vector<SessionRecord> all = recs;
    all.insert(all.end(), traced.begin(), traced.end());
    uint64_t ok = warm.status == serve::Status::Ok ? 1 : 0;
    uint64_t packets = warm.packets, bytes = warm.stream.size();
    std::map<std::string, int> specUse;
    for (size_t i = 0; i < all.size(); ++i) {
        checkServed(r, all[i], sched.specs[i], refs);
        ok += all[i].gotFinal && all[i].status == serve::Status::Ok;
        packets += all[i].packets;
        bytes += all[i].stream.size();
        if (i < recs.size()) {
            e2e.opMs.push_back((all[i].end - all[i].due) * 1e3);
            e2e.frames += std::max(0L, statusField(all[i], "frames"));
            ++specUse[sched.specs[i]];
        }
    }
    // The daemon's ledger, read only once it has stopped: a STATS
    // scrape right after a final status may not include it yet.
    r.beginOp();
    r.check(st.admitted == all.size() + 1 && st.completed == ok &&
                st.shedTotal() == 0 && st.packets == packets &&
                st.payloadBytes == bytes,
            "Server::stats() disagrees with the client tally");

    double psnrSum = 0;
    int sessions = 0;
    for (const auto &[spec, uses] : specUse) {
        const service::JobSpec js = service::parseSpecLine("ref", spec);
        int displayed = 0;
        psnrSum += uses * meanPsnr(js.workload, refs.get(spec, 0), &displayed);
        sessions += uses;
    }
    e2e.psnrDb = sessions ? psnrSum / sessions : 0;

    if (!o.trace) {
        addEndToEnd(r, e2e);
        return 0;
    }

    const core::Workload w =
        service::parseSpecLine("ref", sched.specs[0]).workload;
    std::vector<double> tracedMs;
    for (const SessionRecord &s : traced)
        tracedMs.push_back((s.end - s.due) * 1e3);
    addServeLayerMetrics(r, recs, stats);
    addStageMetrics(r, events, traced.size() * double(w.frames));
    probeKernels(r, mixSeed(o.seed, 7));
    const CodecTimes ct = probeCodec(r, w);
    probeMemsim(r, capFrames(w, 8), core::o2R12k1MB());
    probeFec(r, refs.get(sched.specs[0], 0), mixSeed(o.seed, 8));
    probeCheckpoint(r, w, dir.path());

    // A session connects, then renders and encodes every frame.
    std::vector<double> connect;
    for (const SessionRecord &s : recs)
        connect.push_back((s.connected - s.start) * 1e3);
    addObsMetrics(r, e2e.opMs, tracedMs,
                  median(connect) + w.frames * (ct.renderMs + ct.encodeMs));
    return 0;
}

} // namespace pb
