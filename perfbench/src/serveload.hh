/**
 * @file
 * Open-loop load against an in-process serve::Server: a protocol
 * client that timestamps every message, and a schedule runner that
 * starts each session at its due time on a small client-thread pool.
 * serve::runClientSession reports only the whole session's latency in
 * whole milliseconds; the first-packet, inter-packet and due-time
 * figures need the per-message timestamps this client records.
 */

#ifndef M4PS_PERFBENCH_SERVELOAD_HH
#define M4PS_PERFBENCH_SERVELOAD_HH

#include <string>
#include <vector>

#include "common.hh"
#include "serve/protocol.hh"

namespace pb
{

/** What one client session saw, in nowSec() seconds. */
struct SessionRecord
{
    double due = 0;       //!< When the schedule wanted it sent.
    double start = 0;     //!< When a client thread began it.
    double connected = 0; //!< connectTo() returned.
    double firstData = 0; //!< First DATA message parsed.
    double end = 0;       //!< Terminal STATUS parsed (or gave up).
    std::vector<double> dataTimes; //!< Reads that brought DATA.
    bool gotFinal = false;
    m4ps::serve::Status status = m4ps::serve::Status::InternalError;
    uint32_t statusSeq = 0;
    std::string statusJson;
    uint64_t packets = 0;
    uint64_t seqGaps = 0;
    std::vector<uint8_t> stream; //!< Concatenated DATA payloads.
    std::string error;
};

/** One session: connect, send @p spec, read to the terminal STATUS. */
SessionRecord runSession(const std::string &endpoint,
                         const std::string &spec);

/**
 * Run session i with spec @p specs[i] due at @p t0 + @p dueOffsets[i]
 * (sorted ascending) on clientThreads() client threads.
 */
std::vector<SessionRecord>
runSchedule(const std::string &endpoint,
            const std::vector<std::string> &specs,
            const std::vector<double> &dueOffsets, double t0);

/** Integer member @p key of a session's STATUS JSON (-1 if absent). */
long statusField(const SessionRecord &s, const char *key);

/**
 * Checks common to every served session: Ok verdict, dense sequence
 * numbers (the STATUS carries the next one), no transport error.
 */
void checkSession(Result &r, const SessionRecord &s);

/**
 * serve.connect_ms; serve.first_packet_p50_ms, from when a session
 * was due to its first DATA; serve.inter_packet_p50_ms, the median gap between
 * successive socket reads that brought DATA (packets of one frame
 * arrive together, so this is the stream's pacing); gen_late_*; and
 * the STATS counters queue_peak_bytes, retarget_steps, admitted, shed.
 */
void addServeLayerMetrics(Result &r,
                          const std::vector<SessionRecord> &sessions,
                          const std::string &statsJson);

/**
 * Probe of the serve layer for workloads whose operations bypass it:
 * an in-process daemon serving 6 sessions of @p spec, one every
 * 300 ms, open loop.  Adds the serve.* metrics.
 */
void probeServe(Result &r, const std::string &spec,
                const std::string &dir);

/** Client threads the load generator may use: min(4, nproc). */
int clientThreads();

} // namespace pb

#endif // M4PS_PERFBENCH_SERVELOAD_HH
