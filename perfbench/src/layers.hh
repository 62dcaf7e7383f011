/**
 * @file
 * Direct probes of single layers, for the traced run's per-layer
 * metrics.  Each probe times the benchmark's own calls into one
 * layer's public functions on inputs taken from the workload, repeats
 * them, and adds medians to the Result.  Probes never feed an
 * end-to-end metric.
 */

#ifndef M4PS_PERFBENCH_LAYERS_HH
#define M4PS_PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/machine.hh"
#include "core/workload.hh"
#include "fec/frame.hh"
#include "support/obs/obs.hh"

namespace pb
{

/** Workload @p w with at most @p frames frames. */
m4ps::core::Workload capFrames(m4ps::core::Workload w, int frames);

/**
 * Self time in ms per span name: a span's duration minus the part of
 * it that its direct children (same thread, nested) cover.
 */
std::map<std::string, double>
selfMsByName(const std::vector<m4ps::obs::TraceEvent> &events);

/**
 * Run @p op with obs tracing on and append the spans it recorded to
 * @p events; returns what @p op returns.
 */
template <class F>
auto
withTracing(std::vector<m4ps::obs::TraceEvent> &events, F op)
{
    m4ps::obs::clearTrace();
    m4ps::obs::setTracing(true);
    auto result = op();
    m4ps::obs::setTracing(false);
    const std::vector<m4ps::obs::TraceEvent> ev = m4ps::obs::snapshotTrace();
    events.insert(events.end(), ev.begin(), ev.end());
    m4ps::obs::clearTrace();
    return result;
}

/**
 * codec.stage.<name>_ms: self time of the existing enc/dec stage
 * spans in @p events, divided by @p perCount (ops or frames).
 */
void addStageMetrics(Result &r,
                     const std::vector<m4ps::obs::TraceEvent> &events,
                     double perCount);

/**
 * Mean PSNR-Y of @p stream's decoded frames against a fresh render of
 * @p w's scene (single-VO workloads); @p displayed gets the frame
 * count.  Tolerant decode, untraced.
 */
double meanPsnr(const m4ps::core::Workload &w,
                const std::vector<uint8_t> &stream, int *displayed);

/** kernels.<k>.ns_per_pel and .speedup, active backend vs scalar. */
void probeKernels(Result &r, uint64_t seed);

/** Per-frame times of the video and codec layers. */
struct CodecTimes
{
    double renderMs = 0; //!< SceneFeeder::inputs, per frame.
    double encodeMs = 0; //!< Mpeg4Encoder::encodeFrame, per frame.
    double decodeMs = 0; //!< Mpeg4Decoder::decode, per frame.
};

/** video.render_ms_per_frame, codec.encode/decode_ms_per_frame,
 *  codec.stream_bytes, over the whole workload @p w, untraced. */
CodecTimes probeCodec(Result &r, const m4ps::core::Workload &w);

/** memsim.*: traced runEncode of @p w on @p m against the untraced
 *  encode; region self times from a short obs-traced run.  Returns
 *  the host ns the memsim layer adds per simulated access. */
double probeMemsim(Result &r, const m4ps::core::Workload &w,
                 const m4ps::core::MachineConfig &m);

/** Times of the three FEC calls on one stream. */
struct FecTimes
{
    double protectMs = 0;
    double channelMs = 0;
    double recoverMs = 0;
};

/** AWGN Es/N0 at which soft rate-1/2 Viterbi corrects every block. */
constexpr double kEsN0Db = 6.8;

/** fec.*: protect (soft decisions, rate 1/2), channelSoft at kEsN0Db
 *  with noise from @p seed, and recover of @p stream. */
FecTimes probeFec(Result &r, const std::vector<uint8_t> &stream,
                  uint64_t seed);

/** Times of one checkpoint round trip. */
struct CkptTimes
{
    double serializeMs = 0;
    double saveMs = 0;
    double loadMs = 0;
};

/** service.ckpt_*: saveState / saveCheckpoint / loadCheckpoint of an
 *  encoder halfway through @p w, files under @p dir. */
CkptTimes probeCheckpoint(Result &r, const m4ps::core::Workload &w,
                          const std::string &dir);

} // namespace pb

#endif // M4PS_PERFBENCH_LAYERS_HH
