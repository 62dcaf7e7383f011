#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <random>

#include "codec/decoder.hh"
#include "codec/encoder.hh"
#include "codec/kernels/kernels.hh"
#include "core/runner.hh"
#include "service/checkpoint.hh"
#include "support/serialize.hh"
#include "video/quality.hh"
#include "video/scene.hh"

namespace pb
{

using namespace m4ps;

core::Workload
capFrames(core::Workload w, int frames)
{
    w.frames = std::min(w.frames, frames);
    return w;
}

std::map<std::string, double>
selfMsByName(const std::vector<obs::TraceEvent> &events)
{
    std::vector<const obs::TraceEvent *> spans;
    for (const auto &e : events)
        if (e.phase == 'X')
            spans.push_back(&e);
    // Parents before children: by thread, start, then longest first.
    std::sort(spans.begin(), spans.end(), [](auto *a, auto *b) {
        if (a->tid != b->tid)
            return a->tid < b->tid;
        if (a->tsNs != b->tsNs)
            return a->tsNs < b->tsNs;
        return a->durNs > b->durNs;
    });
    std::map<std::string, double> self;
    std::vector<const obs::TraceEvent *> stack;
    for (const obs::TraceEvent *e : spans) {
        while (!stack.empty() &&
               (stack.back()->tid != e->tid ||
                stack.back()->tsNs + stack.back()->durNs <= e->tsNs))
            stack.pop_back();
        self[e->name] += e->durNs / 1e6;
        if (!stack.empty())
            self[stack.back()->name] -= e->durNs / 1e6;
        stack.push_back(e);
    }
    return self;
}

void
addStageMetrics(Result &r, const std::vector<obs::TraceEvent> &events,
                double perCount)
{
    const std::map<std::string, double> self = selfMsByName(events);
    for (int s = 0; s < obs::kStageCount; ++s) {
        const std::string stage =
            obs::stageName(static_cast<obs::Stage>(s));
        double ms = 0;
        for (const char *prefix : {"enc", "dec"}) {
            auto it = self.find(std::string(prefix) + ".stage." + stage);
            if (it != self.end())
                ms += it->second;
        }
        r.add("codec.stage." + stage + "_ms",
              perCount > 0 ? ms / perCount : 0, "ms");
    }
}

double
meanPsnr(const core::Workload &w, const std::vector<uint8_t> &stream,
         int *displayed)
{
    memsim::SimContext ctx;
    video::SceneGenerator gen(w.width, w.height, w.numVos - 1, w.seed);
    video::Yuv420Image source(ctx, w.width, w.height);
    double sum = 0;
    int frames = 0;
    codec::Mpeg4Decoder dec(ctx);
    dec.decode(
        stream,
        [&](const codec::DecodedEvent &e) {
            gen.renderFrame(e.timestamp, source);
            sum += video::psnrY(source, *e.frame);
            ++frames;
        },
        true);
    *displayed = frames;
    return frames ? sum / frames : 0;
}

// ------------------------------------------------------------------
// Kernels.
// ------------------------------------------------------------------

namespace
{

/** One kernel under test: a batch over fixed seeded buffers. */
struct KernelCase
{
    const char *name;
    double pels; //!< Pels (or coefficients) one batch covers.
    /** Run one batch; fold every output into *hash when non-null. */
    std::function<uint64_t(const codec::kernels::KernelOps &,
                           uint64_t *hash)>
        run;
};

void
fold(uint64_t *hash, uint64_t v)
{
    if (hash)
        *hash = (*hash ^ v) * 0x100000001b3ull;
}

/** Seeded buffers shared by every kernel case. */
struct KernelInputs
{
    static constexpr int kStride = 256;
    static constexpr int kRows = 64;
    static constexpr int kBlocks = 64;
    std::vector<uint8_t> cur, ref;
    std::vector<int16_t> pels, coefs, levels;
    std::vector<int> offsets; //!< Row starts inside the planes.

    explicit KernelInputs(uint64_t seed)
        : cur(kStride * kRows), ref(kStride * kRows),
          pels(64 * kBlocks), coefs(64 * kBlocks), levels(64 * kBlocks)
    {
        std::mt19937_64 rng(seed);
        for (auto &p : cur)
            p = static_cast<uint8_t>(rng());
        // The reference is the current picture plus small noise, as
        // motion search sees it.
        for (size_t i = 0; i < ref.size(); ++i)
            ref[i] = static_cast<uint8_t>(
                std::clamp<int>(cur[i] + static_cast<int>(rng() % 9) - 4,
                                0, 255));
        for (auto &v : pels)
            v = static_cast<int16_t>(static_cast<int>(rng() % 511) - 255);
        const codec::kernels::KernelOps *scalar =
            codec::kernels::opsFor(codec::kernels::Isa::Scalar);
        for (int b = 0; b < kBlocks; ++b)
            scalar->fdct(&pels[64 * b], &coefs[64 * b]);
        for (int i = 0; i < 1024; ++i)
            offsets.push_back(static_cast<int>(
                (rng() % (kRows - 2)) * kStride + rng() % (kStride - 80)));
        codec::kernels::QuantArgs qa;
        qa.q = 6;
        for (int b = 0; b < kBlocks; ++b)
            scalar->quant(&coefs[64 * b], &levels[64 * b], 0, qa);
    }
};

std::vector<KernelCase>
kernelCases(const KernelInputs &in)
{
    using codec::kernels::KernelOps;
    using codec::kernels::QuantArgs;
    const int n = static_cast<int>(in.offsets.size());
    const int stride = KernelInputs::kStride;
    const int blocks = KernelInputs::kBlocks;
    std::vector<KernelCase> cases;
    cases.push_back({"sad16", 16.0 * n,
                     [&in, n](const KernelOps &k, uint64_t *h) {
                         uint64_t sum = 0;
                         for (int i = 0; i < n; ++i) {
                             const int o = in.offsets[i];
                             const int v = k.sadRow16(&in.cur[o],
                                                      &in.ref[o + 1]);
                             sum += v;
                             fold(h, v);
                         }
                         return sum;
                     }});
    cases.push_back({"sad_hpel16", 16.0 * n,
                     [&in, n, stride](const KernelOps &k, uint64_t *h) {
                         uint64_t sum = 0;
                         for (int i = 0; i < n; ++i) {
                             const int o = in.offsets[i];
                             const int v = k.sadRowHpel16(
                                 &in.cur[o], &in.ref[o],
                                 &in.ref[o + stride], i & 1, (i >> 1) & 1);
                             sum += v;
                             fold(h, v);
                         }
                         return sum;
                     }});
    // Block kernels write a scratch block; every output is folded.
    auto blockCase = [blocks](const char *name, auto body) {
        return KernelCase{
            name, 64.0 * blocks * 4,
            [body, blocks](const KernelOps &k, uint64_t *h) {
                int16_t out[64];
                uint64_t sum = 0;
                for (int rep = 0; rep < 4; ++rep) {
                    for (int b = 0; b < blocks; ++b) {
                        body(k, b, rep, out);
                        sum += static_cast<uint16_t>(out[b & 63]);
                        if (h)
                            for (int i = 0; i < 64; ++i)
                                fold(h, static_cast<uint16_t>(out[i]));
                    }
                }
                return sum;
            }};
    };
    cases.push_back(blockCase("fdct", [&in](const KernelOps &k, int b, int,
                                            int16_t *out) {
        k.fdct(&in.pels[64 * b], out);
    }));
    cases.push_back(blockCase("idct", [&in](const KernelOps &k, int b, int,
                                            int16_t *out) {
        k.idct(&in.coefs[64 * b], out);
    }));
    cases.push_back(blockCase(
        "quant_h263", [&in](const KernelOps &k, int b, int rep,
                            int16_t *out) {
            QuantArgs qa;
            qa.q = 1 + (b * 7 + rep) % 31;
            qa.intra = (b & 1) != 0;
            out[0] = 0; // the intra DC slot is the caller's
            k.quant(&in.coefs[64 * b], out, qa.intra ? 1 : 0, qa);
        }));
    cases.push_back(blockCase(
        "dequant_h263", [&in](const KernelOps &k, int b, int rep,
                              int16_t *out) {
            QuantArgs qa;
            qa.q = 1 + (b * 5 + rep) % 31;
            qa.intra = (b & 1) != 0;
            out[0] = 0;
            k.dequant(&in.levels[64 * b], out, qa.intra ? 1 : 0, qa);
        }));
    constexpr int kInterpN = 64;
    cases.push_back({"interp_row", 1.0 * kInterpN * n / 4,
                     [&in, n, stride](const KernelOps &k, uint64_t *h) {
                         uint8_t hb[kInterpN], vb[kInterpN], hvb[kInterpN];
                         uint64_t sum = 0;
                         for (int i = 0; i < n / 4; ++i) {
                             const int o = in.offsets[i];
                             k.interpRow(&in.ref[o], &in.ref[o + stride],
                                         kInterpN, hb, vb, hvb);
                             sum += hb[i & 63] + vb[0] + hvb[63];
                             if (h)
                                 for (int j = 0; j < kInterpN; ++j)
                                     fold(h, hb[j] | vb[j] << 8 |
                                                 hvb[j] << 16);
                         }
                         return sum;
                     }});
    cases.push_back({"copy_row", 16.0 * n,
                     [&in, n](const KernelOps &k, uint64_t *h) {
                         uint8_t dst[16];
                         uint64_t sum = 0;
                         for (int i = 0; i < n; ++i) {
                             k.copyRow(&in.cur[in.offsets[i]], 16, dst);
                             sum += dst[i & 15];
                             if (h)
                                 for (int j = 0; j < 16; ++j)
                                     fold(h, dst[j]);
                         }
                         return sum;
                     }});
    return cases;
}

/** Keeps every batch's result observable to the optimizer. */
volatile uint64_t gKernelSink = 0;

/** ns per pel of @p reps batches of @p c on @p k. */
double
timeKernel(const KernelCase &c, const codec::kernels::KernelOps &k,
           int reps)
{
    const double t0 = nowSec();
    for (int i = 0; i < reps; ++i)
        gKernelSink = gKernelSink + c.run(k, nullptr);
    return (nowSec() - t0) * 1e9 / (c.pels * reps);
}

} // namespace

void
probeKernels(Result &r, uint64_t seed)
{
    namespace kn = codec::kernels;
    const kn::KernelOps &active = kn::active();
    const kn::KernelOps &scalar = *kn::opsFor(kn::Isa::Scalar);
    const KernelInputs in(seed);
    for (const KernelCase &c : kernelCases(in)) {
        uint64_t hs = 0xcbf29ce484222325ull, ha = hs;
        c.run(scalar, &hs);
        c.run(active, &ha);
        r.beginOp();
        if (!r.check(hs == ha, std::string("kernel ") + c.name + " (" +
                                   active.name +
                                   ") output differs from scalar")) {
            continue; // no timing is kept for a wrong kernel
        }
        // Batches of ~1 ms, alternating scalar and active backend.
        int reps = 1;
        while (timeKernel(c, scalar, reps) * c.pels * reps < 1e6 &&
               reps < (1 << 16))
            reps *= 2;
        std::vector<double> ts, ta;
        for (int round = 0; round < 11; ++round) {
            ts.push_back(timeKernel(c, scalar, reps));
            ta.push_back(timeKernel(c, active, reps));
        }
        const double a = median(ta);
        r.add(std::string("kernels.") + c.name + ".ns_per_pel", a,
              "ns/pel");
        r.add(std::string("kernels.") + c.name + ".speedup",
              median(ts) / a, "x");
    }
}

// ------------------------------------------------------------------
// Video and codec.
// ------------------------------------------------------------------

CodecTimes
probeCodec(Result &r, const core::Workload &w)
{
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    double renderS = 0, encodeS = 0;
    for (int t = 0; t < w.frames; ++t) {
        const double t0 = nowSec();
        const std::vector<codec::VoInput> in = feeder.inputs(t);
        const double t1 = nowSec();
        enc.encodeFrame(in, t);
        renderS += t1 - t0;
        encodeS += nowSec() - t1;
    }
    const double f0 = nowSec();
    const std::vector<uint8_t> stream = enc.finish();
    encodeS += nowSec() - f0;

    std::vector<double> dec;
    for (int rep = 0; rep < 3; ++rep) {
        memsim::SimContext dctx;
        codec::Mpeg4Decoder d(dctx);
        const double t0 = nowSec();
        const codec::DecodeStats s =
            d.decode(stream, codec::Mpeg4Decoder::Sink(), false);
        dec.push_back(nowSec() - t0);
        r.beginOp();
        r.check(s.displayed == w.frames * w.numVos,
                "codec probe: decoder displayed " +
                    std::to_string(s.displayed) + " frames");
    }
    CodecTimes ct;
    ct.renderMs = renderS * 1e3 / w.frames;
    ct.encodeMs = encodeS * 1e3 / w.frames;
    ct.decodeMs = median(dec) * 1e3 / w.frames;
    r.add("video.render_ms_per_frame", ct.renderMs, "ms");
    r.add("codec.encode_ms_per_frame", ct.encodeMs, "ms");
    r.add("codec.decode_ms_per_frame", ct.decodeMs, "ms");
    r.add("codec.stream_bytes", static_cast<double>(stream.size()),
          "count");
    return ct;
}

// ------------------------------------------------------------------
// memsim.
// ------------------------------------------------------------------

double
probeMemsim(Result &r, const core::Workload &w,
            const core::MachineConfig &m)
{
    const double t0 = nowSec();
    const std::vector<uint8_t> plain =
        core::ExperimentRunner::encodeUntraced(w);
    const double t1 = nowSec();
    std::vector<uint8_t> traced;
    const core::RunResult e =
        core::ExperimentRunner::runEncode(w, m, &traced);
    const double t2 = nowSec();
    r.beginOp();
    r.check(plain == traced,
            "memsim probe: traced stream differs from untraced");
    const double acc = static_cast<double>(e.whole.ctrs.accesses());
    r.add("memsim.accesses", acc, "count");
    r.add("memsim.l1_miss_rate", e.whole.l1MissRate, "ratio");
    r.add("memsim.l2_miss_rate", e.whole.l2MissRate, "ratio");
    r.add("memsim.modelled_s", e.modelledSeconds, "s");
    const double nsPerAccess =
        acc > 0 ? ((t2 - t1) - (t1 - t0)) * 1e9 / acc : 0;
    r.add("memsim.host_ns_per_access", nsPerAccess, "ns");
    r.add("memsim.trace_overhead_x", (t2 - t1) / (t1 - t0), "x");

    // Self time of the VopEncode / VopDecode counter regions, from a
    // short run with obs tracing on.
    const core::Workload shortW = capFrames(w, 4);
    std::vector<obs::TraceEvent> events;
    withTracing(events, [&] {
        std::vector<uint8_t> s;
        core::ExperimentRunner::runEncode(shortW, m, &s);
        return core::ExperimentRunner::runDecode(shortW, m, s);
    });
    const std::map<std::string, double> self = selfMsByName(events);
    auto regionMs = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / shortW.frames;
    };
    r.add("memsim.vop_encode_self_ms", regionMs("memsim.VopEncode"),
          "ms");
    r.add("memsim.vop_decode_self_ms", regionMs("memsim.VopDecode"),
          "ms");
    return nsPerAccess;
}

// ------------------------------------------------------------------
// FEC.
// ------------------------------------------------------------------

FecTimes
probeFec(Result &r, const std::vector<uint8_t> &stream, uint64_t seed)
{
    fec::FecConfig cfg;
    cfg.decision = fec::Decision::Soft;
    std::vector<double> tp, tc, tr;
    fec::FecStats stats;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = nowSec();
        std::vector<uint8_t> framed = fec::protect(stream, cfg);
        const double t1 = nowSec();
        std::vector<uint8_t> rx =
            fec::channelSoft(std::move(framed), kEsN0Db, seed + rep);
        const double t2 = nowSec();
        const fec::RecoverResult rec = fec::recover(rx);
        const double t3 = nowSec();
        tp.push_back(t1 - t0);
        tc.push_back(t2 - t1);
        tr.push_back(t3 - t2);
        stats = rec.stats;
        r.beginOp();
        r.check(rec.stream == stream &&
                    rec.stats.blocksUncorrectable == 0,
                "fec probe: recovered stream differs from the input");
    }
    const double mbit = stream.size() * 8 / 1e6;
    FecTimes ft;
    ft.protectMs = median(tp) * 1e3;
    ft.channelMs = median(tc) * 1e3;
    ft.recoverMs = median(tr) * 1e3;
    r.add("fec.protect_mbit_s", mbit / median(tp), "Mbit/s");
    r.add("fec.channel_ms", ft.channelMs, "ms");
    r.add("fec.recover_mbit_s", mbit / median(tr), "Mbit/s");
    r.add("fec.blocks", static_cast<double>(stats.blocks), "count");
    r.add("fec.corrected_bits", static_cast<double>(stats.correctedBits),
          "count");
    return ft;
}

// ------------------------------------------------------------------
// Checkpoints.
// ------------------------------------------------------------------

CkptTimes
probeCheckpoint(Result &r, const core::Workload &w,
                const std::string &dir)
{
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    const int half = std::max(1, w.frames / 2);
    for (int t = 0; t < half; ++t)
        enc.encodeFrame(feeder.inputs(t), t);

    const std::string path = dir + "/probe.ckpt";
    std::vector<double> ts, tw, tl;
    size_t fileBytes = 0;
    for (int rep = 0; rep < 7; ++rep) {
        const double t0 = nowSec();
        support::StateWriter sw;
        enc.saveState(sw);
        service::Checkpoint c;
        c.configHash = 0x5eed;
        c.nextFrame = half;
        c.state = sw.take();
        const double t1 = nowSec();
        service::saveCheckpoint(path, c);
        const double t2 = nowSec();
        service::Checkpoint back;
        const bool ok = service::loadCheckpoint(path, c.configHash, &back);
        const double t3 = nowSec();
        ts.push_back(t1 - t0);
        tw.push_back(t2 - t1);
        tl.push_back(t3 - t2);
        fileBytes = std::filesystem::file_size(path);
        r.beginOp();
        r.check(ok && back.state == c.state && back.nextFrame == half,
                "checkpoint probe: load did not return the saved state");
    }
    service::removeCheckpoint(path);
    CkptTimes ct;
    ct.serializeMs = median(ts) * 1e3;
    ct.saveMs = median(tw) * 1e3;
    ct.loadMs = median(tl) * 1e3;
    r.add("service.ckpt_serialize_ms", ct.serializeMs, "ms");
    r.add("service.ckpt_save_ms", ct.saveMs, "ms");
    r.add("service.ckpt_load_ms", ct.loadMs, "ms");
    r.add("service.ckpt_bytes", static_cast<double>(fileBytes), "count");
    return ct;
}

} // namespace pb
