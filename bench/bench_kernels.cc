/**
 * @file
 * Per-kernel, per-backend micro-benchmark for the dispatch layer
 * (docs/KERNELS.md): times every KernelOps entry under every backend
 * this host can run and emits BENCH_kernels.json in the
 * m4ps-bench-v1 schema.
 *
 * Metric naming follows the bench_compare contract:
 *  - `wall_ns_per_pel` and `speedup_vs_scalar_wall` are host
 *    timings (warn-only in bench_compare);
 *  - `checksum` and `pels` are deterministic: the checksum folds
 *    every kernel output over a fixed pseudo-random input set, so a
 *    backend that silently diverges from scalar hard-fails the
 *    baseline diff - the same bit-identity contract the conformance
 *    suite enforces, here without a codec in the loop.
 *
 * The viterbi row runs the Viterbi forward pass over one soft FEC
 * block and counts decoded bits instead of pels (`wall_ns_per_bit`,
 * `wall_mbit_per_sec`, `bits`); its checksum folds the path metric
 * and every decision word.
 *
 * Self-check (exit 1 on violation): every backend's checksum must
 * equal the scalar backend's for every kernel, and a kernel that
 * diverges is reported without being timed.
 *
 * The committed baseline (bench/baselines/BENCH_kernels.json) holds
 * only the scalar entries (generate with `--scalar-only`): SIMD
 * availability depends on the runner, and extra benches are
 * informational in bench_compare.  Use `--fast` for a quick pass
 * (fewer timing reps; checksums are rep-independent).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hh"
#include "codec/kernels/kernels.hh"
#include "codec/quant.hh"
#include "fec/conv.hh"
#include "support/random.hh"

namespace
{

using namespace m4ps;
namespace kn = codec::kernels;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Fixed pseudo-random working set every backend reads. */
struct Inputs
{
    std::vector<uint8_t> pels;    //!< Byte rows (SAD/interp/copy).
    std::vector<int16_t> blocks;  //!< 8x8 coefficient blocks.

    // One soft-decision FEC block: a 1600-byte payload through the
    // K=7 code and an AWGN channel at 6.8 dB Es/N0 (the offline job's
    // operating point).
    static constexpr size_t kViterbiInfoBits = 1600 * 8;
    std::vector<uint8_t> branch;  //!< Trellis of the default code.
    std::vector<uint8_t> cost;    //!< Soft offset-LLR cost map.
    std::vector<uint8_t> symbols; //!< Received symbols, tail included.
    mutable std::vector<uint64_t> decisions;

    Inputs()
    {
        Rng rng(0x6b65726eull);
        pels.resize(1 << 16);
        for (auto &p : pels)
            p = static_cast<uint8_t>(rng.next());
        blocks.resize(256 * 64);
        for (size_t i = 0; i < blocks.size(); ++i) {
            // Mix pel-difference, coefficient, and clamp-stress
            // amplitudes so every rounding path runs.
            const int amp = (i / 64) % 3 == 0   ? 255
                            : (i / 64) % 3 == 1 ? 2047
                                                : 16384;
            blocks[i] = static_cast<int16_t>(
                rng.uniformInt(-amp, amp));
        }

        const fec::ConvCode code;
        for (int st = 0; st < code.numStates(); ++st) {
            branch.push_back(fec::branchBits(code, st, 0));
            branch.push_back(fec::branchBits(code, st, 1));
        }
        for (int r = 0; r < 256; ++r) {
            cost.push_back(static_cast<uint8_t>(r));
            cost.push_back(static_cast<uint8_t>(255 - r));
        }
        std::vector<uint8_t> payload(kViterbiInfoBits / 8);
        for (auto &b : payload)
            b = static_cast<uint8_t>(rng.next());
        const double sigma = 1.0 / std::sqrt(2.0 * std::pow(10.0, 0.68));
        for (uint8_t bit : fec::convEncodeBytes(code, payload.data(),
                                                payload.size())) {
            const double y = (bit ? 1.0 : -1.0) + sigma * rng.gaussian();
            symbols.push_back(static_cast<uint8_t>(std::clamp(
                static_cast<int>(std::lround(128.0 + 64.0 * y)), 0, 255)));
        }
        decisions.resize(symbols.size() / 2);
    }
};

/** One kernel timed under one backend. */
struct OpResult
{
    std::string op;
    double nsPerPel = 0;
    double pels = 0;
    uint64_t checksum = 0;
};

using OpFn = uint64_t (*)(const kn::KernelOps &, const Inputs &,
                          uint64_t *pels, bool hash);

double
now_ns()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// Each runner does one deterministic pass over the working set,
// returning a checksum and the pel count it processed.  The timing
// loop repeats the pass; the checksum is taken from a single pass so
// it does not depend on the rep count.

uint64_t
runSad16(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    for (size_t off = 0; off + 64 <= in.pels.size(); off += 64) {
        const int sad =
            k.sadRow16(&in.pels[off], &in.pels[off + 32]);
        if (hash)
            h = fnv(h, &sad, sizeof(sad));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runSadHpel16(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    for (size_t off = 0; off + 80 <= in.pels.size(); off += 64) {
        const int phase = static_cast<int>((off >> 6) & 3);
        const int sad = k.sadRowHpel16(&in.pels[off],
                                       &in.pels[off + 32],
                                       &in.pels[off + 48],
                                       phase & 1, phase >> 1);
        if (hash)
            h = fnv(h, &sad, sizeof(sad));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runFdct(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        k.fdct(&in.blocks[b], out);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runIdct(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        k.idct(&in.blocks[b], out);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runQuant(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        kn::QuantArgs qa;
        qa.q = 1 + static_cast<int>((b / 64) % 31);
        qa.intra = (b / 64) % 2 == 0;
        qa.mpeg = false;
        qa.matrix =
            qa.intra ? codec::kIntraMatrix : codec::kInterMatrix;
        std::memset(out, 0, sizeof(out));
        k.quant(&in.blocks[b], out, qa.intra ? 1 : 0, qa);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runDequant(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t lv[64], out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        for (int i = 0; i < 64; ++i) {
            lv[i] = static_cast<int16_t>(
                std::clamp<int>(in.blocks[b + i], -2047, 2047));
        }
        kn::QuantArgs qa;
        qa.q = 1 + static_cast<int>((b / 64) % 31);
        qa.intra = (b / 64) % 2 == 0;
        qa.mpeg = false;
        qa.matrix =
            qa.intra ? codec::kIntraMatrix : codec::kInterMatrix;
        std::memset(out, 0, sizeof(out));
        k.dequant(lv, out, qa.intra ? 1 : 0, qa);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runPredict(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t out[16];
    for (size_t off = 0; off + 80 <= in.pels.size(); off += 64) {
        const int phase = static_cast<int>((off >> 6) & 3);
        k.predictRow(&in.pels[off], &in.pels[off + 32], phase & 1,
                     phase >> 1, 16, out);
        if (hash)
            h = fnv(h, out, sizeof(out));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runInterp(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t ph[704], pv[704], phv[704];
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        k.interpRow(&in.pels[off], &in.pels[off + 720], 704, ph, pv,
                    phv);
        if (hash) {
            h = fnv(h, ph, sizeof(ph));
            h = fnv(h, pv, sizeof(pv));
            h = fnv(h, phv, sizeof(phv));
        }
        n += 704;
    }
    *pels = n;
    return h;
}

uint64_t
runAvg(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t out[704];
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        k.avgRow(&in.pels[off], &in.pels[off + 720], 704, out);
        if (hash)
            h = fnv(h, out, sizeof(out));
        n += 704;
    }
    *pels = n;
    return h;
}

uint64_t
runCopy(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t out[704];
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        k.copyRow(&in.pels[off], 704, out);
        if (hash)
            h = fnv(h, out, sizeof(out));
        n += 704;
    }
    *pels = n;
    return h;
}

uint64_t
runSsd(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        const uint64_t ssd =
            k.ssdRow(&in.pels[off], &in.pels[off + 720], 704);
        if (hash)
            h = fnv(h, &ssd, sizeof(ssd));
        n += 704;
    }
    *pels = n;
    return h;
}

/** Viterbi forward pass over the FEC block; "pels" count info bits. */
uint64_t
runViterbi(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
           bool hash)
{
    kn::ViterbiArgs a;
    a.k = 7;
    a.branch = in.branch.data();
    a.cost = in.cost.data();
    a.symbols = in.symbols.data();
    a.steps = in.decisions.size();
    a.decisions = in.decisions.data();
    const uint64_t metric = k.viterbiForward(a);
    uint64_t h = kFnvOffset;
    if (hash) {
        h = fnv(h, &metric, sizeof(metric));
        h = fnv(h, in.decisions.data(),
                in.decisions.size() * sizeof(uint64_t));
    }
    *pels = Inputs::kViterbiInfoBits;
    return h;
}

struct OpSpec
{
    const char *name;
    OpFn fn;
    const char *unit = "pel"; //!< What the work count counts.
};

const OpSpec kOps[] = {
    {"sad16", runSad16},       {"sad_hpel16", runSadHpel16},
    {"fdct", runFdct},         {"idct", runIdct},
    {"quant_h263", runQuant},  {"dequant_h263", runDequant},
    {"predict_row", runPredict}, {"interp_row", runInterp},
    {"avg_row", runAvg},       {"copy_row", runCopy},
    {"ssd_row", runSsd},       {"viterbi", runViterbi, "bit"},
};

/**
 * Times one kernel after checking its output against @p ref (the
 * scalar result; null for scalar itself).  A diverging kernel is not
 * timed: its nsPerPel stays 0.
 */
OpResult
timeOp(const OpSpec &spec, const kn::KernelOps &k, const Inputs &in,
       int reps, const OpResult *ref)
{
    OpResult r;
    r.op = spec.name;
    uint64_t pels = 0;
    r.checksum = spec.fn(k, in, &pels, true); // warm-up + checksum
    r.pels = static_cast<double>(pels);
    if (ref != nullptr && r.checksum != ref->checksum)
        return r;
    // Timed passes skip the checksum fold (a serial byte chain that
    // would otherwise dilute the kernel's share of the loop); the
    // indirect call through KernelOps keeps the work from being
    // optimised away.  Best-of-5: the minimum is the least-perturbed
    // observation on a shared host, where a single pass can be
    // inflated several-fold by scheduler noise.
    double best = 0;
    for (int pass = 0; pass < 5; ++pass) {
        const double t0 = now_ns();
        for (int i = 0; i < reps; ++i) {
            uint64_t dummy = 0;
            spec.fn(k, in, &dummy, false);
        }
        const double t1 = now_ns();
        if (pass == 0 || t1 - t0 < best)
            best = t1 - t0;
    }
    r.nsPerPel = best / (static_cast<double>(reps) * r.pels);
    uint64_t dummy = 0;
    if (spec.fn(k, in, &dummy, true) != r.checksum)
        r.checksum = ~uint64_t{0}; // nondeterminism marker
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    bool scalarOnly = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            fast = true;
        if (std::strcmp(argv[i], "--scalar-only") == 0)
            scalarOnly = true;
    }
    const int reps = fast ? 3 : 40;

    const Inputs inputs;
    std::vector<bench::BenchEntry> entries;

    // Scalar first: it is the reference the speedups and the
    // cross-backend checksum self-check compare against.
    // --scalar-only emits just the portable entries - that is what
    // the committed baseline holds, so the diff works on any host.
    std::vector<kn::Isa> isas;
    for (kn::Isa isa : kn::compiledIsas()) {
        if (scalarOnly && isa != kn::Isa::Scalar)
            continue;
        if (kn::hostSupports(isa))
            isas.push_back(isa);
    }

    std::vector<OpResult> scalarResults;
    bool identical = true;

    for (kn::Isa isa : isas) {
        const kn::KernelOps &k = *kn::opsFor(isa);
        std::printf("\n%s backend:\n", k.name);
        std::printf("  %-12s %12s %14s %10s\n", "kernel", "ns/unit",
                    "checksum", "speedup");
        for (size_t op = 0; op < std::size(kOps); ++op) {
            const OpSpec &spec = kOps[op];
            const OpResult r =
                timeOp(spec, k, inputs, reps,
                       isa == kn::Isa::Scalar ? nullptr
                                              : &scalarResults[op]);
            double speedup = 1.0;
            if (isa == kn::Isa::Scalar) {
                scalarResults.push_back(r);
            } else {
                const OpResult &s = scalarResults[op];
                // An untimed (diverging) kernel reports 0.
                speedup = r.nsPerPel > 0 ? s.nsPerPel / r.nsPerPel : 0;
                if (r.checksum != s.checksum) {
                    identical = false;
                    std::printf("  %-12s CHECKSUM MISMATCH vs "
                                "scalar!\n",
                                r.op.c_str());
                }
            }
            std::printf("  %-12s %12.3f %14" PRIx64 " %9.2fx",
                        r.op.c_str(), r.nsPerPel, r.checksum,
                        speedup);
            const bool bits = std::strcmp(spec.unit, "bit") == 0;
            const double mbitPerSec =
                r.nsPerPel > 0 ? 1e3 / r.nsPerPel : 0;
            if (bits)
                std::printf("  %.1f Mbit/s", mbitPerSec);
            std::printf("\n");

            bench::BenchEntry e;
            e.bench = "kernels/" + r.op + "@" + k.name;
            e.backend = "host";
            e.config.add("kernel", support::JsonValue::of(r.op));
            e.config.add("isa", support::JsonValue::of(k.name));
            e.config.add("reps", support::JsonValue::of(
                                     static_cast<int64_t>(reps)));
            e.metrics.add(std::string("wall_ns_per_") + spec.unit,
                          support::JsonValue::of(r.nsPerPel));
            e.metrics.add(std::string(spec.unit) + "s",
                          support::JsonValue::of(r.pels));
            if (bits) {
                e.metrics.add("wall_mbit_per_sec",
                              support::JsonValue::of(mbitPerSec));
            }
            e.metrics.add(
                "checksum",
                support::JsonValue::of(static_cast<double>(
                    r.checksum >> 11))); // double-exact 53 bits
            if (isa != kn::Isa::Scalar) {
                e.metrics.add("speedup_vs_scalar_wall",
                              support::JsonValue::of(speedup));
            }
            entries.push_back(std::move(e));
        }
    }

    const std::string path =
        bench::benchJsonPath(argc, argv, "BENCH_kernels.json");
    bench::writeBenchEntries(path, entries);
    std::printf("\nbench json: %s (%zu entries)\n", path.c_str(),
                entries.size());

    if (!identical) {
        std::fprintf(stderr,
                     "FATAL: kernel self-check failed - a SIMD "
                     "backend diverged from scalar\n");
        return 1;
    }
    std::printf("self-check: all backends bit-identical to scalar\n");
    return 0;
}
