/**
 * @file
 * Portable scalar kernel backend: the reference every SIMD backend
 * must match bit-for-bit.  These bodies are the original inner loops
 * of codec/motion.cc, codec/dct.cc, codec/quant.cc, and
 * codec/interp.cc, lifted verbatim onto raw row pointers; the callers
 * keep the memsim trace calls (kernels.hh contract 2).  The Viterbi
 * forward pass is the FEC decoder's add-compare-select (fec/viterbi.hh)
 * over a 256-entry symbol-cost map.
 */

#include "codec/kernels/kernels_internal.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace m4ps::codec::kernels
{

const DctTables &
dctTables()
{
    static const DctTables tables = [] {
        DctTables t;
        for (int u = 0; u < 8; ++u) {
            const double cu = u == 0 ? std::sqrt(0.125) : 0.5;
            for (int x = 0; x < 8; ++x) {
                t.basis[u][x] =
                    cu * std::cos((2 * x + 1) * u * M_PI / 16.0);
                t.basisT[x][u] = t.basis[u][x];
            }
        }
        return t;
    }();
    return tables;
}

namespace scalar
{

int
sadRow16(const uint8_t *c, const uint8_t *r)
{
    int acc = 0;
    for (int i = 0; i < 16; ++i)
        acc += std::abs(static_cast<int>(c[i]) - r[i]);
    return acc;
}

int
sadRow8(const uint8_t *c, const uint8_t *r)
{
    int acc = 0;
    for (int i = 0; i < 8; ++i)
        acc += std::abs(static_cast<int>(c[i]) - r[i]);
    return acc;
}

namespace
{

inline int
sadRowHpelN(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
            int hx, int hy, int n)
{
    int acc = 0;
    for (int i = 0; i < n; ++i) {
        int p;
        if (hx && hy)
            p = (r0[i] + r0[i + 1] + r1[i] + r1[i + 1] + 2) >> 2;
        else if (hx)
            p = (r0[i] + r0[i + 1] + 1) >> 1;
        else if (hy)
            p = (r0[i] + r1[i] + 1) >> 1;
        else
            p = r0[i];
        acc += std::abs(static_cast<int>(c[i]) - p);
    }
    return acc;
}

} // namespace

int
sadRowHpel16(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
             int hx, int hy)
{
    return sadRowHpelN(c, r0, r1, hx, hy, 16);
}

int
sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
            int hx, int hy)
{
    return sadRowHpelN(c, r0, r1, hx, hy, 8);
}

int
sumRow16(const uint8_t *c)
{
    int acc = 0;
    for (int i = 0; i < 16; ++i)
        acc += c[i];
    return acc;
}

int
absDevRow16(const uint8_t *c, uint8_t mean)
{
    int acc = 0;
    for (int i = 0; i < 16; ++i)
        acc += std::abs(c[i] - mean);
    return acc;
}

void
fdct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double tmp[64];
    // Rows.
    for (int y = 0; y < 8; ++y) {
        for (int u = 0; u < 8; ++u) {
            double acc = 0;
            for (int x = 0; x < 8; ++x)
                acc += t.basis[u][x] * in[y * 8 + x];
            tmp[y * 8 + u] = acc;
        }
    }
    // Columns.
    for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
            double acc = 0;
            for (int y = 0; y < 8; ++y)
                acc += t.basis[v][y] * tmp[y * 8 + u];
            const double r = std::clamp(acc, -32768.0, 32767.0);
            out[v * 8 + u] = static_cast<int16_t>(std::lround(r));
        }
    }
}

void
idct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double tmp[64];
    // Columns.
    for (int u = 0; u < 8; ++u) {
        for (int y = 0; y < 8; ++y) {
            double acc = 0;
            for (int v = 0; v < 8; ++v)
                acc += t.basis[v][y] * in[v * 8 + u];
            tmp[y * 8 + u] = acc;
        }
    }
    // Rows.
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            double acc = 0;
            for (int u = 0; u < 8; ++u)
                acc += t.basis[u][x] * tmp[y * 8 + u];
            const double r = std::clamp(std::round(acc), -2048.0, 2047.0);
            out[y * 8 + x] = static_cast<int16_t>(r);
        }
    }
}

namespace
{

inline int16_t
clampLevel(long v)
{
    return static_cast<int16_t>(std::clamp(v, -2047l, 2047l));
}

} // namespace

void
quantMpeg(const int16_t *coefs, int16_t *levels, int start,
          const QuantArgs &qa)
{
    const int q = qa.q;
    for (int i = start; i < 64; ++i) {
        const int c = coefs[i];
        const int mag = std::abs(c);
        // Scale by the matrix weight, then quantize by 2q.
        const long scaled = 16l * mag / qa.matrix[i];
        const long lvl =
            qa.intra ? (scaled + q) / (2 * q) : scaled / (2 * q);
        levels[i] = clampLevel(c < 0 ? -lvl : lvl);
    }
}

void
dequantMpeg(const int16_t *levels, int16_t *coefs, int start,
            const QuantArgs &qa)
{
    const int q = qa.q;
    for (int i = start; i < 64; ++i) {
        const int lvl = levels[i];
        if (lvl == 0) {
            coefs[i] = 0;
            continue;
        }
        const int mag = std::abs(lvl);
        long c = (2l * mag * q * qa.matrix[i]) / 16;
        if (!qa.intra)
            c += (q * qa.matrix[i]) / 16; // mid-rise reconstruction
        c = std::clamp(lvl < 0 ? -c : c, -2048l, 2047l);
        coefs[i] = static_cast<int16_t>(c);
    }
}

void
quantRange(const int16_t *coefs, int16_t *levels, int first, int last,
           const QuantArgs &qa)
{
    const int q = qa.q;
    for (int i = first; i < last; ++i) {
        const int c = coefs[i];
        const int mag = std::abs(c);
        // H.263 style: intra has no dead zone beyond truncation,
        // inter has a qp/2 dead zone.
        long lvl = qa.intra ? mag / (2 * q) : (mag - q / 2) / (2 * q);
        if (lvl < 0)
            lvl = 0;
        levels[i] = clampLevel(c < 0 ? -lvl : lvl);
    }
}

void
dequantRange(const int16_t *levels, int16_t *coefs, int first,
             int last, const QuantArgs &qa)
{
    const int q = qa.q;
    for (int i = first; i < last; ++i) {
        const int lvl = levels[i];
        if (lvl == 0) {
            coefs[i] = 0;
            continue;
        }
        const int mag = std::abs(lvl);
        long c = q * (2l * mag + 1);
        if (q % 2 == 0)
            c -= 1;
        c = std::clamp(lvl < 0 ? -c : c, -2048l, 2047l);
        coefs[i] = static_cast<int16_t>(c);
    }
}

void
quant(const int16_t *coefs, int16_t *levels, int start,
      const QuantArgs &qa)
{
    if (qa.mpeg) {
        quantMpeg(coefs, levels, start, qa);
        return;
    }
    quantRange(coefs, levels, start, 64, qa);
}

void
dequant(const int16_t *levels, int16_t *coefs, int start,
        const QuantArgs &qa)
{
    if (qa.mpeg) {
        dequantMpeg(levels, coefs, start, qa);
        return;
    }
    dequantRange(levels, coefs, start, 64, qa);
}

void
predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy, int n,
           uint8_t *out)
{
    for (int i = 0; i < n; ++i) {
        int p;
        if (hx && hy)
            p = (r0[i] + r0[i + 1] + r1[i] + r1[i + 1] + 2) >> 2;
        else if (hx)
            p = (r0[i] + r0[i + 1] + 1) >> 1;
        else if (hy)
            p = (r0[i] + r1[i] + 1) >> 1;
        else
            p = r0[i];
        out[i] = static_cast<uint8_t>(p);
    }
}

void
interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
          uint8_t *v, uint8_t *hv)
{
    for (int i = 0; i < n; ++i) {
        h[i] = static_cast<uint8_t>((r0[i] + r0[i + 1] + 1) >> 1);
        v[i] = static_cast<uint8_t>((r0[i] + r1[i] + 1) >> 1);
        hv[i] = static_cast<uint8_t>(
            (r0[i] + r0[i + 1] + r1[i] + r1[i + 1] + 2) >> 2);
    }
}

void
avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    for (int i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>((a[i] + b[i] + 1) >> 1);
}

void
copyRow(const uint8_t *src, int n, uint8_t *dst)
{
    std::memcpy(dst, src, static_cast<size_t>(n));
}

uint64_t
ssdRow(const uint8_t *a, const uint8_t *b, int n)
{
    uint64_t acc = 0;
    for (int i = 0; i < n; ++i) {
        const int d = static_cast<int>(a[i]) - b[i];
        acc += static_cast<uint64_t>(d * d);
    }
    return acc;
}

uint64_t
viterbiForward(const ViterbiArgs &a)
{
    const int states = 1 << (a.k - 1);
    const int halfMask = (1 << (a.k - 2)) - 1;
    // Far above any reachable metric in the first k-1 steps (at most
    // 510 per step), far below overflow.
    constexpr uint32_t kUnreachable = 1u << 29;

    // Path metrics, swapped per step; state 0 is the known start.
    uint32_t bufA[64], bufB[64];
    uint32_t *cur = bufA, *nxt = bufB;
    std::fill(cur, cur + states, kUnreachable);
    cur[0] = 0;
    uint64_t normalized = 0;

    for (size_t t = 0; t < a.steps; ++t) {
        const uint8_t *c0 = a.cost + 2 * a.symbols[2 * t];
        const uint8_t *c1 = a.cost + 2 * a.symbols[2 * t + 1];
        // Branch cost per expected pair value (g1 bit 0, g2 bit 1).
        const uint32_t pairCost[4] = {
            uint32_t{c0[0]} + c1[0], uint32_t{c0[1]} + c1[0],
            uint32_t{c0[0]} + c1[1], uint32_t{c0[1]} + c1[1]};

        uint64_t word = 0;
        for (int ns = 0; ns < states; ++ns) {
            // ns's predecessors share its low k-2 bits shifted up; its
            // top bit is the input that led here.
            const int u = ns >> (a.k - 2);
            const int s0 = (ns & halfMask) << 1, s1 = s0 | 1;
            const uint32_t m0 = cur[s0] + pairCost[a.branch[s0 * 2 + u]];
            const uint32_t m1 = cur[s1] + pairCost[a.branch[s1 * 2 + u]];
            if (m1 < m0) {
                nxt[ns] = m1;
                word |= 1ull << ns;
            } else {
                nxt[ns] = m0;
            }
        }
        a.decisions[t] = word;
        std::swap(cur, nxt);

        // Keep metrics far from overflow.
        if ((t & 0xfff) == 0xfff) {
            const uint32_t lo = *std::min_element(cur, cur + states);
            for (int s = 0; s < states; ++s)
                cur[s] -= lo;
            normalized += lo;
        }
    }
    return normalized + cur[0];
}

void
viterbiSimdTables(const ViterbiArgs &a, int lanes, ViterbiSimdTables &t)
{
    for (int r = 0; r < 256; ++r) {
        t.first[r] = t.second[r] = 0;
        for (int e = 0; e < 4; ++e) {
            t.first[r] |= uint64_t{a.cost[2 * r + (e & 1)]} << (16 * e);
            t.second[r] |= uint64_t{a.cost[2 * r + (e >> 1)]}
                           << (16 * e);
        }
    }
    uint8_t *out = t.shuffle;
    for (int g = 0; g < 32 / lanes; ++g) {
        for (int p = 0; p < 2; ++p) {
            for (int u = 0; u < 2; ++u) {
                for (int i = 0; i < lanes; ++i) {
                    const int s = 2 * (lanes * g + i) + p;
                    const int e = a.branch[s * 2 + u];
                    *out++ = static_cast<uint8_t>(2 * e);
                    *out++ = static_cast<uint8_t>(2 * e + 1);
                }
            }
        }
    }
}

} // namespace scalar

const KernelOps &
scalarOps()
{
    static const KernelOps ops = {
        "scalar",
        scalar::sadRow16,
        scalar::sadRow8,
        scalar::sadRowHpel16,
        scalar::sadRowHpel8,
        scalar::sumRow16,
        scalar::absDevRow16,
        scalar::fdct,
        scalar::idct,
        scalar::quant,
        scalar::dequant,
        scalar::predictRow,
        scalar::interpRow,
        scalar::avgRow,
        scalar::copyRow,
        scalar::ssdRow,
        scalar::viterbiForward,
    };
    return ops;
}

} // namespace m4ps::codec::kernels
