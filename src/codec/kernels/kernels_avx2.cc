/**
 * @file
 * AVX2 kernel backend (x86-64, 256-bit).
 *
 * Same bit-identity strategy as the SSE4.1 backend (see that file and
 * docs/KERNELS.md): exact integer formulations, float division by the
 * uniform 2q quantizer step (exact for this domain), and a DCT
 * vectorized across outputs - four double lanes per register, two
 * registers covering all eight outputs of a pass, each lane running
 * the scalar multiply-then-add order (no FMA: this file is compiled
 * with -mavx2 only).  Row kernels of 16 pels stay on 128-bit PSADBW /
 * PAVGB forms - a macroblock row does not fill a ymm - so the table
 * points at the SSE4.1 entries for them, and at the scalar memcpy for
 * copyRow; the wide-span kernels (interpolation, averaging, SSD), the
 * coefficient kernels and the Viterbi butterflies use full 256-bit
 * lanes.
 */

#if defined(M4PS_KERNELS_HAVE_AVX2)

#include "codec/kernels/kernels_internal.hh"

#include <algorithm>
#include <cmath>
#include <immintrin.h>

namespace m4ps::codec::kernels
{

namespace avx2
{

namespace
{

/** (a + b + c + d + 2) >> 2 over 16 pels, widened through epi16. */
inline __m128i
avg4x16(__m128i a, __m128i b, __m128i c, __m128i d)
{
    const __m256i s = _mm256_add_epi16(
        _mm256_add_epi16(_mm256_cvtepu8_epi16(a),
                         _mm256_cvtepu8_epi16(b)),
        _mm256_add_epi16(_mm256_cvtepu8_epi16(c),
                         _mm256_cvtepu8_epi16(d)));
    const __m256i r = _mm256_srli_epi16(
        _mm256_add_epi16(s, _mm256_set1_epi16(2)), 2);
    return _mm_packus_epi16(_mm256_castsi256_si128(r),
                            _mm256_extracti128_si256(r, 1));
}

} // namespace

void
interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
          uint8_t *v, uint8_t *hv)
{
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r0 + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r0 + i + 1));
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r1 + i));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r1 + i + 1));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(h + i),
                            _mm256_avg_epu8(a, b));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(v + i),
                            _mm256_avg_epu8(a, c));
        // Four-point average, widened per 128-bit half.
        const __m128i alo = _mm256_castsi256_si128(a);
        const __m128i ahi = _mm256_extracti128_si256(a, 1);
        const __m128i blo = _mm256_castsi256_si128(b);
        const __m128i bhi = _mm256_extracti128_si256(b, 1);
        const __m128i clo = _mm256_castsi256_si128(c);
        const __m128i chi = _mm256_extracti128_si256(c, 1);
        const __m128i dlo = _mm256_castsi256_si128(d);
        const __m128i dhi = _mm256_extracti128_si256(d, 1);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hv + i),
                         avg4x16(alo, blo, clo, dlo));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hv + i + 16),
                         avg4x16(ahi, bhi, chi, dhi));
    }
    if (i < n)
        scalar::interpRow(r0 + i, r1 + i, n - i, h + i, v + i, hv + i);
}

void
avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_avg_epu8(av, bv));
    }
    if (i < n)
        scalar::avgRow(a + i, b + i, n - i, out + i);
}

uint64_t
ssdRow(const uint8_t *a, const uint8_t *b, int n)
{
    __m256i acc = _mm256_setzero_si256(); // 4 x epi64
    int i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i av = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        const __m128i bv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        const __m256i d = _mm256_sub_epi16(_mm256_cvtepu8_epi16(av),
                                           _mm256_cvtepu8_epi16(bv));
        const __m256i m = _mm256_madd_epi16(d, d); // 8 x epi32
        acc = _mm256_add_epi64(
            acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m)));
        acc = _mm256_add_epi64(
            acc,
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m, 1)));
    }
    uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    if (i < n)
        total += scalar::ssdRow(a + i, b + i, n - i);
    return total;
}

void
quant(const int16_t *coefs, int16_t *levels, int start,
      const QuantArgs &qa)
{
    if (qa.mpeg) {
        scalar::quantMpeg(coefs, levels, start, qa);
        return;
    }
    int i = start;
    if (i & 7) {
        const int head = std::min((i + 7) & ~7, 64);
        scalar::quantRange(coefs, levels, i, head, qa);
        i = head;
    }
    const __m256i zero = _mm256_setzero_si256();
    const __m256i dead = _mm256_set1_epi32(qa.intra ? 0 : qa.q / 2);
    const __m256 step = _mm256_set1_ps(static_cast<float>(2 * qa.q));
    const __m256i cap = _mm256_set1_epi32(2047);
    for (; i < 64; i += 8) {
        const __m128i cv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(coefs + i));
        const __m256i c32 = _mm256_cvtepi16_epi32(cv);
        const __m256i mag = _mm256_abs_epi32(c32);
        const __m256i num = _mm256_sub_epi32(mag, dead);
        // Exact trunc(num / 2q) via float division (file header).
        const __m256i lvl = _mm256_cvttps_epi32(
            _mm256_div_ps(_mm256_cvtepi32_ps(num), step));
        __m256i l = _mm256_max_epi32(lvl, zero);
        l = _mm256_min_epi32(l, cap);
        l = _mm256_sign_epi32(l, c32);
        const __m128i packed = _mm_packs_epi32(
            _mm256_castsi256_si128(l),
            _mm256_extracti128_si256(l, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + i),
                         packed);
    }
}

void
dequant(const int16_t *levels, int16_t *coefs, int start,
        const QuantArgs &qa)
{
    if (qa.mpeg) {
        scalar::dequantMpeg(levels, coefs, start, qa);
        return;
    }
    int i = start;
    if (i & 7) {
        const int head = std::min((i + 7) & ~7, 64);
        scalar::dequantRange(levels, coefs, i, head, qa);
        i = head;
    }
    const __m256i qv = _mm256_set1_epi32(qa.q);
    const __m256i even = _mm256_set1_epi32(qa.q % 2 == 0 ? 1 : 0);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i lcap = _mm256_set1_epi32(2047);
    const __m256i lfloor = _mm256_set1_epi32(-2048);
    for (; i < 64; i += 8) {
        const __m128i lv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(levels + i));
        const __m256i l32 = _mm256_cvtepi16_epi32(lv);
        const __m256i mag = _mm256_abs_epi32(l32);
        // c = q * (2|lvl| + 1) - [q even]
        __m256i c = _mm256_mullo_epi32(
            qv, _mm256_add_epi32(_mm256_slli_epi32(mag, 1), one));
        c = _mm256_sub_epi32(c, even);
        // Zero where lvl == 0, negate where lvl < 0, then clamp.
        c = _mm256_sign_epi32(c, l32);
        c = _mm256_min_epi32(_mm256_max_epi32(c, lfloor), lcap);
        const __m128i packed = _mm_packs_epi32(
            _mm256_castsi256_si128(c),
            _mm256_extracti128_si256(c, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + i),
                         packed);
    }
}

void
fdct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double din[64];
    for (int i = 0; i < 64; ++i)
        din[i] = static_cast<double>(in[i]); // exact conversion
    double tmp[64];
    // Rows: tmp[y*8+u] = sum_x basis[u][x] * in[y*8+x]; lanes over u.
    for (int y = 0; y < 8; ++y) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int x = 0; x < 8; ++x) {
            const __m256d vx = _mm256_set1_pd(din[y * 8 + x]);
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(vx, _mm256_loadu_pd(&t.basisT[x][0])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(vx, _mm256_loadu_pd(&t.basisT[x][4])));
        }
        _mm256_storeu_pd(&tmp[y * 8 + 0], acc0);
        _mm256_storeu_pd(&tmp[y * 8 + 4], acc1);
    }
    // Columns: out[v*8+u] = sum_y basis[v][y] * tmp[y*8+u]; lanes u,
    // scalar clamp/round epilogue for exact half-away-from-zero.
    for (int v = 0; v < 8; ++v) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int y = 0; y < 8; ++y) {
            const __m256d bv = _mm256_set1_pd(t.basis[v][y]);
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(bv, _mm256_loadu_pd(&tmp[y * 8])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(bv, _mm256_loadu_pd(&tmp[y * 8 + 4])));
        }
        double vals[8];
        _mm256_storeu_pd(&vals[0], acc0);
        _mm256_storeu_pd(&vals[4], acc1);
        for (int u = 0; u < 8; ++u) {
            const double r = std::clamp(vals[u], -32768.0, 32767.0);
            out[v * 8 + u] = static_cast<int16_t>(std::lround(r));
        }
    }
}

void
idct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double din[64];
    for (int i = 0; i < 64; ++i)
        din[i] = static_cast<double>(in[i]);
    double tmp[64];
    // Columns: tmp[y*8+u] = sum_v basis[v][y] * in[v*8+u]; lanes u.
    for (int y = 0; y < 8; ++y) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int v = 0; v < 8; ++v) {
            const __m256d bv = _mm256_set1_pd(t.basis[v][y]);
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(bv, _mm256_loadu_pd(&din[v * 8])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(bv, _mm256_loadu_pd(&din[v * 8 + 4])));
        }
        _mm256_storeu_pd(&tmp[y * 8 + 0], acc0);
        _mm256_storeu_pd(&tmp[y * 8 + 4], acc1);
    }
    // Rows: out[y*8+x] = sum_u basis[u][x] * tmp[y*8+u]; lanes x.
    for (int y = 0; y < 8; ++y) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int u = 0; u < 8; ++u) {
            const __m256d tu = _mm256_set1_pd(tmp[y * 8 + u]);
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(tu, _mm256_loadu_pd(&t.basis[u][0])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(tu, _mm256_loadu_pd(&t.basis[u][4])));
        }
        double vals[8];
        _mm256_storeu_pd(&vals[0], acc0);
        _mm256_storeu_pd(&vals[4], acc1);
        for (int x = 0; x < 8; ++x) {
            const double r =
                std::clamp(std::round(vals[x]), -2048.0, 2047.0);
            out[y * 8 + x] = static_cast<int16_t>(r);
        }
    }
}

uint64_t
viterbiForward(const ViterbiArgs &a)
{
    // 64 states in four 16-lane int16 registers; smaller codes are
    // too narrow to pay for the shuffles.
    if (a.k != 7)
        return scalar::viterbiForward(a);

    // Butterfly group g covers ns = 16g + i and ns + 32, j = 16g + i;
    // VPSHUFB indexes within each 128-bit half.
    scalar::ViterbiSimdTables tab;
    scalar::viterbiSimdTables(a, 16, tab);
    const auto *ctl = reinterpret_cast<const __m256i *>(tab.shuffle);

    // Same int16 exactness argument as the SSE4.1 backend.
    constexpr int kRenorm = 16;
    const __m256i lo16 = _mm256_set1_epi32(0xffff);
    __m256i m[4];
    m[0] = _mm256_insert_epi16(_mm256_set1_epi16(0x2000), 0, 0);
    for (int q = 1; q < 4; ++q)
        m[q] = _mm256_set1_epi16(0x2000);
    uint64_t normalized = 0;

    for (size_t t = 0; t < a.steps; ++t) {
        const __m256i pc = _mm256_set1_epi64x(static_cast<long long>(
            tab.first[a.symbols[2 * t]] +
            tab.second[a.symbols[2 * t + 1]]));
        __m256i nm[4];
        __m256i dec[2][2];
        for (int g = 0; g < 2; ++g) {
            // Split predecessors 32g..32g+31 into even and odd; the
            // in-lane packs leave 64-bit quarters in 0, 2, 1, 3 order.
            const __m256i ev = _mm256_permute4x64_epi64(
                _mm256_packus_epi32(
                    _mm256_and_si256(m[2 * g], lo16),
                    _mm256_and_si256(m[2 * g + 1], lo16)),
                0xd8);
            const __m256i od = _mm256_permute4x64_epi64(
                _mm256_packus_epi32(_mm256_srli_epi32(m[2 * g], 16),
                                    _mm256_srli_epi32(m[2 * g + 1],
                                                      16)),
                0xd8);
            for (int u = 0; u < 2; ++u) {
                const __m256i m0 = _mm256_add_epi16(
                    ev, _mm256_shuffle_epi8(pc, ctl[g * 4 + u]));
                const __m256i m1 = _mm256_add_epi16(
                    od, _mm256_shuffle_epi8(pc, ctl[g * 4 + 2 + u]));
                nm[g + 2 * u] = _mm256_min_epi16(m0, m1);
                dec[u][g] = _mm256_cmpgt_epi16(m0, m1); // m1 < m0
            }
        }
        uint64_t word = 0;
        for (int u = 0; u < 2; ++u) {
            const __m256i bytes = _mm256_permute4x64_epi64(
                _mm256_packs_epi16(dec[u][0], dec[u][1]), 0xd8);
            word |= static_cast<uint64_t>(static_cast<uint32_t>(
                        _mm256_movemask_epi8(bytes)))
                    << (32 * u);
        }
        a.decisions[t] = word;
        for (int q = 0; q < 4; ++q)
            m[q] = nm[q];

        if (t % kRenorm == kRenorm - 1) {
            const __m256i mn = _mm256_min_epi16(
                _mm256_min_epi16(m[0], m[1]),
                _mm256_min_epi16(m[2], m[3]));
            const int lo =
                _mm_cvtsi128_si32(_mm_minpos_epu16(_mm_min_epi16(
                    _mm256_castsi256_si128(mn),
                    _mm256_extracti128_si256(mn, 1)))) &
                0xffff;
            const __m256i sub =
                _mm256_set1_epi16(static_cast<short>(lo));
            for (int q = 0; q < 4; ++q)
                m[q] = _mm256_sub_epi16(m[q], sub);
            normalized += static_cast<uint64_t>(lo);
        }
    }
    return normalized + static_cast<uint64_t>(
                            _mm256_extract_epi16(m[0], 0) & 0xffff);
}

} // namespace avx2

const KernelOps &
avx2Ops()
{
    static const KernelOps ops = {
        "avx2",
        sse41::sadRow16,
        sse41::sadRow8,
        sse41::sadRowHpel16,
        sse41::sadRowHpel8,
        sse41::sumRow16,
        sse41::absDevRow16,
        avx2::fdct,
        avx2::idct,
        avx2::quant,
        avx2::dequant,
        sse41::predictRow,
        avx2::interpRow,
        avx2::avgRow,
        scalar::copyRow,
        avx2::ssdRow,
        avx2::viterbiForward,
    };
    return ops;
}

} // namespace m4ps::codec::kernels

#endif // M4PS_KERNELS_HAVE_AVX2
