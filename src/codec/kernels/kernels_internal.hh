/**
 * @file
 * Backend-internal sharing for the kernel layer: the scalar reference
 * implementations (SIMD backends call them for tails, for the
 * division-per-coefficient MPEG-matrix quantizer and for codes the
 * SIMD Viterbi does not cover, and the test suite compares against
 * them directly), the SSE4.1 row kernels the AVX2 table reuses, and
 * the DCT basis tables.
 *
 * Not part of the public API; include kernels.hh from codec code.
 */

#ifndef M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH
#define M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH

#include "codec/kernels/kernels.hh"

namespace m4ps::codec::kernels
{

/**
 * cos((2x+1) u pi / 16) basis scaled by the 1/2 c(u) factor, plus its
 * transpose.  One shared instance: every backend multiplies the same
 * doubles, which is half of the DCT bit-identity argument (the other
 * half is per-lane scalar operation order; see kernels.hh).
 */
struct DctTables
{
    double basis[8][8];  //!< [u][x]
    double basisT[8][8]; //!< [x][u]
};

const DctTables &dctTables();

namespace scalar
{

int sadRow16(const uint8_t *c, const uint8_t *r);
int sadRow8(const uint8_t *c, const uint8_t *r);
int sadRowHpel16(const uint8_t *c, const uint8_t *r0,
                 const uint8_t *r1, int hx, int hy);
int sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
                int hx, int hy);
int sumRow16(const uint8_t *c);
int absDevRow16(const uint8_t *c, uint8_t mean);
void fdct(const int16_t *in, int16_t *out);
void idct(const int16_t *in, int16_t *out);
void quant(const int16_t *coefs, int16_t *levels, int start,
           const QuantArgs &qa);
void dequant(const int16_t *levels, int16_t *coefs, int start,
             const QuantArgs &qa);
void predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy,
                int n, uint8_t *out);
void interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
               uint8_t *v, uint8_t *hv);
void avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out);
void copyRow(const uint8_t *src, int n, uint8_t *dst);
uint64_t ssdRow(const uint8_t *a, const uint8_t *b, int n);
uint64_t viterbiForward(const ViterbiArgs &a);

/**
 * Per-block tables of the SIMD Viterbi kernels (K = 7).  The cost map
 * is split per symbol of a step, one 16-bit lane per expected pair
 * value e (g1 bit at bit 0 of e): lane e of first[r] is cost[r][e & 1]
 * and of second[r] is cost[r][e >> 1], so first[r0] + second[r1]
 * packs the step's four pair costs with no carry between lanes (each
 * is at most 510).  A kernel broadcasts that sum to every 64-bit
 * quarter of a register and gathers it per state with PSHUFB:
 * shuffle[g][p][u] holds, for lane i of butterfly group g, the byte
 * indices of the cost of predecessor 2j + p (j = lanes * g + i) on
 * input u, which leads to states j + 32 u.
 */
struct ViterbiSimdTables
{
    uint64_t first[256];
    uint64_t second[256];
    alignas(32) uint8_t shuffle[256]; //!< [g][p][u][2 * lanes] bytes.
};

void viterbiSimdTables(const ViterbiArgs &a, int lanes,
                       ViterbiSimdTables &t);

/** MPEG-matrix halves of quant/dequant, shared by every backend. */
void quantMpeg(const int16_t *coefs, int16_t *levels, int start,
               const QuantArgs &qa);
void dequantMpeg(const int16_t *levels, int16_t *coefs, int start,
                 const QuantArgs &qa);

/**
 * H.263-mode quant/dequant over [first, last): the scalar bodies,
 * exposed with an explicit end so SIMD backends can peel the
 * misaligned head (start is 1 for intra blocks) without giving up
 * the vector loop for the rest.
 */
void quantRange(const int16_t *coefs, int16_t *levels, int first,
                int last, const QuantArgs &qa);
void dequantRange(const int16_t *levels, int16_t *coefs, int first,
                  int last, const QuantArgs &qa);

} // namespace scalar

/**
 * SSE4.1 entries the AVX2 table shares: a 16-pel row does not fill a
 * ymm register, so the 128-bit PSADBW / PAVGB forms are the AVX2
 * kernels too (CMake builds the AVX2 backend only next to SSE4.1).
 */
namespace sse41
{

int sadRow16(const uint8_t *c, const uint8_t *r);
int sadRow8(const uint8_t *c, const uint8_t *r);
int sadRowHpel16(const uint8_t *c, const uint8_t *r0,
                 const uint8_t *r1, int hx, int hy);
int sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
                int hx, int hy);
int sumRow16(const uint8_t *c);
int absDevRow16(const uint8_t *c, uint8_t mean);
void predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy,
                int n, uint8_t *out);

} // namespace sse41

/** Per-backend table factories; defined in their own TUs. */
const KernelOps &scalarOps();
#if defined(M4PS_KERNELS_HAVE_SSE41)
const KernelOps &sse41Ops();
#endif
#if defined(M4PS_KERNELS_HAVE_AVX2)
const KernelOps &avx2Ops();
#endif
#if defined(M4PS_KERNELS_HAVE_NEON)
const KernelOps &neonOps();
#endif

} // namespace m4ps::codec::kernels

#endif // M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH
