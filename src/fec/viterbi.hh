/**
 * @file
 * Viterbi decoding of the rate-1/2 convolutional code (fec/conv.hh).
 *
 * Maximum-likelihood sequence decoding over the code trellis:
 * add-compare-select across all 2^(k-1) states per received symbol
 * pair, decisions recorded per step, one traceback from the
 * terminated (all-zero) state.  Blocks in this codebase are one video
 * packet each - a few kilobytes at most - so the decoder keeps the
 * whole decision history and traces back once per block, which is
 * exact (no truncated-traceback approximation) and still small.
 *
 * Symbols use one unsigned byte each in an offset-LLR convention
 * shared by the hard and soft paths:
 *
 *     0   = confident bit 0        255 = confident bit 1
 *     128 = erased / no information (depunctured positions)
 *
 * The *hard* path quantizes each symbol to {0, 1, erased} and counts
 * Hamming distance; the *soft* path accumulates the full quantized
 * magnitudes, which is what buys the classic ~2 dB over hard decision
 * on the AWGN channel (bench_resilience_ber_sweep measures it).  Both
 * are one 256-entry symbol-cost map into the same add-compare-select
 * kernel, the viterbiForward entry of the codec kernel dispatch table
 * (docs/KERNELS.md): scalar, or int16 butterflies on SSE4.1 / AVX2,
 * bit-identical in decoded bits and path metric.  The traceback stays
 * here.
 */

#ifndef M4PS_FEC_VITERBI_HH
#define M4PS_FEC_VITERBI_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fec/conv.hh"

namespace m4ps::fec
{

/** Offset-LLR symbol constants. */
constexpr uint8_t kSymZero = 0;
constexpr uint8_t kSymOne = 255;
constexpr uint8_t kSymErased = 128;

/** Hard or soft branch-metric path. */
enum class Decision
{
    Hard,
    Soft,
};

const char *decisionName(Decision d);

/** One decoded block. */
struct ViterbiResult
{
    /** Decoded information bits (tail removed), values 0/1. */
    std::vector<uint8_t> bits;

    /** Accumulated metric of the surviving path (0 = clean). */
    uint64_t pathMetric = 0;
};

/**
 * Decoder for one ConvCode.  Construction precomputes the branch
 * table; decode() may be called any number of times and runs on the
 * active kernel backend.
 */
class ViterbiDecoder
{
  public:
    explicit ViterbiDecoder(const ConvCode &code);

    /**
     * Decode @p nInfoBits information bits from @p symbols, which
     * must hold 2 * (nInfoBits + tailBits()) offset-LLR symbols (the
     * depunctured stream, erasures at kSymErased).  The encoder is
     * assumed to have started in and been flushed back to state 0.
     */
    ViterbiResult decode(const uint8_t *symbols, size_t nInfoBits,
                         Decision decision) const;

    const ConvCode &code() const { return code_; }

  private:
    ConvCode code_;
    /** branch_[s * 2 + u]: coded bit pair for (state s, input u). */
    std::vector<uint8_t> branch_;
};

} // namespace m4ps::fec

#endif // M4PS_FEC_VITERBI_HH
