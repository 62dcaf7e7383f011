/**
 * @file
 * Convolutional channel coding: the encoder half.
 *
 * The resilience subsystem (docs/RESILIENCE.md) *conceals* channel
 * damage; this module is the start of the other half - *protecting*
 * bits before they meet the channel.  A rate-1/2 binary convolutional
 * code with constraint length K emits two parity bits per input bit,
 * each a modulo-2 sum over the last K inputs selected by a generator
 * polynomial.  The default is the ubiquitous K=7 {171, 133} (octal)
 * code (Voyager, 802.11, DVB), decoded by fec::ViterbiDecoder.
 *
 * The code is defined once, by branchBits() and nextState(); the
 * lookup encoder precomputes from them, per (state, input byte), the
 * 16 output bits and the next state, which is what the framing layer
 * uses on whole-byte payloads.  tests/test_fec.cc keeps a bit-serial
 * shift-register encoder as the oracle the lookup encoder must match.
 */

#ifndef M4PS_FEC_CONV_HH
#define M4PS_FEC_CONV_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m4ps::fec
{

/**
 * A rate-1/2 binary convolutional code.  Generator polynomials are
 * written in the conventional MSB-equals-newest-input form, so the
 * literature's octal constants work verbatim: g1 = 0171, g2 = 0133.
 */
struct ConvCode
{
    int k = 7;         //!< Constraint length, in [3, 7].
    uint8_t g1 = 0171; //!< 1 + D + D^2 + D^3 + D^6.
    uint8_t g2 = 0133; //!< 1 + D^2 + D^3 + D^5 + D^6.

    ConvCode() = default;
    ConvCode(int k_, uint8_t g1_, uint8_t g2_)
        : k(k_), g1(g1_), g2(g2_)
    {}

    int numStates() const { return 1 << (k - 1); }

    /** Tail bits appended to drive the trellis back to state 0. */
    int tailBits() const { return k - 1; }

    /** k in range and both polynomials tap the full register span. */
    bool valid() const;
};

/**
 * The 2 coded bits for one trellis branch: previous state @p state
 * (the last k-1 inputs, most recent at the high bit) consuming input
 * bit @p u.  Bit 0 of the result is the g1 parity, bit 1 the g2
 * parity.
 */
uint8_t branchBits(const ConvCode &code, int state, int u);

/** Successor state of @p state on input bit @p u. */
int nextState(const ConvCode &code, int state, int u);

/**
 * Byte-at-a-time lookup encoder: one table row per (state, byte)
 * holds the 16 output bits and the successor state, so encoding a
 * payload costs one table read per byte.  Bytes are consumed MSB
 * first, matching the bit order of the framing layer.
 */
class LookupEncoder
{
  public:
    explicit LookupEncoder(const ConvCode &code);

    void reset() { state_ = 0; }
    void encodeByte(uint8_t byte, std::vector<uint8_t> &out);
    void encodeBytes(const uint8_t *bytes, size_t n,
                     std::vector<uint8_t> &out);
    /** Tail flush is bit-serial; tails are k-1 < 8 bits. */
    void flush(std::vector<uint8_t> &out);
    int state() const { return state_; }

  private:
    struct Entry
    {
        uint16_t coded;    //!< 16 output bits, first pair at MSB.
        uint8_t next;      //!< Successor state.
    };

    ConvCode code_;
    std::vector<Entry> table_; //!< numStates x 256.
    int state_ = 0;
};

/**
 * Convenience: encode @p bytes (MSB-first bits) plus the zero tail,
 * returning one coded bit (0/1) per output element.
 */
std::vector<uint8_t> convEncodeBytes(const ConvCode &code,
                                     const uint8_t *bytes, size_t n);

} // namespace m4ps::fec

#endif // M4PS_FEC_CONV_HH
