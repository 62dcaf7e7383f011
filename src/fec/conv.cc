#include "fec/conv.hh"

namespace m4ps::fec
{

namespace
{

inline int
parity(unsigned v)
{
    return __builtin_parity(v);
}

/** Window = newest input at bit k-1, then the k-1 previous bits. */
inline unsigned
window(int state, int u, int k)
{
    return (static_cast<unsigned>(u) << (k - 1)) |
           static_cast<unsigned>(state);
}

} // namespace

bool
ConvCode::valid() const
{
    if (k < 3 || k > 7)
        return false;
    const unsigned span = 1u << k;
    if (g1 == 0 || g2 == 0 || g1 >= span || g2 >= span || g1 == g2)
        return false;
    // Both polynomials must tap the newest and the oldest register
    // bit, otherwise the effective constraint length is shorter than
    // advertised and the tail no longer terminates the trellis span.
    const unsigned newest = 1u << (k - 1);
    return (g1 & newest) && (g2 & newest) && (g1 & 1u) && (g2 & 1u);
}

uint8_t
branchBits(const ConvCode &code, int state, int u)
{
    const unsigned w = window(state, u, code.k);
    return static_cast<uint8_t>(parity(w & code.g1) |
                                (parity(w & code.g2) << 1));
}

int
nextState(const ConvCode &code, int state, int u)
{
    return static_cast<int>(window(state, u, code.k) >> 1);
}

// ------------------------------------------------------------------
// Lookup variant: one table row per (state, input byte).
// ------------------------------------------------------------------

LookupEncoder::LookupEncoder(const ConvCode &code) : code_(code)
{
    const int states = code.numStates();
    table_.resize(static_cast<size_t>(states) * 256);
    for (int s = 0; s < states; ++s) {
        for (int byte = 0; byte < 256; ++byte) {
            uint16_t coded = 0;
            int st = s;
            for (int bit = 7; bit >= 0; --bit) {
                const int u = (byte >> bit) & 1;
                const uint8_t b = branchBits(code, st, u);
                // First pair lands at the MSB end so output order
                // matches bit-serial encoding.
                coded = static_cast<uint16_t>(
                    (coded << 2) | ((b & 1) << 1) | ((b >> 1) & 1));
                st = nextState(code, st, u);
            }
            table_[static_cast<size_t>(s) * 256 + byte] = {
                coded, static_cast<uint8_t>(st)};
        }
    }
}

void
LookupEncoder::encodeByte(uint8_t byte, std::vector<uint8_t> &out)
{
    const Entry &e = table_[static_cast<size_t>(state_) * 256 + byte];
    for (int i = 15; i >= 0; --i)
        out.push_back(static_cast<uint8_t>((e.coded >> i) & 1));
    state_ = e.next;
}

void
LookupEncoder::encodeBytes(const uint8_t *bytes, size_t n,
                           std::vector<uint8_t> &out)
{
    out.reserve(out.size() + 16 * n);
    for (size_t i = 0; i < n; ++i)
        encodeByte(bytes[i], out);
}

void
LookupEncoder::flush(std::vector<uint8_t> &out)
{
    // The tail is k-1 < 8 bits, so it is clocked bit-serially.
    for (int i = 0; i < code_.tailBits(); ++i) {
        const uint8_t b = branchBits(code_, state_, 0);
        out.push_back(b & 1);
        out.push_back((b >> 1) & 1);
        state_ = nextState(code_, state_, 0);
    }
}

std::vector<uint8_t>
convEncodeBytes(const ConvCode &code, const uint8_t *bytes, size_t n)
{
    LookupEncoder enc(code);
    std::vector<uint8_t> out;
    enc.encodeBytes(bytes, n, out);
    enc.flush(out);
    return out;
}

} // namespace m4ps::fec
