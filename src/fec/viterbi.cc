#include "fec/viterbi.hh"

#include "codec/kernels/kernels.hh"
#include "support/logging.hh"

namespace m4ps::fec
{

const char *
decisionName(Decision d)
{
    return d == Decision::Hard ? "hard" : "soft";
}

ViterbiDecoder::ViterbiDecoder(const ConvCode &code) : code_(code)
{
    M4PS_ASSERT(code.valid(), "invalid convolutional code (k=",
                code.k, ")");
    const int states = code.numStates();
    branch_.resize(static_cast<size_t>(states) * 2);
    for (int s = 0; s < states; ++s) {
        branch_[s * 2 + 0] = branchBits(code, s, 0);
        branch_[s * 2 + 1] = branchBits(code, s, 1);
    }
}

namespace
{

/**
 * cost[r * 2 + e] of receiving symbol r when bit e was sent.  Soft:
 * the offset-LLR distance (r, 255 - r).  Hard: quantize to a bit and
 * count a mismatch, so an erasure (128) costs 0 either way.
 */
struct CostMap
{
    uint8_t cost[512];

    explicit CostMap(Decision d)
    {
        for (int r = 0; r < 256; ++r) {
            cost[2 * r] = static_cast<uint8_t>(
                d == Decision::Soft ? r : r > kSymErased);
            cost[2 * r + 1] = static_cast<uint8_t>(
                d == Decision::Soft ? 255 - r : r < kSymErased);
        }
    }
};

} // namespace

ViterbiResult
ViterbiDecoder::decode(const uint8_t *symbols, size_t nInfoBits,
                       Decision decision) const
{
    static const CostMap soft(Decision::Soft), hard(Decision::Hard);
    const int k = code_.k;
    const int halfMask = (1 << (k - 2)) - 1;
    const size_t steps = nInfoBits + static_cast<size_t>(
                                         code_.tailBits());

    // One decision word per step: bit ns records which predecessor
    // (by its low bit, the oldest register bit) won state ns.
    std::vector<uint64_t> decisions(steps, 0);
    codec::kernels::ViterbiArgs args;
    args.k = k;
    args.branch = branch_.data();
    args.cost = (decision == Decision::Soft ? soft : hard).cost;
    args.symbols = symbols;
    args.steps = steps;
    args.decisions = decisions.data();

    ViterbiResult res;
    res.pathMetric = codec::kernels::active().viterbiForward(args);

    // Traceback from the flushed state 0.  Each state carries its
    // newest register bit at the top, which *is* the decoded input.
    std::vector<uint8_t> all(steps);
    int state = 0;
    for (size_t t = steps; t-- > 0;) {
        all[t] = static_cast<uint8_t>(state >> (k - 2));
        const int lsb =
            static_cast<int>((decisions[t] >> state) & 1);
        state = ((state & halfMask) << 1) | lsb;
    }
    all.resize(nInfoBits);
    res.bits = std::move(all);
    return res;
}

} // namespace m4ps::fec
