#include "fec/frame.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "bitstream/startcode.hh"
#include "codec/streamtools.hh"
#include "fec/interleave.hh"
#include "support/obs/obs.hh"
#include "support/random.hh"
#include "support/serialize.hh"

namespace m4ps::fec
{

namespace
{

// A block whose wire region is cut off by more than this many bytes
// is counted as a framing error instead of being decoded from
// erasures: it bounds decode work on damaged/hostile inputs (the
// declared payload size cannot force work the stream doesn't back).
constexpr size_t kMaxErasurePadBytes = 4096;

// Upper bounds a frame header may claim; anything beyond is damage.
constexpr uint32_t kMaxPayloadBytes = 1u << 24;
constexpr uint32_t kMaxBlockCount = 1u << 20;

inline void
putLe16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xff));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void
putLe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

inline uint16_t
getLe16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t
getLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Bits (values 0/1, MSB first) to bytes; n must be a multiple of 8. */
std::vector<uint8_t>
packBits(const std::vector<uint8_t> &bits)
{
    std::vector<uint8_t> out(bits.size() / 8, 0);
    for (size_t i = 0; i < out.size() * 8; ++i)
        out[i / 8] = static_cast<uint8_t>(
            (out[i / 8] << 1) | (bits[i] & 1));
    return out;
}

/** Coded-symbol count on the wire for one block's payload. */
size_t
blockSymbolCount(uint32_t payload_bytes, const ConvCode &code,
                 Rate rate)
{
    const size_t infoBits = 8 * (static_cast<size_t>(payload_bytes) +
                                 4 /* CRC trailer */);
    const size_t codedBits =
        2 * (infoBits + static_cast<size_t>(code.tailBits()));
    return puncturedSize(codedBits, rate);
}

size_t
blockWireBytes(size_t sym_count, WireForm form)
{
    return form == WireForm::PackedHard ? (sym_count + 7) / 8
                                        : sym_count;
}

struct BlockInfo
{
    uint8_t sectionCode = 0;
    uint16_t vopIndex = kNoVop;
    uint32_t payloadBytes = 0;
    size_t wireOffset = 0; //!< Start of the wire symbols.
    size_t wireBytes = 0;  //!< Nominal size on an intact wire.
    size_t avail = 0;      //!< Bytes actually present in the stream.
};

/** Everything the header + block walk yields; total, never throws. */
struct FrameLayout
{
    bool headerOk = false;
    WireForm form = WireForm::PackedHard;
    Rate rate = Rate::R1_2;
    ConvCode code{};
    int depth = 1;
    uint32_t cleartextLen = 0;
    uint32_t blockCount = 0;
    size_t missingBlocks = 0; //!< Declared but cut off entirely.
    std::vector<BlockInfo> blocks;
};

FrameLayout
parseLayout(const std::vector<uint8_t> &framed)
{
    FrameLayout lay;
    if (framed.size() < kHeaderSize)
        return lay;
    const uint8_t *p = framed.data();
    if (!std::equal(kMagic, kMagic + 4, p) || p[4] != kVersion)
        return lay;
    if (support::crc32(p, kOffHeaderCrc) != getLe32(p + kOffHeaderCrc))
        return lay;
    if (p[kOffWireForm] > 1 || p[kOffRate] >= kNumRates)
        return lay;
    lay.form = static_cast<WireForm>(p[kOffWireForm]);
    lay.rate = static_cast<Rate>(p[kOffRate]);
    lay.code = ConvCode(p[7], p[8], p[9]);
    if (!lay.code.valid())
        return lay;
    lay.depth = getLe16(p + 10);
    lay.cleartextLen = getLe32(p + 12);
    lay.blockCount = getLe32(p + 16);
    if (lay.cleartextLen > framed.size() - kHeaderSize ||
        lay.blockCount > kMaxBlockCount) {
        return lay;
    }
    lay.headerOk = true;

    size_t pos = kHeaderSize + lay.cleartextLen;
    for (uint32_t i = 0; i < lay.blockCount; ++i) {
        if (pos + kBlockHeaderSize > framed.size()) {
            lay.missingBlocks = lay.blockCount - i;
            break;
        }
        BlockInfo b;
        b.sectionCode = framed[pos];
        b.vopIndex = getLe16(&framed[pos + 1]);
        b.payloadBytes = getLe32(&framed[pos + 3]);
        if (b.payloadBytes > kMaxPayloadBytes) {
            lay.missingBlocks = lay.blockCount - i;
            break;
        }
        const size_t syms =
            blockSymbolCount(b.payloadBytes, lay.code, lay.rate);
        b.wireBytes = blockWireBytes(syms, lay.form);
        b.wireOffset = pos + kBlockHeaderSize;
        b.avail = std::min(b.wireBytes,
                           framed.size() - b.wireOffset);
        lay.blocks.push_back(b);
        pos = b.wireOffset + b.avail;
        if (b.avail < b.wireBytes) {
            // The stream ends inside this block; everything after is
            // gone too.
            lay.missingBlocks = lay.blockCount - i - 1;
            break;
        }
    }
    return lay;
}

} // namespace

std::vector<uint8_t>
protect(const std::vector<uint8_t> &stream, const FecConfig &cfg)
{
    obs::Span span("fec", "fec.protect");
    const size_t cleartext = codec::protectableHeaderBytes(stream);
    const auto sections = codec::parseSections(stream);

    std::vector<uint8_t> out;
    out.reserve(kHeaderSize + stream.size() * 2);
    for (uint8_t m : kMagic)
        out.push_back(m);
    out.push_back(kVersion);
    out.push_back(static_cast<uint8_t>(cfg.wireForm()));
    out.push_back(static_cast<uint8_t>(cfg.rate));
    out.push_back(static_cast<uint8_t>(cfg.code.k));
    out.push_back(cfg.code.g1);
    out.push_back(cfg.code.g2);
    putLe16(out, static_cast<uint16_t>(
                     std::clamp(cfg.interleaveDepth, 0, 0xffff)));
    putLe32(out, static_cast<uint32_t>(cleartext));
    const size_t blockCountPos = out.size();
    putLe32(out, 0); // Block count, patched below.
    putLe32(out, 0); // Header CRC, patched below.
    out.insert(out.end(), stream.begin(), stream.begin() + cleartext);

    LookupEncoder enc(cfg.code);
    uint32_t blockCount = 0;
    int vopCount = 0;
    uint16_t curVop = kNoVop;
    for (const auto &s : sections) {
        if (s.offset < cleartext)
            continue;
        if (bits::isVopCode(s.code))
            curVop = static_cast<uint16_t>(vopCount++);

        // payload | CRC-32 trailer, then encode + flush to state 0.
        std::vector<uint8_t> buf(stream.begin() + s.offset,
                                 stream.begin() + s.offset + s.size);
        putLe32(buf, support::crc32(buf.data(), buf.size()));
        enc.reset();
        std::vector<uint8_t> bits;
        enc.encodeBytes(buf.data(), buf.size(), bits);
        enc.flush(bits);

        std::vector<uint8_t> wire =
            interleave(puncture(bits, cfg.rate), cfg.interleaveDepth);

        out.push_back(s.code);
        putLe16(out, curVop);
        putLe32(out, static_cast<uint32_t>(s.size));
        if (cfg.wireForm() == WireForm::PackedHard) {
            // Pad the last wire byte with zero bits.
            wire.resize((wire.size() + 7) / 8 * 8, 0);
            const auto packed = packBits(wire);
            out.insert(out.end(), packed.begin(), packed.end());
        } else {
            for (uint8_t &sym : wire)
                sym = sym ? kSymOne : kSymZero;
            out.insert(out.end(), wire.begin(), wire.end());
        }
        ++blockCount;
    }

    // Patch block count, then the header CRC over bytes [0, 20).
    for (int i = 0; i < 4; ++i)
        out[blockCountPos + i] =
            static_cast<uint8_t>((blockCount >> (8 * i)) & 0xff);
    const uint32_t crc = support::crc32(out.data(), kOffHeaderCrc);
    for (int i = 0; i < 4; ++i)
        out[kOffHeaderCrc + i] =
            static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
    if (span.active())
        span.setArgs("{\"blocks\":" + std::to_string(blockCount) +
                     ",\"payload_bits\":" +
                     std::to_string(8 * (stream.size() - cleartext)) +
                     "}");
    return out;
}

RecoverResult
recover(const std::vector<uint8_t> &framed)
{
    obs::Span span("fec", "fec.recover");
    RecoverResult res;
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk) {
        // Unusable header: hand the bytes through so the tolerant
        // decoder still gets its chance at them.
        res.stats.framingErrors = 1;
        res.stream = framed;
        obs::counter("fec.framing_errors").add(1);
        return res;
    }

    res.stream.assign(framed.begin() + kHeaderSize,
                      framed.begin() + kHeaderSize + lay.cleartextLen);
    res.stats.framingErrors = lay.missingBlocks;

    const ViterbiDecoder dec(lay.code);
    LookupEncoder reenc(lay.code);
    const Decision decision = lay.form == WireForm::SoftBytes
                                  ? Decision::Soft
                                  : Decision::Hard;
    auto vopEntry = [&res](uint16_t vop) -> VopFecCounts & {
        const int v = vop == kNoVop ? -1 : static_cast<int>(vop);
        for (auto &e : res.stats.perVop) {
            if (e.vop == v)
                return e;
        }
        res.stats.perVop.push_back(VopFecCounts{v, 0, 0, 0});
        return res.stats.perVop.back();
    };

    for (const BlockInfo &b : lay.blocks) {
        if (b.wireBytes - b.avail > kMaxErasurePadBytes) {
            ++res.stats.framingErrors;
            continue;
        }
        ++res.stats.blocks;
        VopFecCounts &vc = vopEntry(b.vopIndex);
        ++vc.blocks;

        const size_t infoBits =
            8 * (static_cast<size_t>(b.payloadBytes) + 4);
        const size_t codedBits =
            2 * (infoBits + static_cast<size_t>(lay.code.tailBits()));
        const size_t syms =
            blockSymbolCount(b.payloadBytes, lay.code, lay.rate);

        // Wire bytes -> offset-LLR symbols, erasures where cut off.
        std::vector<uint8_t> symbols(syms, kSymErased);
        const uint8_t *w = framed.data() + b.wireOffset;
        if (lay.form == WireForm::PackedHard) {
            for (size_t i = 0; i < syms; ++i) {
                if (i / 8 >= b.avail)
                    break;
                const int bit = (w[i / 8] >> (7 - i % 8)) & 1;
                symbols[i] = bit ? kSymOne : kSymZero;
            }
        } else {
            std::copy(w, w + b.avail, symbols.begin());
        }

        const auto deint = deinterleave(symbols, lay.depth);
        const auto full = depuncture(deint.data(), deint.size(),
                                     codedBits, lay.rate, kSymErased);
        const auto decoded =
            dec.decode(full.data(), infoBits, decision);
        const auto bytes = packBits(decoded.bits);

        const uint32_t wantCrc = getLe32(&bytes[b.payloadBytes]);
        const bool crcOk =
            support::crc32(bytes.data(), b.payloadBytes) == wantCrc;

        if (crcOk) {
            // Count the wire bits the decoder overrode: re-encode the
            // decoded block and diff against the received symbols
            // (in pre-interleave order; erasures don't count).
            reenc.reset();
            std::vector<uint8_t> bits;
            reenc.encodeBytes(bytes.data(), bytes.size(), bits);
            reenc.flush(bits);
            const auto clean = puncture(bits, lay.rate);
            uint64_t diff = 0;
            for (size_t i = 0;
                 i < clean.size() && i < deint.size(); ++i) {
                if (deint[i] == kSymErased)
                    continue;
                if ((deint[i] > kSymErased ? 1 : 0) != clean[i])
                    ++diff;
            }
            res.stats.correctedBits += diff;
            if (diff > 0) {
                ++res.stats.blocksCorrected;
                ++vc.corrected;
            }
        } else {
            ++res.stats.blocksUncorrectable;
            ++vc.uncorrectable;
        }

        // Damaged or not, the decoded bytes go downstream: the
        // tolerant decoder's concealment handles what FEC could not.
        res.stream.insert(res.stream.end(), bytes.begin(),
                          bytes.begin() + b.payloadBytes);
    }

    std::sort(res.stats.perVop.begin(), res.stats.perVop.end(),
              [](const VopFecCounts &a, const VopFecCounts &b) {
                  return a.vop < b.vop;
              });

    obs::counter("fec.blocks").add(res.stats.blocks);
    obs::counter("fec.blocks_corrected").add(res.stats.blocksCorrected);
    obs::counter("fec.blocks_uncorrectable")
        .add(res.stats.blocksUncorrectable);
    obs::counter("fec.framing_errors").add(res.stats.framingErrors);
    obs::counter("fec.corrected_bits").add(res.stats.correctedBits);
    for (const auto &e : res.stats.perVop) {
        if (e.vop < 0)
            continue;
        const std::string base = "fec.vop" + std::to_string(e.vop);
        obs::counter(base + ".corrected").add(e.corrected);
        obs::counter(base + ".uncorrectable").add(e.uncorrectable);
    }
    if (span.active())
        span.setArgs(
            "{\"blocks\":" + std::to_string(res.stats.blocks) +
            ",\"payload_bits\":" +
            std::to_string(8 * (res.stream.size() - lay.cleartextLen)) +
            "}");
    return res;
}

std::vector<uint8_t>
channelHard(std::vector<uint8_t> framed, const codec::FaultSpec &spec)
{
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk)
        return codec::injectFaults(std::move(framed), spec);

    // Gather the wire-symbol regions, damage them as one stream, and
    // scatter the result back: framing metadata rides the protected
    // transport, only coded symbols face the channel.
    std::vector<uint8_t> wire;
    for (const BlockInfo &b : lay.blocks)
        wire.insert(wire.end(), framed.begin() + b.wireOffset,
                    framed.begin() + b.wireOffset + b.avail);
    wire = codec::flipBits(std::move(wire), spec.ber, spec.seed);
    wire = codec::burstErrors(std::move(wire), spec.bursts,
                              spec.burstBytes, spec.seed + 1);
    size_t pos = 0;
    for (const BlockInfo &b : lay.blocks) {
        std::copy(wire.begin() + pos, wire.begin() + pos + b.avail,
                  framed.begin() + b.wireOffset);
        pos += b.avail;
    }

    // Truncation last (mirroring injectFaults), shielding the frame
    // header and the transport-protected cleartext prefix.
    return codec::truncateStream(std::move(framed),
                                 spec.truncateFraction,
                                 kHeaderSize + lay.cleartextLen);
}

std::vector<uint8_t>
channelSoft(std::vector<uint8_t> framed, double es_n0_db,
            uint64_t seed, double truncate_fraction)
{
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk || lay.form != WireForm::SoftBytes)
        return framed;

    const double esN0 = std::pow(10.0, es_n0_db / 10.0);
    const double sigma = 1.0 / std::sqrt(2.0 * esN0);
    Rng rng(seed);
    for (const BlockInfo &b : lay.blocks) {
        for (size_t i = 0; i < b.avail; ++i) {
            uint8_t &sym = framed[b.wireOffset + i];
            const double x = sym >= kSymErased ? 1.0 : -1.0;
            const double y = x + sigma * rng.gaussian();
            const double scaled = 64.0 * y;
            const int v = 128 + static_cast<int>(
                scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
            sym = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
    }
    return codec::truncateStream(std::move(framed), truncate_fraction,
                                 kHeaderSize + lay.cleartextLen);
}

double
hardBerAtEsN0Db(double es_n0_db)
{
    // BPSK: Pb = Q(sqrt(2 Es/N0)) = erfc(sqrt(Es/N0)) / 2.
    return 0.5 * std::erfc(std::sqrt(std::pow(10.0, es_n0_db / 10.0)));
}

} // namespace m4ps::fec
