#include "support/serialize.hh"

#include <bit>
#include <cstring>

namespace m4ps::support
{

void
StateWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
StateWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
StateWriter::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
StateWriter::bytes(const uint8_t *data, size_t n)
{
    u64(n);
    if (n > 0)
        buf_.insert(buf_.end(), data, data + n);
}

void
StateWriter::str(std::string_view s)
{
    bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

const uint8_t *
StateReader::need(size_t n)
{
    if (size_ - pos_ < n)
        throw SerializeError("state blob truncated: need " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(size_ - pos_));
    const uint8_t *p = data_ + pos_;
    pos_ += n;
    return p;
}

uint8_t
StateReader::u8()
{
    return *need(1);
}

uint32_t
StateReader::u32()
{
    const uint8_t *p = need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
StateReader::u64()
{
    const uint8_t *p = need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

double
StateReader::f64()
{
    return std::bit_cast<double>(u64());
}

void
StateReader::bytes(std::vector<uint8_t> &out)
{
    const uint64_t n = u64();
    if (n > remaining())
        throw SerializeError("byte run of " + std::to_string(n) +
                             " exceeds blob remainder");
    const uint8_t *p = need(static_cast<size_t>(n));
    out.assign(p, p + n);
}

void
StateReader::bytesInto(uint8_t *out, size_t n)
{
    const uint64_t have = u64();
    if (have != n)
        throw SerializeError("byte run length " + std::to_string(have) +
                             " != expected " + std::to_string(n));
    std::memcpy(out, need(n), n);
}

std::string
StateReader::str()
{
    const uint64_t n = u64();
    if (n > remaining())
        throw SerializeError("string of " + std::to_string(n) +
                             " exceeds blob remainder");
    const uint8_t *p = need(static_cast<size_t>(n));
    return std::string(reinterpret_cast<const char *>(p),
                       static_cast<size_t>(n));
}

void
StateReader::expect(uint8_t marker, const char *what)
{
    const uint8_t got = u8();
    if (got != marker)
        throw SerializeError(std::string("bad section marker for ") +
                             what + ": got " + std::to_string(got) +
                             ", want " + std::to_string(marker));
}

namespace
{

/**
 * Slice-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
 * t[0] is the classic byte table, and t[k][b] is the CRC of byte b
 * followed by k zero bytes, so eight table reads fold eight input
 * bytes at once.
 */
struct Crc32Tables
{
    uint32_t t[8][256] = {};

    constexpr Crc32Tables()
    {
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t c = b;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
            t[0][b] = c;
        }
        for (int k = 1; k < 8; ++k) {
            for (int b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
        }
    }
};

constexpr Crc32Tables kCrc32;

inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t n)
{
    const auto &t = kCrc32.t;
    uint32_t crc = 0xffffffffu;
    for (; n >= 8; data += 8, n -= 8) {
        const uint32_t lo = loadLe32(data) ^ crc;
        const uint32_t hi = loadLe32(data + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
    return crc ^ 0xffffffffu;
}

uint64_t
fnv1a64(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace m4ps::support
