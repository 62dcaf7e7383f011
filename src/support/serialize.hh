/**
 * @file
 * Byte-exact state serialization for checkpoint/resume.
 *
 * The job supervisor (src/service) checkpoints a running encode so a
 * killed worker can resume from the last completed VOP and still
 * produce a bit-identical stream.  That guarantee is only as strong
 * as the fidelity of the state capture, so this module is
 * deliberately dumb: fixed-width little-endian scalars, length-
 * prefixed byte runs, and a bounds-checked reader that throws
 * SerializeError instead of reading garbage.  No versioning or
 * schema evolution happens here; callers (checkpoint.cc) wrap the
 * blob in a header carrying magic, version, and a CRC.
 */

#ifndef M4PS_SUPPORT_SERIALIZE_HH
#define M4PS_SUPPORT_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace m4ps::support
{

/** A state blob failed to parse (truncated, corrupt, or mismatched). */
class SerializeError : public std::runtime_error
{
  public:
    explicit SerializeError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Appends fixed-width little-endian fields to a byte buffer. */
class StateWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed raw byte run. */
    void bytes(const uint8_t *data, size_t n);

    /** Length-prefixed UTF-8 string. */
    void str(std::string_view s);

    const std::vector<uint8_t> &buffer() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked reader over a StateWriter blob. */
class StateReader
{
  public:
    StateReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit StateReader(const std::vector<uint8_t> &buf)
        : StateReader(buf.data(), buf.size())
    {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64();
    bool b() { return u8() != 0; }

    /** Read a length-prefixed byte run into @p out (resized). */
    void bytes(std::vector<uint8_t> &out);

    /** Read a length-prefixed run of exactly @p n bytes into @p out. */
    void bytesInto(uint8_t *out, size_t n);

    std::string str();

    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /**
     * Assert a structural marker written by the producer; mismatch
     * means reader and writer disagree about the layout.
     */
    void expect(uint8_t marker, const char *what);

  private:
    const uint8_t *need(size_t n);

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/** CRC-32 (IEEE 802.3 polynomial, reflected; slice-by-8) of a byte run. */
uint32_t crc32(const uint8_t *data, size_t n);

/** FNV-1a 64-bit hash of a string (config fingerprints). */
uint64_t fnv1a64(std::string_view s);

} // namespace m4ps::support

#endif // M4PS_SUPPORT_SERIALIZE_HH
