#include "service/checkpoint.hh"

#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/obs/obs.hh"
#include "support/serialize.hh"

namespace m4ps::service
{

namespace
{

constexpr uint32_t kMagic = 0x4d34434b;  // "M4CK"
constexpr uint32_t kVersion = 1;

} // namespace

std::string
checkpointPath(const std::string &output)
{
    return output + ".ckpt";
}

void
saveCheckpoint(const std::string &path, const Checkpoint &c)
{
    obs::Span span("service", "ckpt.save");
    support::StateWriter sw;
    sw.u32(kMagic);
    sw.u32(kVersion);
    sw.u64(c.configHash);
    sw.i32(c.nextFrame);
    sw.bytes(c.state.data(), c.state.size());
    sw.u32(support::crc32(c.state.data(), c.state.size()));

    obs::Span fsyncSpan("service", "ckpt.fsync");
    if (span.active()) {
        const std::string args =
            "{\"bytes\":" + std::to_string(sw.buffer().size()) + "}";
        span.setArgs(args);
        fsyncSpan.setArgs(args);
    }

    // Durability: write the temp file, fsync it, then rename.  A
    // rename alone orders the *name* change, not the data - after a
    // power cut the new name can point at zero-length or partial
    // content on many filesystems.  Syncing before the rename means
    // the sidecar a restarted run finds is either the complete new
    // checkpoint or the complete old one, never a torn one.
    const std::string tmp = path + ".tmp";
    {
        const int fd = ::open(tmp.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0)
            throw std::runtime_error("cannot write checkpoint '" + tmp +
                                     "'");
        const auto &buf = sw.buffer();
        size_t off = 0;
        while (off < buf.size()) {
            const ssize_t w = ::write(fd, buf.data() + off,
                                      buf.size() - off);
            if (w < 0) {
                ::close(fd);
                ::unlink(tmp.c_str());
                throw std::runtime_error(
                    "short write to checkpoint '" + tmp + "'");
            }
            off += static_cast<size_t>(w);
        }
        if (::fsync(fd) != 0) {
            ::close(fd);
            ::unlink(tmp.c_str());
            throw std::runtime_error("cannot sync checkpoint '" + tmp +
                                     "'");
        }
        ::close(fd);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename checkpoint into '" +
                                 path + "'");
    }
}

bool
loadCheckpoint(const std::string &path, uint64_t configHash,
               Checkpoint *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<uint8_t> raw{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    try {
        support::StateReader sr(raw);
        if (sr.u32() != kMagic || sr.u32() != kVersion)
            throw support::SerializeError("bad checkpoint header");
        Checkpoint c;
        c.configHash = sr.u64();
        c.nextFrame = sr.i32();
        sr.bytes(c.state);
        const uint32_t crc = sr.u32();
        if (crc != support::crc32(c.state.data(), c.state.size()))
            throw support::SerializeError("checkpoint CRC mismatch");
        if (c.configHash != configHash || c.nextFrame < 0)
            throw support::SerializeError("stale checkpoint");
        *out = std::move(c);
        return true;
    } catch (const support::SerializeError &) {
        // Unusable: truncated, corrupt, or written for a different
        // job configuration.  Drop it so the next save starts clean.
        in.close();
        std::remove(path.c_str());
        return false;
    }
}

bool
peekCheckpoint(const std::string &path, uint64_t *configHash,
               int *nextFrame)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    uint8_t hdr[20];
    in.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (in.gcount() != sizeof(hdr))
        return false;
    support::StateReader sr(hdr, sizeof(hdr));
    if (sr.u32() != kMagic || sr.u32() != kVersion)
        return false;
    const uint64_t hash = sr.u64();
    const int next = sr.i32();
    if (configHash)
        *configHash = hash;
    if (nextFrame)
        *nextFrame = next;
    return true;
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
}

} // namespace m4ps::service
