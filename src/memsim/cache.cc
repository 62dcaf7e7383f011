#include "memsim/cache.hh"

#include <bit>
#include <sstream>

#include "support/logging.hh"

namespace m4ps::memsim
{

void
CacheConfig::validate() const
{
    M4PS_ASSERT(lineBytes > 0 && std::has_single_bit(
                    static_cast<uint64_t>(lineBytes)),
                "line size must be a power of two: ", lineBytes);
    M4PS_ASSERT(assoc > 0, "associativity must be positive");
    M4PS_ASSERT(sizeBytes % (static_cast<uint64_t>(lineBytes) * assoc) == 0,
                "size must be divisible by line*assoc");
    M4PS_ASSERT(std::has_single_bit(numSets()),
                "number of sets must be a power of two: ", numSets());
}

std::string
CacheConfig::str() const
{
    std::ostringstream os;
    if (sizeBytes >= 1024 * 1024 && sizeBytes % (1024 * 1024) == 0)
        os << sizeBytes / (1024 * 1024) << "MB";
    else
        os << sizeBytes / 1024 << "KB";
    os << " " << assoc << "-way " << lineBytes << "B lines";
    return os.str();
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    lineShift_ = std::countr_zero(
        static_cast<uint64_t>(config_.lineBytes));
    const uint64_t sets = config_.numSets();
    setShift_ = std::countr_zero(sets);
    setMask_ = sets - 1;
    // A tag keeps at most 64 - lineShift_ - setShift_ bits, so with
    // any shift at all no tag can equal the invalid sentinel.
    M4PS_ASSERT(lineShift_ + setShift_ > 0,
                "a one-set cache needs lines of at least two bytes");
    ways_.resize(sets * config_.assoc);
}

AccessResult
Cache::access(uint64_t addr, bool is_write)
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    Way *base = &ways_[set * config_.assoc];

    // Hit: move the way to the front, shifting the more recently
    // used ways back by one.
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].tag == tag) {
            Way hit = base[w];
            hit.dirty = hit.dirty || is_write;
            for (; w > 0; --w)
                base[w] = base[w - 1];
            base[0] = hit;
            return {true, false, 0};
        }
    }

    // Miss: the last way is the LRU line, or an invalid way when the
    // set is not yet full (valid ways always form a prefix).
    const Way &victim = base[config_.assoc - 1];
    AccessResult res;
    if (victim.tag != kInvalidTag && victim.dirty) {
        res.evictedDirty = true;
        res.evictedAddr = ((victim.tag << setShift_) | set) << lineShift_;
    }
    for (int w = config_.assoc - 1; w > 0; --w)
        base[w] = base[w - 1];
    base[0] = {tag, is_write};
    return res;
}

AccessResult
Cache::fill(uint64_t addr, bool is_write)
{
    // A prefetch fill installs the line at MRU, as if freshly used;
    // hardware typically inserts prefetches there.
    return access(addr, is_write);
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    const Way *base = &ways_[set * config_.assoc];
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (auto &w : ways_)
        w = Way{};
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (const auto &w : ways_)
        n += w.tag != kInvalidTag ? 1 : 0;
    return n;
}

} // namespace m4ps::memsim
