/**
 * @file
 * Set-associative, write-back, write-allocate cache model.
 *
 * Stands in for the MIPS R10000/R12000 primary data cache (32 KB,
 * 2-way, 32-byte lines) and the board-level secondary cache (1/2/8 MB,
 * 2-way, 128-byte lines).  The model is trace-driven and stateful:
 * tags, per-line dirty bits, and true-LRU replacement per set.
 *
 * Each set keeps its ways in recency order, most recently used
 * first: a hit moves its way to the front, a miss drops the last way
 * (the LRU victim) and installs the new line at the front.  That is
 * exactly true LRU without a per-way timestamp, and it puts the line
 * a blocked codec is most likely to touch next in way 0, where
 * hitMru() finds it with one tag compare.
 */

#ifndef M4PS_MEMSIM_CACHE_HH
#define M4PS_MEMSIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace m4ps::memsim
{

/** Geometry of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 32 * 1024;
    int assoc = 2;
    int lineBytes = 32;

    uint64_t numSets() const
    {
        return sizeBytes / (static_cast<uint64_t>(lineBytes) * assoc);
    }

    /** Validate the geometry (power-of-two line/sets, divisibility). */
    void validate() const;

    std::string str() const;
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;
    bool evictedDirty = false;      //!< A dirty victim was evicted.
    uint64_t evictedAddr = 0;       //!< Base address of the victim line.
};

/** One level of cache: tags + dirty bits + true LRU per set. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access @p addr; allocate the line on a miss (write-allocate).
     *
     * @param addr byte address.
     * @param is_write marks the line dirty.
     * @return hit/miss and victim information.
     */
    AccessResult access(uint64_t addr, bool is_write);

    /**
     * Fast path of access(): true, with the same effect, when the
     * line containing @p addr is its set's most recently used line
     * (a hit that leaves the recency order as it is).  False, with
     * no state change, otherwise; the caller then calls access().
     */
    bool
    hitMru(uint64_t addr, bool is_write)
    {
        const uint64_t line = lineAddr(addr);
        Way &mru = ways_[setIndex(line) * config_.assoc];
        if (mru.tag != tagOf(line))
            return false;
        mru.dirty = mru.dirty || is_write;
        return true;
    }

    /** True if the line containing @p addr is present (no state change). */
    bool probe(uint64_t addr) const;

    /**
     * Install the line containing @p addr without counting as a demand
     * access (used for prefetch fills).  Returns victim information;
     * hit is true when the line was already present.
     */
    AccessResult fill(uint64_t addr, bool is_write = false);

    /** Invalidate all lines (loses dirty data; for test setup only). */
    void reset();

    const CacheConfig &config() const { return config_; }

    /** Number of currently valid lines (for tests/inspection). */
    uint64_t validLines() const;

  private:
    /** Tag of an invalid way; no line address shifts down to it. */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    struct Way
    {
        uint64_t tag = kInvalidTag;
        bool dirty = false;
    };

    uint64_t lineAddr(uint64_t addr) const { return addr >> lineShift_; }
    uint64_t setIndex(uint64_t line) const { return line & setMask_; }
    uint64_t tagOf(uint64_t line) const { return line >> setShift_; }

    CacheConfig config_;
    int lineShift_;
    int setShift_;
    uint64_t setMask_;
    /** sets * assoc, row-major by set; each set MRU first. */
    std::vector<Way> ways_;
};

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_CACHE_HH
