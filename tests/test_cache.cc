/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "memsim/cache.hh"
#include "support/random.hh"

namespace m4ps::memsim
{
namespace
{

CacheConfig
tiny(int size = 1024, int assoc = 2, int line = 32)
{
    return {static_cast<uint64_t>(size), assoc, line};
}

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig c{32 * 1024, 2, 32};
    EXPECT_EQ(c.numSets(), 512u);
    c.validate();
    EXPECT_EQ(c.str(), "32KB 2-way 32B lines");
    CacheConfig big{8ull * 1024 * 1024, 2, 128};
    EXPECT_EQ(big.str(), "8MB 2-way 128B lines");
}

TEST(CacheConfigDeathTest, RejectsBadGeometry)
{
    CacheConfig bad{1000, 2, 32}; // not divisible
    EXPECT_DEATH(bad.validate(), "assertion");
    CacheConfig badline{1024, 2, 24};
    EXPECT_DEATH(badline.validate(), "power of two");
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit);  // same 32B line
    EXPECT_FALSE(c.access(0x120, false).hit); // next line
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(tiny());
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40, false).hit);
    EXPECT_TRUE(c.probe(0x40));
    // Probe must not refresh LRU: fill the set and check eviction
    // order is unaffected by probes.
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 32B lines, 1024B -> 16 sets. Lines mapping to set 0:
    // addresses 0, 16*32=512, 1024, ...
    Cache c(tiny());
    c.access(0, false);      // way A
    c.access(512, false);    // way B
    c.access(0, false);      // A is now MRU
    c.access(1024, false);   // evicts B (512)
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(512));
    EXPECT_TRUE(c.probe(1024));
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(tiny());
    c.access(0, true); // dirty
    c.access(512, false);
    const AccessResult r = c.access(1024, false); // evicts addr 0
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(Cache, CleanVictimNotReported)
{
    Cache c(tiny());
    c.access(0, false);
    c.access(512, false);
    const AccessResult r = c.access(1024, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Cache, WriteMarksLineDirtyOnHitToo)
{
    Cache c(tiny());
    c.access(0, false);      // clean install
    c.access(0, true);       // dirtied by a later store
    c.access(512, false);
    const AccessResult r = c.access(1024, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(Cache, EvictedAddressRecoversFullLineAddress)
{
    Cache c(tiny(1024, 1, 32)); // direct mapped, 32 sets
    const uint64_t a = 0x12340;
    c.access(a, true);
    const uint64_t conflict = a + 1024; // same set, different tag
    const AccessResult r = c.access(conflict, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, a & ~31ull);
}

TEST(Cache, ResetInvalidatesEverything)
{
    Cache c(tiny());
    for (int i = 0; i < 8; ++i)
        c.access(i * 64, false);
    EXPECT_GT(c.validLines(), 0u);
    c.reset();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, FillInstallsLikeAccess)
{
    Cache c(tiny());
    const AccessResult r = c.fill(0x200, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.fill(0x200, false).hit);
}

TEST(Cache, ValidLinesSaturatesAtCapacity)
{
    Cache c(tiny(1024, 2, 32)); // 32 lines total
    for (int i = 0; i < 100; ++i)
        c.access(static_cast<uint64_t>(i) * 32, false);
    EXPECT_EQ(c.validLines(), 32u);
}

/**
 * LRU inclusion property: with the same number of sets and line
 * size, a cache with higher associativity under true LRU never
 * misses on an access that a lower-associativity cache hits
 * (per-set stack inclusion).  We verify the aggregate corollary:
 * miss count is non-increasing in associativity.
 */
class LruInclusion : public ::testing::TestWithParam<int>
{
};

TEST_P(LruInclusion, MissesMonotoneInAssociativity)
{
    const int sets = 16;
    const int line = 32;
    const int assoc = GetParam();
    Cache small(CacheConfig{
        static_cast<uint64_t>(sets * line * assoc), assoc, line});
    Cache big(CacheConfig{
        static_cast<uint64_t>(sets * line * assoc * 2), assoc * 2,
        line});

    Rng rng(1234 + assoc);
    uint64_t misses_small = 0, misses_big = 0;
    for (int i = 0; i < 20000; ++i) {
        // Skewed working set with hot and cold regions.
        const uint64_t addr =
            rng.chance(0.7)
                ? static_cast<uint64_t>(rng.uniformInt(0, 63)) * line
                : static_cast<uint64_t>(rng.uniformInt(0, 4095)) * line;
        misses_small += small.access(addr, false).hit ? 0 : 1;
        misses_big += big.access(addr, false).hit ? 0 : 1;
    }
    EXPECT_LE(misses_big, misses_small);
}

INSTANTIATE_TEST_SUITE_P(Assocs, LruInclusion,
                         ::testing::Values(1, 2, 4, 8));

/**
 * Reference true-LRU cache: every way carries the value of a global
 * access clock from its last use, and a miss evicts the first invalid
 * way or else the smallest timestamp.  The MRU-ordered Cache must be
 * observably identical to it.
 */
class TickLruCache
{
  public:
    explicit TickLruCache(const CacheConfig &c)
        : assoc_(c.assoc),
          lineShift_(std::countr_zero(static_cast<uint64_t>(c.lineBytes))),
          setShift_(std::countr_zero(c.numSets())),
          setMask_(c.numSets() - 1),
          ways_(c.numSets() * c.assoc)
    {}

    AccessResult
    access(uint64_t addr, bool is_write)
    {
        const uint64_t line = addr >> lineShift_;
        const uint64_t set = line & setMask_;
        const uint64_t tag = line >> setShift_;
        Way *base = &ways_[set * assoc_];
        ++tick_;
        for (int w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = tick_;
                base[w].dirty = base[w].dirty || is_write;
                return {true, false, 0};
            }
        }
        Way *victim = nullptr;
        for (int w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        AccessResult res;
        if (victim->valid && victim->dirty) {
            res.evictedDirty = true;
            res.evictedAddr = ((victim->tag << setShift_) | set)
                              << lineShift_;
        }
        *victim = {tag, tick_, true, is_write};
        return res;
    }

    bool
    probe(uint64_t addr) const
    {
        const uint64_t line = addr >> lineShift_;
        const Way *base = &ways_[(line & setMask_) * assoc_];
        for (int w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == line >> setShift_)
                return true;
        }
        return false;
    }

    void
    reset()
    {
        for (auto &w : ways_)
            w = Way{};
        tick_ = 0;
    }

    uint64_t
    validLines() const
    {
        uint64_t n = 0;
        for (const auto &w : ways_)
            n += w.valid ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    int assoc_;
    int lineShift_;
    int setShift_;
    uint64_t setMask_;
    uint64_t tick_ = 0;
    std::vector<Way> ways_;
};

::testing::AssertionResult
sameResult(const AccessResult &got, const AccessResult &want)
{
    if (got.hit == want.hit && got.evictedDirty == want.evictedDirty &&
        got.evictedAddr == want.evictedAddr)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "got {hit " << got.hit << ", dirty " << got.evictedDirty
           << ", addr " << got.evictedAddr << "} want {hit " << want.hit
           << ", dirty " << want.evictedDirty << ", addr "
           << want.evictedAddr << "}";
}

/**
 * Seeded random streams of access, fill, probe, reset and the
 * hitMru-then-access demand path, against the reference at every
 * step, over associativities 1-8 and two line sizes.
 */
TEST(CacheOracle, RandomStreamsMatchTickLruReference)
{
    for (const int line : {32, 128}) {
        for (const int assoc : {1, 2, 4, 8}) {
            SCOPED_TRACE(::testing::Message()
                         << assoc << "-way, " << line << "B lines");
            const CacheConfig cfg{
                static_cast<uint64_t>(16 * line * assoc), assoc, line};
            Cache c(cfg);
            TickLruCache ref(cfg);
            Rng rng(77 + assoc * 131 + line);
            // Twice the capacity in lines: hits, LRU hits further
            // down a set, and evictions all stay frequent.
            const int64_t lines = 2 * 16 * assoc;
            for (int step = 0; step < 20000; ++step) {
                const uint64_t addr =
                    static_cast<uint64_t>(rng.uniformInt(0, lines - 1)) *
                        line +
                    static_cast<uint64_t>(rng.uniformInt(0, line - 1));
                const bool write = rng.chance(0.3);
                const int64_t op = rng.uniformInt(0, 999);
                if (op < 400) {
                    ASSERT_TRUE(sameResult(c.access(addr, write),
                                           ref.access(addr, write)))
                        << "access at step " << step;
                } else if (op < 800) {
                    const AccessResult got =
                        c.hitMru(addr, write) ? AccessResult{true}
                                              : c.access(addr, write);
                    ASSERT_TRUE(
                        sameResult(got, ref.access(addr, write)))
                        << "demand at step " << step;
                } else if (op < 900) {
                    ASSERT_TRUE(sameResult(c.fill(addr, write),
                                           ref.access(addr, write)))
                        << "fill at step " << step;
                } else if (op < 999) {
                    ASSERT_EQ(c.probe(addr), ref.probe(addr))
                        << "probe at step " << step;
                } else {
                    c.reset();
                    ref.reset();
                }
                ASSERT_EQ(c.validLines(), ref.validLines())
                    << "step " << step;
            }
        }
    }
}

/** A hit below way 0 moves the line to MRU; hitMru then finds it. */
TEST(Cache, HitMruSeesOnlyTheMostRecentLine)
{
    Cache c(tiny(1024, 4, 32)); // 8 sets; 0, 256, 512 share set 0
    EXPECT_FALSE(c.hitMru(0, false)); // cold
    c.access(0, false);
    c.access(256, false);
    EXPECT_TRUE(c.hitMru(256, false));
    EXPECT_FALSE(c.hitMru(0, false)); // present, not MRU
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.hitMru(0, true));    // dirties in place
    c.access(256, false);
    c.access(512, false);
    c.access(768, false);
    const AccessResult r = c.access(1024, false); // evicts LRU line 0
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(CacheDeathTest, OneSetOneByteLinesRejected)
{
    // The invalid-way sentinel needs at least one bit of shift.
    EXPECT_DEATH({ Cache c(CacheConfig{2, 2, 1}); }, "two bytes");
}

/** Sequential streaming through a cache misses once per line. */
TEST(Cache, StreamingMissesOncePerLine)
{
    Cache c(tiny(4096, 2, 32));
    uint64_t misses = 0;
    for (uint64_t b = 0; b < 64 * 1024; ++b)
        misses += c.access(b, false).hit ? 0 : 1;
    EXPECT_EQ(misses, 64u * 1024 / 32);
}

/** Blocked reuse hits: the phenomenon behind the whole paper. */
TEST(Cache, BlockedReuseHitsAfterFirstTouch)
{
    Cache c(tiny(8192, 2, 32));
    // Touch a 1KB block 100 times: 32 cold misses, everything else
    // hits because the block fits.
    uint64_t misses = 0;
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t b = 0; b < 1024; b += 4)
            misses += c.access(b, false).hit ? 0 : 1;
    EXPECT_EQ(misses, 1024u / 32);
}

} // namespace
} // namespace m4ps::memsim
