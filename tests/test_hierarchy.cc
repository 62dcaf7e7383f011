/**
 * @file
 * Tests for the two-level hierarchy: counter semantics, row
 * coalescing, writeback propagation, prefetch modelling, regions,
 * and sharded recording + in-order replay.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "memsim/hierarchy.hh"
#include "support/random.hh"

namespace m4ps::memsim
{
namespace
{

CacheConfig kL1{1024, 2, 32};          // 16 sets
CacheConfig kL2{16 * 1024, 2, 128};    // 64 sets

CostModel
unitCost()
{
    CostModel c;
    c.clockMhz = 100.0;
    c.cyclesPerAccess = 1.0;
    c.l2HitLatency = 10.0;
    c.dramLatency = 100.0;
    c.l2Exposure = 1.0;
    c.dramExposure = 1.0;
    return c;
}

TEST(Hierarchy, ColdLoadMissesBothLevels)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x1000, 1);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 1u);
    EXPECT_EQ(c.l1Misses, 1u);
    EXPECT_EQ(c.l2Misses, 1u);
    EXPECT_DOUBLE_EQ(c.stallL2Cycles, 10.0);
    EXPECT_DOUBLE_EQ(c.stallDramCycles, 100.0);
    EXPECT_DOUBLE_EQ(c.computeCycles, 1.0);
}

TEST(Hierarchy, SecondLoadHitsL1)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x1000, 1);
    mh.load(0x1004, 4);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 2u);
    EXPECT_EQ(c.l1Misses, 1u);
    EXPECT_EQ(c.l2Misses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // L1 set: 16 sets * 32B; addresses 0, 512, 1024 share L1 set 0.
    // L2: 64 sets * 128B; 0, 8192, ... share L2 set 0.
    mh.load(0, 1);
    mh.load(512, 1);
    mh.load(1024, 1); // evicts line 0 from L1; L2 keeps all three
    mh.load(0, 1);    // L1 miss, L2 hit
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.l1Misses, 4u);
    EXPECT_EQ(c.l2Misses, 3u);
}

TEST(Hierarchy, LineCrossingLoadTouchesBothLines)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(31, 2); // crosses 32B boundary
    EXPECT_EQ(mh.counters().gradLoads, 1u);
    EXPECT_EQ(mh.counters().l1Misses, 2u);
}

TEST(Hierarchy, RowLoadCoalescesLineProbes)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(0, 256, 256); // 256 byte-elements over 8 lines
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 256u);
    EXPECT_EQ(c.l1Misses, 8u);
    EXPECT_DOUBLE_EQ(c.computeCycles, 256.0);
}

TEST(Hierarchy, RowLoadUnalignedCoversPartialLines)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(30, 4, 4); // bytes 30..33: two lines
    EXPECT_EQ(mh.counters().l1Misses, 2u);
}

TEST(Hierarchy, EmptyRowIsFree)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(0, 0, 0);
    mh.storeRow(0, 0, 0);
    EXPECT_EQ(mh.counters().accesses(), 0u);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackToL2)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.store(0, 1);    // dirty line 0
    mh.load(512, 1);
    mh.load(1024, 1);  // evicts dirty line 0
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.l1Writebacks, 1u);
    EXPECT_EQ(c.gradStores, 1u);
}

TEST(Hierarchy, DirtyL2EvictionCountsDramWriteback)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // Dirty a line, then stream enough distinct L2 sets to evict it.
    mh.store(0, 1);
    // L2 is 16KB, 2-way, 128B lines, 64 sets; lines at stride 8192
    // land in set 0.
    mh.load(8192, 1);
    mh.load(16384, 1); // evicts L2 line 0 (dirty via L1 writeback? no:
                       // dirty bit lives in L1 until evicted)
    // Force the L1 writeback first so L2 holds the dirty data:
    MemoryHierarchy mh2(kL1, kL2, unitCost());
    mh2.store(0, 1);
    mh2.load(512, 1);
    mh2.load(1024, 1);       // L1 evicts dirty 0 -> L2 line 0 dirty
    EXPECT_EQ(mh2.counters().l1Writebacks, 1u);
    mh2.load(8192, 1);
    mh2.load(16384, 1);      // L2 set 0 full: evicts dirty line 0
    EXPECT_EQ(mh2.counters().l2Writebacks, 1u);
}

TEST(Hierarchy, PrefetchHitIsNop)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x2000, 1);
    mh.prefetch(0x2000);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.prefetches, 1u);
    EXPECT_EQ(c.prefetchL1Hits, 1u);
    EXPECT_EQ(c.prefetchFills, 0u);
}

TEST(Hierarchy, PrefetchMissFillsWithoutDemandCounters)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.prefetch(0x3000);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.prefetches, 1u);
    EXPECT_EQ(c.prefetchL1Hits, 0u);
    EXPECT_EQ(c.prefetchFills, 1u);
    EXPECT_EQ(c.l1Misses, 0u);
    EXPECT_EQ(c.l2Misses, 0u);
    EXPECT_DOUBLE_EQ(c.stallDramCycles, 0.0);
    // The prefetched line now hits on demand.
    mh.load(0x3000, 1);
    EXPECT_EQ(mh.counters().l1Misses, 0u);
}

TEST(Hierarchy, TickAccumulatesComputeCycles)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.tick(123.5);
    EXPECT_DOUBLE_EQ(mh.counters().computeCycles, 123.5);
    EXPECT_DOUBLE_EQ(mh.counters().totalCycles(), 123.5);
}

TEST(Hierarchy, ElapsedSecondsUsesClock)
{
    MemoryHierarchy mh(kL1, kL2, unitCost()); // 100 MHz
    mh.tick(1e8);
    EXPECT_NEAR(mh.elapsedSeconds(), 1.0, 1e-9);
}

TEST(Hierarchy, ExposureScalesStalls)
{
    CostModel cm = unitCost();
    cm.l2Exposure = 0.5;
    cm.dramExposure = 0.25;
    MemoryHierarchy mh(kL1, kL2, cm);
    mh.load(0, 1);
    EXPECT_DOUBLE_EQ(mh.counters().stallL2Cycles, 5.0);
    EXPECT_DOUBLE_EQ(mh.counters().stallDramCycles, 25.0);
}

TEST(Hierarchy, ScopedRegionCapturesDelta)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0, 1);
    {
        MemoryHierarchy::ScopedRegion r(mh, "inner");
        mh.load(4096, 1);
        mh.load(4100, 1);
    }
    mh.load(8192, 1);
    const CounterSet inner = mh.profiler().get("inner");
    EXPECT_EQ(inner.gradLoads, 2u);
    EXPECT_EQ(inner.l1Misses, 1u);
    EXPECT_EQ(mh.counters().gradLoads, 4u);
}

TEST(Hierarchy, NestedRegionsAccumulateIndependently)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    for (int i = 0; i < 3; ++i) {
        MemoryHierarchy::ScopedRegion r(mh, "outer");
        mh.load(static_cast<uint64_t>(i) * 4096, 1);
        MemoryHierarchy::ScopedRegion r2(mh, "inner");
        mh.load(static_cast<uint64_t>(i) * 4096 + 64, 1);
    }
    EXPECT_EQ(mh.profiler().get("outer").gradLoads, 6u);
    EXPECT_EQ(mh.profiler().get("inner").gradLoads, 3u);
    EXPECT_TRUE(mh.profiler().has("outer"));
    EXPECT_FALSE(mh.profiler().has("absent"));
}

/** One step of a mixed access stream. */
struct StreamOp
{
    enum Kind { Load, Store, LoadRow, StoreRow, Prefetch, Tick } kind;
    uint64_t addr = 0;
    uint64_t bytes = 0;
    uint64_t elems = 0;
    double cycles = 0;
};

std::vector<StreamOp>
mixedStream(uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<StreamOp> ops;
    for (int i = 0; i < n; ++i) {
        StreamOp op{static_cast<StreamOp::Kind>(rng.uniformInt(0, 5))};
        // A hot 2 KB block (L1 hits, LRU reorders) inside a 64 KB
        // range (L1 and L2 evictions, dirty writebacks).
        op.addr = static_cast<uint64_t>(
            rng.chance(0.8) ? rng.uniformInt(0, 2047)
                            : rng.uniformInt(0, 65535));
        op.bytes = static_cast<uint64_t>(
            op.kind == StreamOp::LoadRow || op.kind == StreamOp::StoreRow
                ? rng.uniformInt(0, 96)
                : int64_t{1} << rng.uniformInt(0, 3));
        op.elems = op.bytes / 2 + 1;
        op.cycles = rng.uniformReal(0.0, 40.0);
        ops.push_back(op);
    }
    return ops;
}

void
apply(MemoryHierarchy &mh, const StreamOp &op)
{
    switch (op.kind) {
      case StreamOp::Load:
        mh.load(op.addr, static_cast<int>(op.bytes));
        break;
      case StreamOp::Store:
        mh.store(op.addr, static_cast<int>(op.bytes));
        break;
      case StreamOp::LoadRow:
        mh.loadRow(op.addr, op.bytes, op.elems);
        break;
      case StreamOp::StoreRow:
        mh.storeRow(op.addr, op.bytes, op.elems);
        break;
      case StreamOp::Prefetch:
        mh.prefetch(op.addr);
        break;
      case StreamOp::Tick:
        mh.tick(op.cycles);
        break;
    }
}

/**
 * The same stream simulated directly, or recorded into shards on
 * worker threads and merged in order, gives == counters (cycle
 * doubles included) and leaves the caches in the same state.
 */
TEST(HierarchyReplay, ShardedRecordingMatchesDirectSimulation)
{
    CostModel cm;
    cm.cyclesPerAccess = 1.3;
    cm.l2HitLatency = 10.7;
    cm.dramLatency = 101.3;
    cm.l2Exposure = 0.6;
    cm.dramExposure = 0.35;
    const std::vector<StreamOp> ops = mixedStream(2024, 40000);

    MemoryHierarchy direct(kL1, kL2, cm);
    for (const StreamOp &op : ops)
        apply(direct, op);

    MemoryHierarchy replayed(kL1, kL2, cm);
    const size_t kShards = 8;
    std::vector<TraceShard> shards(kShards);
    std::vector<std::thread> workers;
    for (size_t k = 0; k < kShards; ++k) {
        workers.emplace_back([&, k] {
            MemoryHierarchy::bindShard(&shards[k]);
            const size_t lo = ops.size() * k / kShards;
            const size_t hi = ops.size() * (k + 1) / kShards;
            for (size_t i = lo; i < hi; ++i)
                apply(replayed, ops[i]);
            MemoryHierarchy::bindShard(nullptr);
        });
    }
    for (std::thread &t : workers)
        t.join();
    EXPECT_EQ(replayed.counters(), CounterSet{});
    for (TraceShard &shard : shards) {
        EXPECT_FALSE(shard.empty());
        replayed.merge(shard);
        EXPECT_TRUE(shard.empty());
    }

    EXPECT_EQ(replayed.counters(), direct.counters())
        << "replayed:\n" << replayed.counters().str()
        << "direct:\n" << direct.counters().str();
    EXPECT_GT(direct.counters().l1Misses, 0u);
    EXPECT_GT(direct.counters().l2Misses, 0u);
    EXPECT_GT(direct.counters().l1Writebacks, 0u);
    EXPECT_GT(direct.counters().prefetchL1Hits, 0u);

    // Same cache state: a further direct stream keeps them equal.
    for (const StreamOp &op : mixedStream(7, 5000)) {
        apply(direct, op);
        apply(replayed, op);
    }
    EXPECT_EQ(replayed.counters(), direct.counters());
    EXPECT_EQ(replayed.l1().validLines(), direct.l1().validLines());
    EXPECT_EQ(replayed.l2().validLines(), direct.l2().validLines());
}

TEST(CounterSet, ArithmeticOperators)
{
    CounterSet a;
    a.gradLoads = 10;
    a.l1Misses = 2;
    a.computeCycles = 5.0;
    CounterSet b;
    b.gradLoads = 3;
    b.l1Misses = 1;
    b.computeCycles = 1.5;
    CounterSet d = a - b;
    EXPECT_EQ(d.gradLoads, 7u);
    EXPECT_EQ(d.l1Misses, 1u);
    EXPECT_DOUBLE_EQ(d.computeCycles, 3.5);
    d += b;
    EXPECT_EQ(d.gradLoads, 10u);
    EXPECT_FALSE(a.str().empty());
}

TEST(HierarchyDeathTest, L2LineSmallerThanL1Rejected)
{
    CacheConfig l2small{16 * 1024, 2, 16};
    EXPECT_DEATH(MemoryHierarchy(kL1, l2small, unitCost()),
                 "L2 line must not be smaller");
}

} // namespace
} // namespace m4ps::memsim
