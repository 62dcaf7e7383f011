/**
 * @file
 * Two-level data-cache hierarchy with DRAM backing.
 *
 * MemoryHierarchy glues the L1 and L2 Cache models, the CostModel,
 * and the CounterSet together.  The codec drives it with graduated
 * loads/stores (optionally coalesced into row accesses that probe
 * each covered cache line once while still counting one graduated
 * access per element - identical line-granularity behaviour, much
 * faster simulation) and software prefetches.
 *
 * Hit fast path: the codec hits L1 on well over 99% of its accesses,
 * and most of those hit the line its set used last.  load(), store(),
 * loadRow() and storeRow() are therefore inline: one test of the
 * thread's recording shard, the counter updates, then one tag
 * compare per line against the set's most recently used way
 * (Cache::hitMru).  Only a line that is not MRU in its L1 set takes
 * the out-of-line touchLineSlow(): an LRU hit further down the set,
 * or a miss into L2 and DRAM.  The counters are the same either way.
 *
 * Parallel runs: cache state is inherently order dependent, so
 * worker threads never touch it directly.  A task (one macroblock
 * row) binds a TraceShard to its thread; every access the task
 * performs is recorded into the shard instead of being simulated.
 * After the parallel region the coordinating thread merges the
 * shards in deterministic row order, replaying each recorded access
 * against the real cache model.  Because the sequential encoder
 * processes rows in exactly that order, the merged counters are
 * bit-identical to a single-threaded run - no locks, no atomics on
 * the hot path, exact statistics.
 */

#ifndef M4PS_MEMSIM_HIERARCHY_HH
#define M4PS_MEMSIM_HIERARCHY_HH

#include <string>
#include <vector>

#include "memsim/cache.hh"
#include "memsim/cost_model.hh"
#include "memsim/counters.hh"
#include "support/obs/obs.hh"

namespace m4ps::memsim
{

/**
 * Per-task recording of simulated accesses.  Single writer (the
 * bound thread); merged by one thread after the region.
 */
class TraceShard
{
  public:
    /** Drop recorded accesses. */
    void clear() { ops_.clear(); }

    bool empty() const { return ops_.empty(); }

    /** Recorded access operations (loads, stores, prefetches, ticks). */
    size_t size() const { return ops_.size(); }

  private:
    friend class MemoryHierarchy;

    enum OpKind : uint32_t
    {
        kOpLoad = 0,
        kOpStore,
        kOpLoadRow,
        kOpStoreRow,
        kOpPrefetch,
        kOpTick,
    };

    /** One recorded access; 16 bytes.  Tick stores cycles in addr. */
    struct Op
    {
        uint64_t addr;
        uint32_t bytes;
        uint32_t elemsKind; //!< (elems << 3) | OpKind.
    };

    std::vector<Op> ops_;
};

/** L1 + L2 + DRAM model with perfex-style counters. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                    const CostModel &cost);

    /** One graduated load of @p bytes at @p addr. */
    void
    load(uint64_t addr, int bytes)
    {
        if (tlsShard_)
            record(TraceShard::kOpLoad, addr, bytes, 1);
        else
            loadNow(addr, bytes);
    }

    /** One graduated store of @p bytes at @p addr. */
    void
    store(uint64_t addr, int bytes)
    {
        if (tlsShard_)
            record(TraceShard::kOpStore, addr, bytes, 1);
        else
            storeNow(addr, bytes);
    }

    /**
     * @p elems graduated loads covering [@p addr, @p addr + @p bytes).
     * Each covered L1 line is probed exactly once.
     */
    void
    loadRow(uint64_t addr, uint64_t bytes, uint64_t elems)
    {
        if (tlsShard_)
            record(TraceShard::kOpLoadRow, addr, bytes, elems);
        else
            loadRowNow(addr, bytes, elems);
    }

    /** Store counterpart of loadRow(). */
    void
    storeRow(uint64_t addr, uint64_t bytes, uint64_t elems)
    {
        if (tlsShard_)
            record(TraceShard::kOpStoreRow, addr, bytes, elems);
        else
            storeRowNow(addr, bytes, elems);
    }

    /**
     * Software prefetch of the line containing @p addr.  A prefetch
     * whose line already sits in L1 is a nop that wasted issue slots
     * (counted in prefetchL1Hits); otherwise the line is filled
     * without demand-miss accounting or stall.
     */
    void prefetch(uint64_t addr);

    /** Charge @p cycles of pure compute (entropy coding etc.). */
    void tick(double cycles);

    /**
     * Bind @p shard as the current thread's recording target (null
     * unbinds).  While bound, every access on this thread is
     * recorded instead of simulated.
     */
    static void bindShard(TraceShard *shard) { tlsShard_ = shard; }

    /** The shard bound to the current thread, or null. */
    static TraceShard *boundShard() { return tlsShard_; }

    /**
     * Replay @p shard's recorded accesses, in recording order,
     * against the cache model, then clear the shard.  Call from one
     * thread, in deterministic task order, after the workers have
     * finished: the resulting counters are exactly those of a
     * sequential run that executed the tasks in merge order.
     */
    void merge(TraceShard &shard);

    const CounterSet &counters() const { return ctrs_; }
    RegionProfiler &profiler() { return prof_; }
    const RegionProfiler &profiler() const { return prof_; }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const CostModel &cost() const { return cost_; }

    /** Modelled execution time so far, in seconds. */
    double elapsedSeconds() const
    {
        return cost_.seconds(ctrs_.totalCycles());
    }

    /**
     * RAII counter region (the paper's SpeedShop-style function
     * wrapping).  On destruction the counter delta since construction
     * is accumulated into the named profiler bucket.
     */
    class ScopedRegion
    {
      public:
        ScopedRegion(MemoryHierarchy &mh, std::string name)
            : mh_(mh), name_(std::move(name)), start_(mh.counters())
        {
            if (obs::tracingEnabled())
                obsStartNs_ = obs::nowNs();
        }

        ~ScopedRegion()
        {
            const CounterSet delta = mh_.counters() - start_;
            mh_.profiler().add(name_, delta);
            if (obsStartNs_) {
                // Trace span named after the region, carrying the
                // counter delta (the paper's perfex numbers) as args.
                obs::completeEvent("memsim", "memsim." + name_,
                                   obsStartNs_,
                                   obs::nowNs() - obsStartNs_,
                                   counterArgsJson(delta));
            }
        }

        ScopedRegion(const ScopedRegion &) = delete;
        ScopedRegion &operator=(const ScopedRegion &) = delete;

      private:
        MemoryHierarchy &mh_;
        std::string name_;
        CounterSet start_;
        uint64_t obsStartNs_ = 0;
    };

    /** JSON object of a CounterSet's headline events (span args). */
    static std::string counterArgsJson(const CounterSet &c);

  private:
    /** Recording target of the current thread (null = simulate now). */
    static inline thread_local TraceShard *tlsShard_ = nullptr;

    /** Append one operation to the current thread's shard. */
    static void record(TraceShard::OpKind kind, uint64_t addr,
                       uint64_t bytes, uint64_t elems);

    /** Demand access to one L1 line. */
    void
    touchLine(uint64_t addr, bool is_write)
    {
        if (!l1_.hitMru(addr, is_write))
            touchLineSlow(addr, is_write);
    }

    /** touchLine() for a line that is not MRU in its L1 set. */
    void touchLineSlow(uint64_t addr, bool is_write);

    /** Write a dirty L1 victim down into L2. */
    void writebackToL2(uint64_t addr);

    // Immediate (cache-touching) counterparts of the public API.
    void
    loadNow(uint64_t addr, int bytes)
    {
        ++ctrs_.gradLoads;
        ctrs_.computeCycles += cost_.cyclesPerAccess;
        touchLine(addr, false);
        const uint64_t last = addr + bytes - 1;
        if ((last & l1LineMask_) != (addr & l1LineMask_))
            touchLine(last, false);
    }

    void
    storeNow(uint64_t addr, int bytes)
    {
        ++ctrs_.gradStores;
        ctrs_.computeCycles += cost_.cyclesPerAccess;
        touchLine(addr, true);
        const uint64_t last = addr + bytes - 1;
        if ((last & l1LineMask_) != (addr & l1LineMask_))
            touchLine(last, true);
    }

    void
    loadRowNow(uint64_t addr, uint64_t bytes, uint64_t elems)
    {
        if (bytes == 0)
            return;
        ctrs_.gradLoads += elems;
        ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
        touchLines(addr, addr + bytes, false);
    }

    void
    storeRowNow(uint64_t addr, uint64_t bytes, uint64_t elems)
    {
        if (bytes == 0)
            return;
        ctrs_.gradStores += elems;
        ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
        touchLines(addr, addr + bytes, true);
    }

    /** touchLine() each L1 line overlapping [@p addr, @p end). */
    void
    touchLines(uint64_t addr, uint64_t end, bool is_write)
    {
        const uint64_t line = l1_.config().lineBytes;
        for (uint64_t a = addr & l1LineMask_; a < end; a += line)
            touchLine(a, is_write);
    }

    void prefetchNow(uint64_t addr);

    Cache l1_;
    Cache l2_;
    CostModel cost_;
    CounterSet ctrs_;
    RegionProfiler prof_;
    uint64_t l1LineMask_;
};

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_HIERARCHY_HH
