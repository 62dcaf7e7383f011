#include "memsim/hierarchy.hh"

#include <bit>

#include "support/logging.hh"

namespace m4ps::memsim
{

MemoryHierarchy::MemoryHierarchy(const CacheConfig &l1,
                                 const CacheConfig &l2,
                                 const CostModel &cost)
    : l1_(l1), l2_(l2), cost_(cost),
      l1LineMask_(~static_cast<uint64_t>(l1.lineBytes - 1))
{
    M4PS_ASSERT(l2.lineBytes >= l1.lineBytes,
                "L2 line must not be smaller than L1 line");
}

void
MemoryHierarchy::writebackToL2(uint64_t addr)
{
    ++ctrs_.l1Writebacks;
    // Writebacks retire through write buffers: no stall, and a
    // writeback that misses L2 is not a demand miss.  Its own dirty
    // victim still produces DRAM traffic.
    AccessResult wb = l2_.access(addr, true);
    if (!wb.hit && wb.evictedDirty)
        ++ctrs_.l2Writebacks;
}

void
MemoryHierarchy::touchLineSlow(uint64_t addr, bool is_write)
{
    AccessResult r1 = l1_.access(addr, is_write);
    if (r1.hit)
        return;

    ++ctrs_.l1Misses;
    ctrs_.stallL2Cycles += cost_.l2HitLatency * cost_.l2Exposure;

    AccessResult r2 = l2_.access(addr, false);
    if (!r2.hit) {
        ++ctrs_.l2Misses;
        ctrs_.stallDramCycles += cost_.dramLatency * cost_.dramExposure;
        if (r2.evictedDirty)
            ++ctrs_.l2Writebacks;
    }

    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr);
}

void
MemoryHierarchy::prefetchNow(uint64_t addr)
{
    ++ctrs_.prefetches;
    // A prefetch instruction still occupies an issue slot.
    ctrs_.computeCycles += 1.0;
    if (l1_.probe(addr)) {
        ++ctrs_.prefetchL1Hits;
        return;
    }
    ++ctrs_.prefetchFills;
    AccessResult r1 = l1_.fill(addr, false);
    AccessResult r2 = l2_.fill(addr, false);
    if (!r2.hit && r2.evictedDirty)
        ++ctrs_.l2Writebacks;
    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr);
}

void
MemoryHierarchy::record(TraceShard::OpKind kind, uint64_t addr,
                        uint64_t bytes, uint64_t elems)
{
    tlsShard_->ops_.push_back({addr, static_cast<uint32_t>(bytes),
                               (static_cast<uint32_t>(elems) << 3) |
                                   kind});
}

void
MemoryHierarchy::prefetch(uint64_t addr)
{
    if (tlsShard_)
        record(TraceShard::kOpPrefetch, addr, 0, 1);
    else
        prefetchNow(addr);
}

void
MemoryHierarchy::tick(double cycles)
{
    if (tlsShard_)
        record(TraceShard::kOpTick, std::bit_cast<uint64_t>(cycles), 0, 0);
    else
        ctrs_.computeCycles += cycles;
}

std::string
MemoryHierarchy::counterArgsJson(const CounterSet &c)
{
    return "{\"gradLoads\":" + std::to_string(c.gradLoads) +
           ",\"gradStores\":" + std::to_string(c.gradStores) +
           ",\"l1Misses\":" + std::to_string(c.l1Misses) +
           ",\"l2Misses\":" + std::to_string(c.l2Misses) +
           ",\"l1Writebacks\":" + std::to_string(c.l1Writebacks) +
           ",\"l2Writebacks\":" + std::to_string(c.l2Writebacks) +
           ",\"prefetches\":" + std::to_string(c.prefetches) +
           ",\"computeCycles\":" +
           std::to_string(static_cast<uint64_t>(c.computeCycles)) +
           ",\"stallL2Cycles\":" +
           std::to_string(static_cast<uint64_t>(c.stallL2Cycles)) +
           ",\"stallDramCycles\":" +
           std::to_string(static_cast<uint64_t>(c.stallDramCycles)) +
           "}";
}

void
MemoryHierarchy::merge(TraceShard &shard)
{
    M4PS_ASSERT(tlsShard_ == nullptr,
                "merge() must run outside any recording region");
    obs::Span span("memsim", "memsim.merge");
    if (span.active())
        span.setArgs("{\"ops\":" + std::to_string(shard.ops_.size()) +
                     "}");
    const CounterSet before = span.active() ? ctrs_ : CounterSet{};
    for (const TraceShard::Op &op : shard.ops_) {
        const uint64_t elems = op.elemsKind >> 3;
        switch (op.elemsKind & 7u) {
          case TraceShard::kOpLoad:
            loadNow(op.addr, static_cast<int>(op.bytes));
            break;
          case TraceShard::kOpStore:
            storeNow(op.addr, static_cast<int>(op.bytes));
            break;
          case TraceShard::kOpLoadRow:
            loadRowNow(op.addr, op.bytes, elems);
            break;
          case TraceShard::kOpStoreRow:
            storeRowNow(op.addr, op.bytes, elems);
            break;
          case TraceShard::kOpPrefetch:
            prefetchNow(op.addr);
            break;
          case TraceShard::kOpTick:
            ctrs_.computeCycles += std::bit_cast<double>(op.addr);
            break;
        }
    }
    if (span.active()) {
        std::string args = counterArgsJson(ctrs_ - before);
        args.back() = ',';
        args += "\"ops\":" + std::to_string(shard.ops_.size()) + "}";
        span.setArgs(std::move(args));
    }
    shard.clear();
}

} // namespace m4ps::memsim
