/**
 * @file
 * Simple region allocator for simulated heaps: bump allocation with a
 * size-bucketed free list (no coalescing — adequate for the workloads,
 * and deterministic). Both the machine-local heap and the UVA heap use
 * this allocator; for the UVA heap both machines observe identical
 * allocation addresses because all allocation happens on the mobile
 * side (the paper's u_malloc).
 */
#ifndef NOL_SIM_HEAPALLOC_HPP
#define NOL_SIM_HEAPALLOC_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "support/logging.hpp"

namespace nol::sim {

/** Deterministic first-fit-by-size region allocator. */
class HeapAllocator
{
  public:
    HeapAllocator(uint64_t base, uint64_t size)
        : base_(base), limit_(base + size), next_(base)
    {}

    /** Allocate @p size bytes (16-byte aligned); 0 on exhaustion. */
    uint64_t
    allocate(uint64_t size)
    {
        if (size == 0)
            size = 1;
        size = (size + 15) & ~15ull;
        auto it = free_.find(size);
        if (it != free_.end() && !it->second.empty()) {
            uint64_t addr = it->second.back();
            it->second.pop_back();
            live_[addr] = size;
            live_bytes_ += size;
            peak_bytes_ = std::max(peak_bytes_, live_bytes_);
            return addr;
        }
        if (next_ + size > limit_)
            return 0;
        uint64_t addr = next_;
        next_ += size;
        live_[addr] = size;
        live_bytes_ += size;
        peak_bytes_ = std::max(peak_bytes_, live_bytes_);
        return addr;
    }

    /** Release a previously allocated block. */
    void
    release(uint64_t addr)
    {
        if (addr == 0)
            return;
        auto it = live_.find(addr);
        NOL_ASSERT(it != live_.end(),
                   "free of unallocated address 0x%llx",
                   static_cast<unsigned long long>(addr));
        free_[it->second].push_back(addr);
        live_bytes_ -= it->second;
        live_.erase(it);
    }

    /** Size of the live block at @p addr (0 if not live). */
    uint64_t
    blockSize(uint64_t addr) const
    {
        auto it = live_.find(addr);
        return it == live_.end() ? 0 : it->second;
    }

    /** True if @p addr falls inside this allocator's region. */
    bool
    contains(uint64_t addr) const
    {
        return addr >= base_ && addr < limit_;
    }

    uint64_t base() const { return base_; }
    uint64_t limit() const { return limit_; }
    uint64_t liveBytes() const { return live_bytes_; }
    uint64_t peakBytes() const { return peak_bytes_; }

    /** Reset to the pristine state. */
    void
    reset()
    {
        next_ = base_;
        free_.clear();
        live_.clear();
        live_bytes_ = 0;
        peak_bytes_ = 0;
    }

  private:
    uint64_t base_;
    uint64_t limit_;
    uint64_t next_;
    std::map<uint64_t, std::vector<uint64_t>> free_;
    std::map<uint64_t, uint64_t> live_;
    uint64_t live_bytes_ = 0;
    uint64_t peak_bytes_ = 0;
};

} // namespace nol::sim

#endif // NOL_SIM_HEAPALLOC_HPP
