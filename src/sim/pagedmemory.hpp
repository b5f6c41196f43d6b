/**
 * @file
 * Paged virtual memory of one simulated machine. Pages materialize on
 * first touch: either auto-zeroed (the owning machine's own memory) or
 * through a fault handler (the server's copy-on-demand view of the
 * mobile device's memory, paper Sec. 4 / Fig. 5). Dirty bits drive the
 * write-back of modified pages at task finalization.
 */
#ifndef NOL_SIM_PAGEDMEMORY_HPP
#define NOL_SIM_PAGEDMEMORY_HPP

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/logging.hpp"

namespace nol::sim {

/** Bytes per page (matches the common 4 KiB OS page). */
constexpr uint64_t kPageSize = 4096;

/** Page number containing @p addr. */
constexpr uint64_t
pageOf(uint64_t addr)
{
    return addr / kPageSize;
}

/**
 * 128-bit content digest of a byte range. Pages hold the *unified* ABI
 * byte image (MemUnifier pins struct layout and byte order to the
 * mobile ABI before partitioning), so two machines — or two sessions
 * running the same binary — that hold the same logical content hold
 * the same bytes and therefore compute the same digest, regardless of
 * either host architecture's native endianness. This is what makes the
 * digest usable as a cross-session content address.
 */
struct PageDigest {
    uint64_t lo = 0;
    uint64_t hi = 0;

    friend bool
    operator==(const PageDigest &a, const PageDigest &b)
    {
        return a.lo == b.lo && a.hi == b.hi;
    }
    friend bool
    operator!=(const PageDigest &a, const PageDigest &b)
    {
        return !(a == b);
    }
    friend bool
    operator<(const PageDigest &a, const PageDigest &b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
};

/**
 * Hash for unordered digest maps (server page cache, pending-carrier
 * ledger). The digest *is* 128 bits of mixed content entropy, so
 * folding the halves is as good as rehashing them.
 */
struct PageDigestHash {
    size_t operator()(const PageDigest &d) const
    {
        return static_cast<size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/** Digest @p size bytes starting at @p data (two independent streams). */
PageDigest digestBytes(const uint8_t *data, uint64_t size);

/** Digest one full page. */
inline PageDigest
digestPage(const uint8_t *data)
{
    return digestBytes(data, kPageSize);
}

/** One materialized physical page. */
struct Page {
    std::unique_ptr<uint8_t[]> data;
    bool dirty = false;

    Page() : data(new uint8_t[kPageSize]()) {}
};

/** Sparse page-table-backed memory. */
class PagedMemory
{
  public:
    /**
     * Fault handler: called when a non-present page is touched. Must
     * install the page (installPage) and return true, or return false
     * to signal an unrecoverable access (panic).
     */
    using FaultHandler = std::function<bool(uint64_t page_num)>;

    /** Observer invoked with the page of every access (profiling). */
    using TouchObserver = std::function<void(uint64_t page_num)>;

    /** @param auto_zero materialize untouched pages as zero-fill. */
    explicit PagedMemory(bool auto_zero = true) : auto_zero_(auto_zero)
    {
        invalidateCache();
    }

    /** Generated code holds pointers into the translation cache. */
    PagedMemory(const PagedMemory &) = delete;
    PagedMemory &operator=(const PagedMemory &) = delete;

    void setFaultHandler(FaultHandler handler)
    {
        fault_handler_ = std::move(handler);
    }

    void setTouchObserver(TouchObserver observer)
    {
        touch_observer_ = std::move(observer);
    }

    /**
     * Read @p size bytes at @p addr into @p out. Inline fast path for
     * the common case — a single-page access whose page translation is
     * cached. Both execution backends funnel every guest load through
     * here, so the hash lookup this skips is the floor under their
     * wall clock. Fault accounting, the touch observer and dirty bits
     * behave exactly as the slow path.
     */
    void
    read(uint64_t addr, uint64_t size, uint8_t *out)
    {
        uint64_t offset = addr & (kPageSize - 1);
        if (offset + size <= kPageSize) {
            uint64_t page_num = addr / kPageSize;
            size_t way = translate(page_num);
            if (touch_observer_ != nullptr)
                touch_observer_(page_num);
            std::memcpy(out, cached_data_[way] + offset, size);
            return;
        }
        readSpan(addr, size, out);
    }

    /** Write @p size bytes at @p addr, marking pages dirty. */
    void
    write(uint64_t addr, uint64_t size, const uint8_t *src)
    {
        uint64_t offset = addr & (kPageSize - 1);
        if (offset + size <= kPageSize) {
            uint64_t page_num = addr / kPageSize;
            size_t way = translate(page_num);
            if (touch_observer_ != nullptr)
                touch_observer_(page_num);
            *cached_dirty_[way] = true;
            std::memcpy(cached_data_[way] + offset, src, size);
            return;
        }
        writeSpan(addr, size, src);
    }

    /** True if the page containing @p addr is materialized. */
    bool isPresent(uint64_t page_num) const
    {
        return pages_.count(page_num) != 0;
    }

    /**
     * Install @p data (kPageSize bytes, or nullptr for zero-fill) as
     * page @p page_num, replacing any existing contents. The installed
     * page starts clean.
     */
    void installPage(uint64_t page_num, const uint8_t *data);

    /** Raw bytes of a present page (read-only). */
    const uint8_t *pageData(uint64_t page_num) const;

    /** Content digest of a present page. */
    PageDigest pageDigest(uint64_t page_num) const;

    /** Drop every page. */
    void clear();

    /** Page numbers of all dirty pages, ascending. */
    std::vector<uint64_t> dirtyPages() const;

    /** Page numbers of all present pages, ascending. */
    std::vector<uint64_t> presentPages() const;

    /** Clear the dirty bit of every page. */
    void clearDirtyBits();

    /** Mark one page clean. */
    void clearDirty(uint64_t page_num);

    /**
     * Mark a present page dirty again (failover rollback: an aborted
     * offload's prefetch cleared mobile dirty bits for pages whose
     * server copies were then discarded).
     */
    void markDirty(uint64_t page_num);

    uint64_t pageCount() const { return pages_.size(); }

    /** Translation-cache ways (direct-mapped on page number). Sized
     *  for the worst resident set a guest inner loop alternates over:
     *  a 3D stencil touches ~20 grid rows at once and each row lands
     *  on its own page, so 8 ways thrashed — 64 covers it with room
     *  for stack, globals and scratch. 1 KiB of tags, still L1-hot. */
    static constexpr size_t kCacheWays = 64;

    /**
     * The translation cache, exported for generated code that serves
     * hits itself: way w = page & (kCacheWays - 1) caches page
     * cacheTags()[w] (~0 when empty), whose bytes start at
     * cacheData()[w] and whose dirty bit is *cacheDirty()[w]. A hit
     * behaves exactly as read()/write() on it when no touch observer
     * is set. The arrays live as long as this object; the pointers in
     * them stay valid until the way is refilled or clear() runs.
     */
    const uint64_t *cacheTags() const { return cached_num_; }
    uint8_t *const *cacheData() const { return cached_data_; }
    bool *const *cacheDirty() const { return cached_dirty_; }

    bool hasTouchObserver() const { return touch_observer_ != nullptr; }

  private:
    /** The way holding @p page_num's translation, filled on a miss. */
    size_t
    translate(uint64_t page_num)
    {
        size_t way = page_num & (kCacheWays - 1);
        if (cached_num_[way] != page_num)
            fill(page_num, way);
        return way;
    }

    /**
     * Find (or fault in) @p page_num and cache it in @p way. Does NOT
     * fire the touch observer or set the dirty bit — callers do, so
     * cache hits and misses behave the same. unordered_map nodes are
     * pointer-stable across inserts, so the cached pointers only need
     * invalidating on clear().
     */
    void fill(uint64_t page_num, size_t way);

    /** Multi-page (page-crossing) read loop. */
    void readSpan(uint64_t addr, uint64_t size, uint8_t *out);

    /** Multi-page (page-crossing) write loop. */
    void writeSpan(uint64_t addr, uint64_t size, const uint8_t *src);

    void invalidateCache()
    {
        for (size_t w = 0; w < kCacheWays; ++w) {
            cached_num_[w] = ~0ull;
            cached_data_[w] = nullptr;
            cached_dirty_[w] = nullptr;
        }
    }

    std::unordered_map<uint64_t, Page> pages_;
    FaultHandler fault_handler_;
    TouchObserver touch_observer_;
    bool auto_zero_;
    uint64_t cached_num_[kCacheWays];
    uint8_t *cached_data_[kCacheWays];
    bool *cached_dirty_[kCacheWays];
};

} // namespace nol::sim

#endif // NOL_SIM_PAGEDMEMORY_HPP
