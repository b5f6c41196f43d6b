#include "sim/pagedmemory.hpp"

#include <algorithm>
#include <cstring>

namespace nol::sim {

void
PagedMemory::fill(uint64_t page_num, size_t way)
{
    auto it = pages_.find(page_num);
    if (it == pages_.end()) {
        if (fault_handler_ != nullptr) {
            if (!fault_handler_(page_num)) {
                panic("unhandled page fault at page 0x%llx",
                      static_cast<unsigned long long>(page_num));
            }
            it = pages_.find(page_num);
            if (it == pages_.end()) {
                if (!auto_zero_) {
                    panic("fault handler did not install page 0x%llx",
                          static_cast<unsigned long long>(page_num));
                }
                it = pages_.emplace(page_num, Page()).first;
            }
        } else if (auto_zero_) {
            it = pages_.emplace(page_num, Page()).first;
        } else {
            panic("access to unmapped page 0x%llx with no fault handler",
                  static_cast<unsigned long long>(page_num));
        }
    }
    cached_num_[way] = page_num;
    cached_data_[way] = it->second.data.get();
    cached_dirty_[way] = &it->second.dirty;
}

void
PagedMemory::readSpan(uint64_t addr, uint64_t size, uint8_t *out)
{
    while (size > 0) {
        uint64_t page_num = pageOf(addr);
        uint64_t offset = addr % kPageSize;
        uint64_t chunk = std::min(size, kPageSize - offset);
        size_t way = translate(page_num);
        if (touch_observer_ != nullptr)
            touch_observer_(page_num);
        std::memcpy(out, cached_data_[way] + offset, chunk);
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
PagedMemory::writeSpan(uint64_t addr, uint64_t size, const uint8_t *src)
{
    while (size > 0) {
        uint64_t page_num = pageOf(addr);
        uint64_t offset = addr % kPageSize;
        uint64_t chunk = std::min(size, kPageSize - offset);
        size_t way = translate(page_num);
        if (touch_observer_ != nullptr)
            touch_observer_(page_num);
        *cached_dirty_[way] = true;
        std::memcpy(cached_data_[way] + offset, src, chunk);
        addr += chunk;
        src += chunk;
        size -= chunk;
    }
}

void
PagedMemory::installPage(uint64_t page_num, const uint8_t *data)
{
    Page &page = pages_[page_num];
    if (data != nullptr)
        std::memcpy(page.data.get(), data, kPageSize);
    else
        std::memset(page.data.get(), 0, kPageSize);
    page.dirty = false;
}

const uint8_t *
PagedMemory::pageData(uint64_t page_num) const
{
    auto it = pages_.find(page_num);
    NOL_ASSERT(it != pages_.end(), "pageData of absent page 0x%llx",
               static_cast<unsigned long long>(page_num));
    return it->second.data.get();
}

PageDigest
digestBytes(const uint8_t *data, uint64_t size)
{
    // Two independent byte streams: FNV-1a and a rotate-xor-multiply
    // accumulator. 128 bits total, so colliding page contents would
    // have to defeat both at once — the page-cache tests sweep a
    // corpus of real and adversarially similar pages to back this up.
    uint64_t a = 0xcbf29ce484222325ull; // FNV offset basis
    uint64_t b = 0x9e3779b97f4a7c15ull ^ (size * 0xff51afd7ed558ccdull);
    for (uint64_t i = 0; i < size; ++i) {
        a = (a ^ data[i]) * 0x00000100000001b3ull; // FNV prime
        b = ((b << 5) | (b >> 59)) ^ data[i];
        b *= 0xc2b2ae3d27d4eb4full;
    }
    // Final avalanche so single-byte suffix changes spread to all bits.
    a ^= a >> 33;
    a *= 0xff51afd7ed558ccdull;
    a ^= a >> 29;
    b ^= b >> 31;
    b *= 0x9e3779b97f4a7c15ull;
    b ^= b >> 27;
    return {a, b};
}

PageDigest
PagedMemory::pageDigest(uint64_t page_num) const
{
    return digestPage(pageData(page_num));
}

void
PagedMemory::clear()
{
    invalidateCache();
    pages_.clear();
}

std::vector<uint64_t>
PagedMemory::dirtyPages() const
{
    std::vector<uint64_t> out;
    for (const auto &[num, page] : pages_) {
        if (page.dirty)
            out.push_back(num);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint64_t>
PagedMemory::presentPages() const
{
    std::vector<uint64_t> out;
    out.reserve(pages_.size());
    for (const auto &[num, page] : pages_)
        out.push_back(num);
    std::sort(out.begin(), out.end());
    return out;
}

void
PagedMemory::clearDirtyBits()
{
    for (auto &[num, page] : pages_)
        page.dirty = false;
}

void
PagedMemory::clearDirty(uint64_t page_num)
{
    auto it = pages_.find(page_num);
    if (it != pages_.end())
        it->second.dirty = false;
}

void
PagedMemory::markDirty(uint64_t page_num)
{
    auto it = pages_.find(page_num);
    if (it != pages_.end())
        it->second.dirty = true;
}

} // namespace nol::sim
