/**
 * @file
 * Fixed-capacity page arena used for the runtime's device-side memory
 * spaces (pinned staging, "GPU" weight slots — host RAM in this
 * reproduction, but kept in distinct pools with explicit capacity
 * accounting so the memory-management code paths of Appendix A.1 are
 * exercised for real). CPU KV pages live in KvCache (kv_cache.hh).
 */

#ifndef MOELIGHT_RUNTIME_ARENA_HH
#define MOELIGHT_RUNTIME_ARENA_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/strong_types.hh"
#include "common/sync.hh"

namespace moelight {

/** Index of a page inside a PageArena. A strong index domain: not
 *  interchangeable with BlockId or any other index space (see
 *  docs/index_domains.md). Negative values are invalid; -1 is the
 *  not-a-page sentinel. */
using PageId = StrongIndex<struct PageIdTag, std::int32_t>;
inline constexpr PageId kInvalidPage{-1};

/**
 * A pool of equal-sized float pages with a free list. Allocation
 * fails loudly (FatalError) when the pool is exhausted — mirroring a
 * real device OOM rather than silently growing.
 *
 * Thread-safe bookkeeping: allocate/release/page may be called from
 * different executor workers concurrently (staging copies on the HtoD
 * and DtoH queues share the pinned ring), so the free list and in-use
 * bitmap are guarded by an internal mutex. Page *contents* are not:
 * each page has one writer at a time, ordered by the executor's
 * events, so data access stays lock-free.
 */
class PageArena
{
  public:
    /**
     * @param name       Diagnostic name ("gpu", "pinned", ...).
     * @param pageFloats Floats per page.
     * @param numPages   Pool capacity in pages.
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): size tuple
    // (floats per page, pool pages), not indices; test_arena pins the
    // argument order.
    PageArena(std::string name, std::size_t pageFloats,
              std::size_t numPages);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    /** Allocate one page; throws FatalError when exhausted. */
    PageId allocate();
    /** Return @p id to the free list. */
    void release(PageId id);

    /** Mutable / const access to a page's storage. */
    float *page(PageId id);
    const float *page(PageId id) const;

    std::size_t pageFloats() const { return pageFloats_; }
    std::size_t pageBytes() const { return pageFloats_ * sizeof(float); }
    std::size_t numPages() const { return numPages_; }
    std::size_t freePages() const;
    std::size_t usedPages() const;
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::size_t pageFloats_;
    std::size_t numPages_;
    std::vector<float> storage_;
    /** Guards the allocation bookkeeping only (see class doc).
     *  Lock-ordering leaf: no callee takes another lock. */
    mutable Mutex mu_;
    std::vector<PageId> freeList_ GUARDED_BY(mu_);
    std::vector<bool> inUse_ GUARDED_BY(mu_);
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_ARENA_HH
