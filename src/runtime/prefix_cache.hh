/**
 * @file
 * Hash-keyed prefix tree over closed KV pages (SGLang radix-cache
 * style, page-granular): a submitted request whose prompt shares a
 * cached prefix attaches to those pages read-only — a PageTable
 * refcount bump per (page, layer) — and prefills only the novel
 * tail. Cached pages are pinned in the table so they survive their
 * inserting sequence's retirement; an LRU over refcount-0 pages
 * reclaims them under budget pressure (wired as the table's reclaim
 * hook, so eviction happens exactly when an append lacks budget).
 *
 * The tree is storage-agnostic: it only speaks BlockIds, so the same
 * implementation serves the float and the quantized cache.
 */

#ifndef MOELIGHT_RUNTIME_PREFIX_CACHE_HH
#define MOELIGHT_RUNTIME_PREFIX_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "runtime/page_table.hh"

namespace moelight {

/** Counters for the serving layer's cache-effectiveness report. One
 *  "page" here is one (pageTokens-token, layer) block — K and V
 *  together. */
struct PrefixCacheStats
{
    std::size_t lookups = 0;        ///< attach() calls
    std::size_t hits = 0;           ///< attaches matching >= 1 page
    std::size_t pagesReused = 0;    ///< blocks attached across layers
    std::size_t pagesEvicted = 0;   ///< blocks reclaimed by the LRU
    /** Float-equivalent K+V bytes whose prefill was skipped. */
    std::size_t bytesPrefillSkipped = 0;
};

/**
 * Page-granular prefix tree over a PageTable. Each node caches one
 * closed page of prompt tokens: the page's token ids (verified on
 * lookup, so a hash collision degrades to a miss, never a false hit)
 * plus the backing block per layer, pinned in the table.
 *
 * Single-threaded-by-contract: no internal locking. Like the
 * PageTable it sits on, it is reached from several threads taking
 * turns — attach()/insert() on the driver, evictOne() from the
 * table's reclaim hook inside appends running on queue workers — but
 * the engines' phase serialization guarantees the turns never
 * overlap, and builds without NDEBUG assert that on each mutating
 * call (see docs/concurrency.md).
 */
class PrefixCache
{
  public:
    /**
     * @param table         Ownership layer of the cache being shared.
     * @param bytesPerToken Float-equivalent K+V bytes one token
     *                      occupies across all layers (for the
     *                      bytesPrefillSkipped stat).
     */
    PrefixCache(PageTable &table, std::size_t bytesPerToken);

    /** Longest cached prefix of @p prompt, in tokens (a multiple of
     *  pageTokens, capped one token short of the prompt so at least
     *  one novel token remains to prefill). No stats, no LRU touch —
     *  the admission planner's demand oracle. */
    std::size_t peekMatch(std::span<const int> prompt) const;

    /**
     * Attach sequence @p seq to the longest cached prefix of
     * @p prompt: every matched page's block refcount bumps on every
     * layer and the sequence's streams start at the matched length.
     * The sequence's streams must be empty. Returns the matched
     * token count (0 = cold, full prefill).
     */
    std::size_t attach(SeqId seq, std::span<const int> prompt);

    /**
     * Cache the closed pages of @p prompt from sequence @p seq's
     * streams (called after a successful prefill, when the streams
     * hold at least the prompt). Existing nodes are LRU-touched; new
     * nodes pin their blocks. Idempotent for an already-cached
     * prompt.
     */
    void insert(SeqId seq, std::span<const int> prompt);

    /** Evict the least-recently-used leaf page no live sequence
     *  references: unpin its blocks on every layer (physically
     *  freeing them) and drop the node. Returns false when nothing is
     *  evictable — the table's append then throws KvExhausted. */
    bool evictOne();

    /** Cached pages currently held (tree nodes). */
    std::size_t cachedNodes() const { return nodeCount_; }

    const PrefixCacheStats &stats() const { return stats_; }

  private:
    struct Node
    {
        Node *parent = nullptr;
        std::uint64_t key = 0;           ///< hash of tokens
        std::vector<int> tokens;         ///< one page of prompt ids
        std::vector<BlockId> blocks;     ///< one block per layer
        std::uint64_t lastUse = 0;
        std::map<std::uint64_t, std::unique_ptr<Node>> children;
    };

    static std::uint64_t hashPage(std::span<const int> page);
    /** Longest matching node chain for @p prompt (root excluded). */
    std::vector<Node *> matchChain(std::span<const int> prompt) const;
    /** True when no stream references any of @p n's blocks. */
    bool unreferenced(const Node &n) const;

    PageTable &table_;
    std::size_t bytesPerToken_;
    Node root_;
    std::size_t nodeCount_ = 0;
    std::uint64_t tick_ = 0;
    PrefixCacheStats stats_;
    mutable DebugSerialGate gate_;  ///< caller-serialization check
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_PREFIX_CACHE_HH
