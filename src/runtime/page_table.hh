/**
 * @file
 * Shared refcounted page/block table — the ownership layer under the
 * KV cache (kv_cache.hh). A *block* is one page-worth of K plus V for
 * one (sequence, layer) stream position range; the table tracks which
 * blocks each stream references, how many streams reference each
 * block, and how many external pins (the prefix cache) hold it
 * resident. Storage itself stays in the cache (float or quantized
 * pages) behind three hooks, so the refcount, capacity, copy-on-write
 * and typed-error logic is independent of the storage codec.
 *
 * Sharing model (vLLM/SGLang radix-cache style):
 *  - A stream owns its open (partial) tail block exclusively; closed
 *    (full) blocks may be shared read-only by any number of streams
 *    via attachShared() — a refcount bump, no copy.
 *  - Appending into a block another holder can see (stream refs > 1
 *    or pinned) copy-on-writes it: a fresh block takes the copied
 *    prefix, the shared original is released by this stream only.
 *  - A block is freed physically when its last stream reference AND
 *    last pin drop; pinned-but-unreferenced blocks stay resident
 *    (cached prefixes) but do not count as "used" by live sequences.
 *
 * Capacity is a token budget, enforced here on every append before
 * any storage hook runs. On pressure the reclaim hook (the prefix
 * cache's LRU eviction) is invoked until space frees or it gives up,
 * then the append throws the typed EngineError(KvExhausted) the
 * engines contain at request scope.
 *
 * Single-threaded-by-contract: no internal locking. The table IS
 * reached from several threads — decode appends run on the DtoH
 * queue worker, prefill appends on the Gpu queue worker, admission /
 * retirement / prefix attach on the driver thread — but the engines'
 * phase structure (task events within a round, exec_->sync() between
 * phases) serializes every access. Builds without NDEBUG assert that
 * serialization on each mutating call (see DebugSerialGate in
 * common/sync.hh and docs/concurrency.md).
 */

#ifndef MOELIGHT_RUNTIME_PAGE_TABLE_HH
#define MOELIGHT_RUNTIME_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/strong_types.hh"
#include "common/sync.hh"

namespace moelight {

/** Identifies one block; doubles as the owning cache's storage index
 *  (the hooks translate it to float or quantized pages).
 *  A strong index domain: not interchangeable with PageId, SeqId or
 *  any other index space (see docs/index_domains.md). */
using BlockId = StrongIndex<struct BlockIdTag, std::uint32_t>;

/** Storage callbacks a cache provides to the table. */
struct PageTableHooks
{
    /** Allocate backing storage for a new (empty) block. */
    std::function<BlockId()> allocBlock;
    /** Copy the first @p tokens tokens of @p src into @p dst (the
     *  copy-on-write path; only ever called on open blocks). */
    std::function<void(BlockId dst, BlockId src, std::size_t tokens)>
        copyBlock;
    /** Release backing storage of @p block (refs and pins are 0). */
    std::function<void(BlockId)> freeBlock;
};

/** Where appendToken() placed one token. */
struct AppendSlot
{
    BlockId block{};
    /** Token offset within the block. */
    std::size_t offset = 0;
    /** The block's storage was freshly allocated this call (offset is
     *  0, or the copy-on-write prefix was copied in). */
    bool fresh = false;
    /** Copy-on-write fired: [0, offset) of @p block was copied from
     *  the previously shared block. */
    bool copied = false;
};

/**
 * Refcounted block table for numSeqs x layers streams. All typed KV
 * ownership errors (KvExhausted @ kv.alloc, KvInvalidSequence /
 * KvDoubleFree @ kv.free) originate here — one contract whatever the
 * storage codec.
 */
class PageTable
{
  public:
    /**
     * @param numSeqs    Sequence slots tracked.
     * @param layers     Layers per sequence (streams = numSeqs*layers).
     * @param pageTokens Tokens per (full) block.
     * @param capacityTokens Budget of resident tokens (shared blocks
     *                   count once); 0 = unlimited.
     * @param hooks      Storage callbacks; all three must be set.
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): capacity
    // tuple, not indices; test_page_table pins the argument order.
    PageTable(std::size_t numSeqs, std::size_t layers,
              std::size_t pageTokens, std::size_t capacityTokens,
              PageTableHooks hooks);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    /**
     * Reserve space for one token on (@p seq, @p layer): opens a
     * fresh block at page boundaries, copy-on-writes a shared open
     * tail, and enforces the capacity budget (driving the reclaim
     * hook first). Throws EngineError(KvExhausted, "kv.alloc") when
     * space cannot be made. FaultInjector site "kv.alloc", checked
     * once per append. The caller writes the token's payload into the
     * returned slot via its own storage.
     */
    AppendSlot appendToken(SeqId seq, LayerIdx layer);

    /**
     * Attach (@p seq, @p layer) read-only to @p blocks — the prefix
     * cache hit path. The stream must be empty; every block must be
     * resident and full (only closed pages are shareable). Each
     * block's stream refcount bumps; the stream's length becomes
     * blocks.size() * pageTokens.
     */
    void attachShared(SeqId seq, LayerIdx layer,
                      std::span<const BlockId> blocks);

    /** Keep @p block resident independent of stream references (the
     *  prefix cache holding a cached page). */
    void pin(BlockId block);

    /** Drop one pin; frees the block physically when no stream
     *  references remain either. Throws EngineError(KvDoubleFree,
     *  "kv.free") on a block with no pins — the refcounted analogue
     *  of a double freeSequence(). */
    void unpin(BlockId block);

    /** Release all blocks of @p seq across every layer (decref; a
     *  block shared with other streams or pinned by the prefix cache
     *  survives — only the private tail frees physically). Throws
     *  EngineError(KvInvalidSequence, "kv.free") for an out-of-range
     *  id and EngineError(KvDoubleFree, "kv.free") when @p seq holds
     *  no state. */
    void freeSequence(SeqId seq);

    /** True when @p seq references any block on any layer. */
    bool sequenceLive(SeqId seq) const;

    /** Tokens stored in (@p seq, @p layer)'s stream. */
    std::size_t streamLen(SeqId seq, LayerIdx layer) const;

    /** Blocks of (@p seq, @p layer), in position order. */
    std::span<const BlockId> streamBlocks(SeqId seq,
                                          LayerIdx layer) const;

    /** Tokens stored in @p block (== pageTokens once closed). */
    std::size_t blockTokens(BlockId block) const;
    /** Streams currently referencing @p block. */
    std::size_t blockStreamRefs(BlockId block) const;
    /** External pins on @p block. */
    std::size_t blockPins(BlockId block) const;

    /** Physically allocated blocks — includes pinned-but-
     *  unreferenced cache blocks. */
    std::size_t residentBlocks() const { return residentBlocks_; }
    /** Distinct blocks referenced by at least one stream (counted
     *  once however many streams share them) — live-sequence usage,
     *  0 once every sequence freed, even with cached pages pinned. */
    std::size_t referencedBlocks() const { return referencedBlocks_; }
    /** Physically stored tokens (what capacity meters; shared blocks
     *  count once). */
    std::size_t residentTokens() const { return residentTokens_; }
    /** Tokens resident in pinned blocks (the prefix cache's working
     *  set), counted once however many pins or streams hold them —
     *  what admission must budget on top of per-request private
     *  demand. Token-layer units, like residentTokens(). */
    std::size_t pinnedTokens() const { return pinnedTokens_; }

    /**
     * Check the table's guarantees and panic naming the first one
     * broken: every block's stream refcount equals the number of
     * stream attachments to it; no freed block is referenced or
     * pinned; every stream's length is the sum of its blocks' fill
     * levels, all full except the tail; and the resident / referenced
     * / resident-token / pinned-token counters equal what the blocks
     * add up to. O(blocks + stream blocks) — for tests and debug
     * checks, not the hot path.
     */
    void checkInvariants() const;

    std::size_t pageTokens() const { return pageTokens_; }
    std::size_t numSeqs() const { return numSeqs_; }
    std::size_t layers() const { return layers_; }

    /** Install the under-pressure reclaimer (the prefix cache's LRU
     *  eviction): called repeatedly while an appendToken() lacks
     *  budget; return true after freeing something, false to give up
     *  (the append then throws KvExhausted). */
    void setReclaimHook(std::function<bool()> hook)
    {
        reclaim_ = std::move(hook);
    }

  private:
    struct BlockMeta
    {
        std::uint32_t streamRefs = 0;
        std::uint32_t pins = 0;
        std::size_t tokens = 0;
        bool resident = false;
    };

    struct Stream
    {
        std::vector<BlockId> blocks;
        std::size_t len = 0;
    };

    Stream &at(SeqId seq, LayerIdx layer);
    const Stream &at(SeqId seq, LayerIdx layer) const;
    BlockMeta &meta(BlockId b);
    const BlockMeta &meta(BlockId b) const;

    /** Make room for @p needTokens more resident tokens, driving the
     *  reclaim hook; throws KvExhausted when it cannot. */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): the two raw
    // sizes are (current length, tokens wanted) — lengths, not
    // indices; the seq/layer pair is already strongly typed.
    void ensureCapacity(SeqId seq, LayerIdx layer,
                        std::size_t len, std::size_t needTokens);
    // NOLINTEND(bugprone-easily-swappable-parameters)
    BlockId allocFresh();
    void ref(BlockId b);
    void deref(BlockId b);
    void releasePhysical(BlockId b);

    std::size_t numSeqs_;
    std::size_t layers_;
    std::size_t pageTokens_;
    std::size_t capacityTokens_;
    PageTableHooks hooks_;
    std::function<bool()> reclaim_;

    std::vector<Stream> streams_;    ///< [seq * layers + layer]
    std::vector<BlockMeta> meta_;    ///< indexed by BlockId
    std::size_t residentBlocks_ = 0;
    std::size_t referencedBlocks_ = 0;
    std::size_t residentTokens_ = 0;
    std::size_t pinnedTokens_ = 0;
    mutable DebugSerialGate gate_;  ///< caller-serialization check
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_PAGE_TABLE_HH
