/**
 * @file
 * CPU-resident paged KV cache: one store for float, int8 and int4 KV.
 * Sequences append one token's K/V per layer per decode step; storage
 * is page-granular (pageTokens tokens per page), allocated lazily and
 * freed per sequence — the structure vLLM-style paged attention uses,
 * kept host-side because MoE-Lightning performs attention on the CPU.
 *
 * The storage format is a *codec* (paper §4, Fig. 4: int8/int4 KV
 * raises attention's operational intensity and cuts host memory):
 *  - float (no codec): every page stays float; attention reads it in
 *    place through makeView().
 *  - int8 / int4: tokens append in float; a page is quantized in
 *    place when it fills and its floats are freed, so steady-state
 *    storage is (pages-1) quantized + 1 open float page per
 *    (sequence, layer) stream. The fused kernel reads it through
 *    makeQuantView().
 *
 * Ownership (refcounts, sharing, token-metered capacity, typed
 * errors) lives in the PageTable (page_table.hh); this class is the
 * storage behind it: one table block = one K + one V page.
 */

#ifndef MOELIGHT_RUNTIME_KV_CACHE_HH
#define MOELIGHT_RUNTIME_KV_CACHE_HH

#include <deque>
#include <optional>
#include <vector>

#include "common/sync.hh"
#include "kernels/attention.hh"
#include "kernels/quant.hh"
#include "model/model_config.hh"
#include "runtime/page_table.hh"

namespace moelight {

/** Page-pointer lists backing a float KvView. */
struct KvViewStorage
{
    std::vector<const float *> k;
    std::vector<const float *> v;
    KvView view;
};

/**
 * Paged KV store for a fixed set of sequences across all layers.
 * Not thread-safe for concurrent append to the *same* (seq, layer);
 * the pipeline appends from a single queue thread per phase while the
 * attention worker builds views of other sequences.
 */
class KvCache
{
  public:
    /**
     * @param cfg        Model shapes (nkv, headDim, l).
     * @param numSeqs    Sequences tracked.
     * @param pageTokens Tokens per KV page.
     * @param codec      Page codec: nullopt = float, else the
     *                   quantization closed pages are stored in.
     * @param capacityTokens Total token-layer capacity across
     *                   sequences and layers; 0 = unlimited.
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): capacity
    // tuple, not indices; test_kv_cache pins the argument order.
    KvCache(const ModelConfig &cfg, std::size_t numSeqs,
            std::size_t pageTokens, std::optional<QuantKind> codec,
            std::size_t capacityTokens = 0);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    // The page table's hooks capture this.
    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;

    /** Append one token's K and V ([nkv * headDim] floats each) for
     *  (@p seq, @p layer). Throws EngineError(KvExhausted) — before
     *  any mutation — when the token budget is spent and nothing is
     *  reclaimable: the typed fault the serving engines contain at
     *  request scope. FaultInjector site "kv.alloc", checked once per
     *  append whatever the codec. */
    void append(SeqId seq, LayerIdx layer, const float *k,
                const float *v);

    /** Current context length of (@p seq, @p layer). */
    std::size_t contextLen(SeqId seq, LayerIdx layer) const;

    /** The page codec (nullopt = float). */
    std::optional<QuantKind> codec() const { return codec_; }

    /** Float codec only: build an attention view over (@p seq,
     *  @p layer) whose page pointers reference the pages in place.
     *  @p storage owns the pointer arrays and must outlive the use.
     *  A page never moves while it is resident, so a view stays valid
     *  across appends that do not open a new page (only contextLen
     *  advances). */
    void makeView(SeqId seq, LayerIdx layer,
                  KvViewStorage &storage) const;

    /**
     * Quant codecs only: zero-copy quantized view over (@p seq,
     * @p layer) for the fused attention kernels — the closed
     * QuantizedBuffers and the open float page, referenced in place.
     * The view is invalidated by the next append() to the same
     * (seq, layer).
     */
    QuantKvView makeQuantView(SeqId seq, LayerIdx layer) const;

    /** Release all pages of @p seq (it finished generating): a
     *  refcount drop per block, so pages shared with other sequences
     *  or pinned by the prefix cache survive — only the private tail
     *  frees physically and refunds the budget. Throws
     *  EngineError(KvInvalidSequence) for an unknown sequence id and
     *  EngineError(KvDoubleFree) when @p seq holds no state (already
     *  freed, or never appended). */
    void freeSequence(SeqId seq);

    /** True when @p seq currently holds any KV state — the guard an
     *  engine checks before freeSequence() for a request that may
     *  have faulted before its first append. */
    bool sequenceLive(SeqId seq) const;

    /** Pages referenced by live sequences (shared pages counted
     *  once): K + V per referenced block. Returns to 0 when every
     *  sequence frees, even while the prefix cache keeps pages
     *  pinned. */
    std::size_t usedPages() const
    {
        return 2 * table_.referencedBlocks();
    }

    /** K + V pages held by pinned-but-unreferenced prefix-cache
     *  blocks (resident beyond live-sequence usage). */
    std::size_t cachedPages() const
    {
        return 2 * (table_.residentBlocks() -
                    table_.referencedBlocks());
    }

    /** Token-layer entries physically stored (shared blocks count
     *  once) — what the capacity budget meters. */
    std::size_t usedTokens() const { return table_.residentTokens(); }

    /** Bytes currently allocated for KV payload (quantized pages with
     *  their scales, plus full-size float pages; shared blocks count
     *  once). */
    std::size_t storedBytes() const;
    /** Bytes an all-float cache of the same *logical* contents would
     *  use (shared prefixes counted per referencing stream). */
    std::size_t equivalentFloatBytes() const;

    /** The ownership layer (prefix-cache attach/pin surface). */
    PageTable &pageTable() { return table_; }
    const PageTable &pageTable() const { return table_; }

  private:
    /** One table block's storage: a full-size float K and V page
     *  while it is float (allocated once, with the block, so it never
     *  moves while open), or one quantized K + V buffer once a quant
     *  codec closed it. */
    struct Block
    {
        std::vector<float> k;
        std::vector<float> v;
        std::optional<QuantizedBuffer> qk;
        std::optional<QuantizedBuffer> qv;
    };

    /** The block behind @p id: indexed under mu_, the reference stays
     *  valid after it (deque, stable addresses). */
    Block &blockAt(BlockId id);

    ModelConfig cfg_;
    std::size_t pageTokens_;
    std::size_t tokenFloats_;  ///< nkv * headDim
    std::optional<QuantKind> codec_;
    /** Guards the CONTAINER structure of blocks_ (deque growth,
     *  indexing) and the freeIds_ recycle list: block allocation runs
     *  on whichever executor worker appends KV while the attention
     *  worker builds views of other sequences' blocks. Block
     *  *contents* are not guarded — each open block belongs to
     *  exactly one sequence stream (one writer), and the engine's
     *  chain events order append-before-view within a micro-batch.
     *  Lock-ordering leaf. */
    mutable Mutex mu_;
    std::deque<Block> blocks_ GUARDED_BY(mu_);  ///< by BlockId
    std::vector<BlockId> freeIds_ GUARDED_BY(mu_);  ///< recycled ids
    /** Per-stream page-pointer lists backing makeQuantView()'s spans,
     *  rebuilt per call (the view is documented as invalidated by the
     *  next append to the same stream). */
    mutable std::vector<std::vector<const QuantizedBuffer *>> viewK_;
    mutable std::vector<std::vector<const QuantizedBuffer *>> viewV_;
    PageTable table_;  ///< last: its hooks capture this
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_KV_CACHE_HH
