/**
 * @file
 * Group-wise symmetric quantization kernels (int8 and packed int4).
 * The paper's HRM case study (Fig. 4) analyzes int4 KV cache as the
 * lever that raises attention's operational intensity; this module
 * provides the actual kernels so the runtime can store KV quantized
 * and attend over it with on-the-fly dequantization.
 *
 * Three attention paths over quantized KV:
 *  - gqaDecodeAttentionQuantFused: dequantizes each K/V row into a
 *    headDim-sized stash inside the score / V-accumulation passes —
 *    memory traffic is the quantized footprint only, no per-call
 *    float page buffers. This is the production decode path.
 *  - gqaPrefillAttentionQuantFused: the causal prefill variant —
 *    dequantizes each closed page once per KV head into a persistent
 *    stash and scores/folds every causal position against it,
 *    instead of re-dequantizing the whole prefix at every position
 *    the way a per-token decode walk does.
 *  - gqaDecodeAttentionQuant: materializes every page into float and
 *    calls the float kernel. Retained as the golden cross-check (the
 *    role moelight::naive plays for the float kernels).
 *
 * All three are thin row providers over the shared
 * gqaAttentionHeadCore template (attention_core.hh) — the same
 * score / softmax / 4-blocked-V-fold code the float kernel runs — so
 * bit-identity between fused, materializing, per-token and prefill
 * paths is structural, not merely test-enforced.
 */

#ifndef MOELIGHT_KERNELS_QUANT_HH
#define MOELIGHT_KERNELS_QUANT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/attention.hh"

namespace moelight {

/** Quantization bit width. */
enum class QuantKind
{
    Int8,
    Int4,
};

/** Bytes needed to store @p n values at @p kind (excluding scales). */
std::size_t quantizedBytes(QuantKind kind, std::size_t n);

/**
 * A group-quantized buffer: values are split into groups of
 * @p groupSize, each group stored with one float scale such that
 * value = scale * q, q in [-127,127] (int8) or [-7,7] (int4,
 * packed two per byte, low nibble first).
 */
class QuantizedBuffer
{
  public:
    /** Quantize @p src (size must be a multiple of groupSize). */
    QuantizedBuffer(std::span<const float> src, QuantKind kind,
                    std::size_t groupSize = 32);

    /** Dequantize everything into @p dst (same size as the source). */
    void dequantize(std::span<float> dst) const;

    /** Dequantize elements [offset, offset+count) into @p dst.
     *  offset and count must be group-aligned. */
    void dequantizeRange(std::size_t offset, std::size_t count,
                         std::span<float> dst) const;

    /**
     * Strided row gather-dequantize: for r in [0, rows), dequantize
     * elements [rowOff + r*rowStride, +count) into dst + r*count —
     * one head's rows of a [tokens, nKv, headDim] page in a single
     * call. rowOff, rowStride and count must be group-aligned.
     * Element-wise identical to dequantizeRange over each row.
     */
    void dequantizeRows(std::size_t rowOff, std::size_t rowStride,
                        std::size_t rows, std::size_t count,
                        float *dst) const;

    std::size_t size() const { return n_; }
    QuantKind kind() const { return kind_; }
    std::size_t groupSize() const { return group_; }
    /** Stored bytes (payload + scales), for intensity accounting. */
    std::size_t storageBytes() const;

    /** Max absolute quantization error bound for inputs bounded by
     *  @p maxAbs: one quantization step. */
    static double errorBound(QuantKind kind, double maxAbs);

  private:
    QuantKind kind_;
    std::size_t n_;
    std::size_t group_;
    std::vector<std::uint8_t> data_;
    std::vector<float> scales_;
};

/**
 * A read-only view over one sequence's *quantized* paged K and V:
 * closed pages are QuantizedBuffers (layout [tokens, nKv, headDim],
 * one quant group never straddling a token-head row), every page full
 * except possibly the last, plus an optional trailing float "open"
 * page for tokens appended since the last page closed — exactly the
 * steady state a quantized KvCache holds, referenced without copying.
 * Pages are referenced by pointer (like KvView's float pages) because
 * a sequence sharing a cached prefix holds scattered, not contiguous,
 * buffers.
 */
struct QuantKvView
{
    /** Closed quantized K pages; all hold pageTokens tokens except
     *  possibly the last (partial tail). */
    std::span<const QuantizedBuffer *const> kPages;
    /** Closed quantized V pages, same geometry as kPages. */
    std::span<const QuantizedBuffer *const> vPages;
    /** Optional float tail page, [openTokens, nKv, headDim]; null
     *  when openTokens == 0. */
    const float *openK = nullptr;
    const float *openV = nullptr;
    std::size_t openTokens = 0;
    /** Tokens per (full) page. */
    std::size_t pageTokens = 0;
    /** Valid context length: quantized tokens + openTokens. */
    std::size_t contextLen = 0;
    /** Number of KV heads. */
    std::size_t nKv = 0;
    /** Per-head dimension. */
    std::size_t headDim = 0;
};

/**
 * Scratch floats gqaDecodeAttentionQuantFused needs: the float
 * kernel's score rows plus two page-run dequant stashes (K and V,
 * one head's rows of one page each — L1-resident) and a 4-row carry
 * stash for V blocks straddling page boundaries.
 */
inline std::size_t
gqaQuantAttnScratchFloats(std::size_t nQ, std::size_t nKv,
                          std::size_t ctx, std::size_t headDim,
                          std::size_t pageTokens)
{
    if (nKv == 0)
        return 0;
    std::size_t stash_rows = pageTokens < ctx ? pageTokens : ctx;
    return (nQ / nKv) * ctx + (2 * stash_rows + 4) * headDim;
}

/**
 * Fused decode GQA over quantized KV: the current KV head's rows of
 * each page are gather-dequantized into an L1-resident page stash
 * inside the score and V-accumulation passes, so the only memory
 * traffic is the quantized payload (+ the float open page) — no
 * materialized float pages, no heap allocation when @p scratch is
 * provided. Requires every page's quant group size to divide headDim
 * (rows must be group-aligned; the KV cache quantizes with
 * group == headDim).
 *
 * Numerics: bit-identical to dequantizing all pages and running
 * gqaDecodeAttention (same dequantized values, same float core), and
 * therefore within QuantizedBuffer::errorBound of float attention.
 *
 * @param q       [nQ, headDim] query.
 * @param nQ      Query heads; must be a multiple of kv.nKv.
 * @param kv      Quantized paged KV view.
 * @param out     [nQ, headDim] output.
 * @param scale   Logit scale.
 * @param scratch >= gqaQuantAttnScratchFloats(nQ, kv.nKv,
 *                kv.contextLen, kv.headDim, kv.pageTokens) floats.
 */
void gqaDecodeAttentionQuantFused(const float *q, std::size_t nQ,
                                  const QuantKvView &kv, float *out,
                                  float scale,
                                  std::span<float> scratch);

/** Convenience overload that allocates its own scratch. */
void gqaDecodeAttentionQuantFused(const float *q, std::size_t nQ,
                                  const QuantKvView &kv, float *out,
                                  float scale);

/**
 * Batched fused quant decode GQA across a micro-batch: token @p t
 * uses query qBatch + t*qStride, view kvs[t], and writes outBatch +
 * t*outStride; tokens are distributed across @p pool with one
 * per-worker scratch slot (see gqaDecodeAttentionBatch). Results are
 * identical with or without the pool.
 */
void gqaDecodeAttentionQuantBatch(const float *qBatch,
                                  std::size_t qStride, std::size_t nQ,
                                  std::span<const QuantKvView> kvs,
                                  float *outBatch,
                                  std::size_t outStride, float scale,
                                  ThreadPool *pool = nullptr,
                                  std::span<float> scratch = {});

/**
 * Scratch floats gqaPrefillAttentionQuantFused needs: score rows for
 * the longest position (group * seqLen) plus whole-context K and V
 * dequant stashes covering every closed page — the pages a causal
 * append walk over seqLen tokens has closed, (seqLen / pageTokens) *
 * pageTokens rows each.
 */
inline std::size_t
gqaQuantPrefillAttnScratchFloats(std::size_t nQ, std::size_t nKv,
                                 std::size_t seqLen,
                                 std::size_t headDim,
                                 std::size_t pageTokens)
{
    if (nKv == 0 || pageTokens == 0)
        return 0;
    std::size_t quant_rows = (seqLen / pageTokens) * pageTokens;
    return (nQ / nKv) * seqLen + 2 * quant_rows * headDim;
}

/**
 * Fused causal prefill GQA over quantized KV: computes attention for
 * every position of a just-prefetched sequence in one call,
 * bit-identical to running gqaDecodeAttentionQuantFused once per
 * position over the growing cache (the per-token walk the pipelined
 * engine's prefill used to do) — but each closed page's rows are
 * gather-dequantized ONCE per KV head into a persistent stash
 * instead of once per later position, cutting the walk's
 * O(seqLen^2 / pageTokens) redundant dequant work to O(seqLen).
 *
 * Walk semantics: at position i the cache had closed exactly
 * floor((i+1)/pageTokens) pages; tokens from there to i were still
 * float in the open page. The kernel replays this: position i scores
 * the stash prefix of pageTokens*floor((i+1)/pageTokens) rows plus
 * rows [that, i] of the caller's float @p k / @p v — which hold the
 * same bits the cache's open page held at that time, since the cache
 * copied them from these very arrays.
 *
 * KV heads are independent (disjoint output columns, private
 * scratch), so with a non-null @p pool they fan across it — the
 * attention pool idles during prefill otherwise — with one scratch
 * slot per worker. Per-head arithmetic is untouched, so the pooled
 * kernel stays bit-identical to the serial one (and to the per-token
 * walk).
 *
 * @param q       [seqLen, nQ * headDim] queries, one row per position.
 * @param k,v     [seqLen, nKv * headDim] float K/V for the whole
 *                sequence (the projections the cache was fed).
 * @param seqLen  Sequence length; must equal kv.contextLen.
 * @param nQ      Query heads; must be a multiple of kv.nKv.
 * @param kv      Quantized view of the cache AFTER all seqLen
 *                appends: every closed page full (seqLen / pageTokens
 *                of them), the remaining seqLen % pageTokens tokens
 *                open. The open page is not read (the float tail
 *                comes from @p k / @p v).
 * @param out     [seqLen, nQ * headDim] output; overwritten.
 * @param scale   Logit scale.
 * @param scratch Optional caller-owned scratch:
 *                gqaQuantPrefillAttnScratchFloats(nQ, kv.nKv, seqLen,
 *                kv.headDim, kv.pageTokens) floats per worker slot
 *                (pool->maxParallelism() slots with a pool, 1
 *                without). Too-small spans fall back to a per-call
 *                allocation.
 * @param pool    Optional thread pool to fan KV heads across.
 */
void gqaPrefillAttentionQuantFused(const float *q, const float *k,
                                   const float *v, std::size_t seqLen,
                                   std::size_t nQ,
                                   const QuantKvView &kv, float *out,
                                   float scale,
                                   std::span<float> scratch,
                                   ThreadPool *pool = nullptr);

/** Convenience overload that allocates its own scratch. */
void gqaPrefillAttentionQuantFused(const float *q, const float *k,
                                   const float *v, std::size_t seqLen,
                                   std::size_t nQ,
                                   const QuantKvView &kv, float *out,
                                   float scale);

/**
 * The quantized view the cache held right after appending token
 * @p i of a causal walk whose final state is @p kv: the first
 * floor((i+1)/pageTokens) closed pages plus a float open tail of
 * rows [that, i] sliced from @p k / @p v (which hold the same bits
 * the cache's open page held at that time). This is the per-position
 * oracle gqaPrefillAttentionQuantFused replays; it is exposed so the
 * golden tests and the fig4 harness assert the walk against one
 * definition instead of each re-deriving it.
 */
QuantKvView quantPrefillWalkView(const QuantKvView &kv,
                                 const float *k, const float *v,
                                 std::size_t i);

/**
 * Materializing decode attention over quantized KV: dequantizes every
 * page into a temporary float buffer and calls the float kernel.
 * Golden cross-check for the fused path — bit-identical to it. Pages
 * must hold whole tokens and be full except possibly the last
 * (partial tail, the state a paged cache is in between page
 * boundaries).
 *
 * @param q        [nQ, headDim] query.
 * @param nQ       query heads.
 * @param kPages   quantized K pages ([tokens, nKv, headDim] each).
 * @param vPages   quantized V pages.
 * @param pageTokens tokens per full page.
 * @param contextLen valid tokens (<= tokens stored in the pages).
 * @param nKv      KV heads.
 * @param headDim  head dimension.
 * @param out      [nQ, headDim] output.
 * @param scale    logit scale.
 */
void gqaDecodeAttentionQuant(
    const float *q, std::size_t nQ,
    std::span<const QuantizedBuffer *const> kPages,
    std::span<const QuantizedBuffer *const> vPages,
    std::size_t pageTokens, std::size_t contextLen, std::size_t nKv,
    std::size_t headDim, float *out, float scale);

} // namespace moelight

#endif // MOELIGHT_KERNELS_QUANT_HH
