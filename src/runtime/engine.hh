/**
 * @file
 * The CGOPipe pipelined inference engine (paper §4.1 + Appendix A):
 * decode-stage work is decomposed into PreAttn (GPU), QKV offload
 * (DtoH), CPU attention, hidden-state load (HtoD) and PostAttn (GPU),
 * launched in Algorithm 1's order onto the four stream-executor
 * queues with weight pages interleaved into the HtoD stream. All
 * data movement goes through the paged weight store, the pinned
 * staging ring and the paged CPU KV cache — the real memory-
 * management code paths of the paper, executed with real kernels on
 * a synthetic model.
 *
 * The public surface is the request-level serving API (serving.hh).
 * The serving core (Engine) owns the request lifecycle over a fixed
 * pool of sequence slots: every step() is one continuous-batching
 * round in which Algorithm 2 admits queued requests into free
 * micro-batch slots, finished sequences retire immediately and their
 * KV pages (float or quantized) return to the pool mid-flight while
 * the rest keep generating. This engine supplies the compute: the
 * admitted prompts' zigzag prefill and every active sequence's
 * decode token through the Algorithm 1 pipeline.
 *
 * The round's schedule is data: the decode round and the admission
 * prefill are plans from sched/round_plan.hh (Algorithm 1's order,
 * the weight stream, CPU-FFN rounds), which this engine submits
 * through one loop, binding one body per stage. The simulator builds
 * its CGOPipe graph from the same plans. A CPU-FFN round (one small
 * micro-batch, cpuFfnRound) runs its MoE FFN on the Cpu queue over
 * the host-resident experts, spread over the attention pool, so no
 * expert page crosses the link.
 *
 * Each layer's GPU math is written once, as four stages over n
 * contiguous hidden rows: PreAttn (attn_norm, Q/K/V projections),
 * Route (O projection, residual, ffn_norm, router, top-k), Ffn (MoE
 * FFN, residual) and Sample (final norm, lmHead, argmax). The decode
 * stage bodies call them per micro-batch; the prefill layer body calls
 * them per admitted sequence, with its own KV-append/attention walk
 * between PreAttn and Route. Both work in one set of Gpu-queue
 * scratch buffers.
 *
 * The GPU queue's kernels (GEMMs, MoE FFN, lmHead, the prefill task)
 * fan out over a kernel pool sized from the host cores left after
 * the queue thread and the CPU attention workers (gpuPoolWorkers).
 *
 * Functional contract: identical greedy tokens to ReferenceEngine
 * per request for identical weights and KV geometry, regardless of
 * admission schedule or co-batching (tested in tests/runtime).
 */

#ifndef MOELIGHT_RUNTIME_ENGINE_HH
#define MOELIGHT_RUNTIME_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/strong_types.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "kernels/router.hh"  // TokenRouting (the routing buffer)
#include "runtime/kv_cache.hh"
#include "runtime/paged_weights.hh"
#include "runtime/prefix_cache.hh"
#include "runtime/serving.hh"
#include "runtime/stream_executor.hh"
#include "runtime/transfer_engine.hh"
#include "runtime/weights.hh"
#include "sched/round_plan.hh"

namespace moelight {

/** Runtime knobs for the pipelined engine. */
struct EngineConfig
{
    std::size_t microBatch = 4;       ///< sequences per micro-batch
    std::size_t kvPageTokens = 16;    ///< tokens per KV page
    /** KV budget in token-layer entries (tokens x layers), metered
     *  exactly for every codec. */
    std::size_t kvCapacityTokens = 1u << 16;
    Bandwidth throttleBw = 0.0;       ///< simulated link bw; 0 = off
    /** Sequence slots: the maximum number of requests generating
     *  concurrently. Submissions beyond it queue in the continuous
     *  batcher and are admitted as slots free up. */
    std::size_t maxConcurrency = 16;
    /** Worker threads for the CPU attention kernel (the paper's
     *  24-core MKL kernel) and a CPU-FFN round's MoE FFN; 0 = run
     *  both on the CPU queue thread alone. They come out of the same
     *  host core budget as the Gpu queue's kernel pool: every
     *  attention thread is one fewer GPU-kernel worker (see
     *  gpuPoolWorkers). */
    std::size_t cpuAttnThreads = 0;
    /** Rounds the admission queue's head may be passed over before
     *  younger requests are held back for it — and, with active
     *  sequences pinning the KV pool, before the engine preempts the
     *  youngest of them (recompute-on-resume) to unblock the head.
     *  Lower = stronger FIFO fairness, more preemption recompute;
     *  higher = more throughput-friendly reordering. Must be >= 1. */
    std::size_t headAgeLimit = ContinuousBatcher::kHeadAgeLimit;
    /** Quantize KV pages as they close (int8/int4) and run decode
     *  attention through the fused quant kernel — the Fig. 4 lever
     *  that raises attention's operational intensity. nullopt (the
     *  default) keeps float KV, bit-identical to ReferenceEngine;
     *  with quantization enabled tokens instead match a
     *  ReferenceEngine constructed with the same kvQuant and
     *  kvPageTokens. */
    std::optional<QuantKind> kvQuant{};
    /** Share closed KV pages across requests with a common prompt
     *  prefix (radix-tree prefix cache over the page table): a hit
     *  attaches the cached pages read-only and prefills only the
     *  novel tail, admission budgets only that tail, and refcount-0
     *  cached pages are LRU-evicted under pool pressure. Greedy
     *  tokens stay bit-identical to a cold cache (and to
     *  ReferenceEngine) — the cached pages hold exactly the floats
     *  (or deterministically quantized pages) a cold prefill would
     *  recompute. */
    bool prefixCache = false;

    /** Fatal with a field-by-field diagnosis on an unusable config
     *  (zero micro-batch, zero-token KV pages, ...); called by the
     *  engine constructor so bad configs fail at build time with a
     *  clear message, not deep inside the pipeline. */
    void validate() const;
};

/**
 * Worker count of the engine's Gpu-queue kernel pool on a host with
 * @p hostCores cores (std::thread::hardware_concurrency(); 0, "not
 * computable", counts as one core): the cores left after the Gpu
 * queue thread itself and @p cpuAttnThreads attention workers,
 * floored at 0. 0 means no pool — the Gpu queue runs its kernels
 * serially.
 */
std::size_t gpuPoolWorkers(std::size_t hostCores,
                           std::size_t cpuAttnThreads);

/**
 * CGOPipe engine. The model's layer count must be a multiple of the
 * weight-slot count (2) so the double-buffer rotation is conflict-
 * free.
 */
class PipelinedEngine : public Engine
{
  public:
    /** @p weights must outlive the engine. */
    PipelinedEngine(const ModelWeights &weights, EngineConfig cfg);
    ~PipelinedEngine() override;

    /** Transfer byte counters since construction. */
    TransferStats transferStats() const { return te_.stats(); }

    /** Current KV usage in pages (K + V per block referenced by a
     *  live sequence, whatever the codec). Shrinks mid-flight as
     *  requests retire; 0 once the engine drains. */
    std::size_t kvUsedPages() const;

    /** High-water mark of kvUsedPages() over the engine's life. */
    std::size_t kvPeakPages() const { return kvPeakPages_; }

    /** Resident pages held only by the prefix cache (pinned, no live
     *  sequence): reusable capacity, evicted under pressure. 0 with
     *  the prefix cache off. */
    std::size_t kvCachedPages() const;

    /** Prefix-cache effectiveness counters over the engine's life
     *  (all zero when cfg.prefixCache is off). */
    PrefixCacheStats prefixCacheStats() const
    {
        return prefix_ ? prefix_->stats() : PrefixCacheStats{};
    }

  private:
    /** Per-round decode plumbing (buffers reused across rounds). */
    struct StepState;

    // The serving core's compute hooks (serving.hh).
    void prefill(const std::vector<SlotIdx> &fresh) override;
    void decode(const std::vector<SlotIdx> &live) override;
    void releaseKv(SlotIdx slot) override;
    std::size_t attachPrefix(SlotIdx slot) override;
    std::size_t peekPrefix(const ServeRequest &req) const override;
    std::size_t sharedKvTokens() const override;
    void checkInvariants() const override;

    /** Embed the admitted prompts' novel tails and size the prefill
     *  scratch. Driver thread, before the prefill plan is submitted. */
    void stagePrefill(const std::vector<SlotIdx> &slots);
    /** Submit @p plan's nodes in order, each one task running
     *  runNode(); @p plan must outlive the round's sync. */
    void submitPlan(const RoundPlan &plan);
    /** The body of one plan node (executor thread of its queue). */
    void runNode(const PlanNode &node);
    /** One prefill layer over every admitted prompt's tail. */
    void prefillLayer(LayerIdx layer);
    /** Wait for the round's tasks (rethrowing a round fault) and
     *  sample peak KV usage once its appends have landed. */
    void syncRound();

    // One layer's GPU math over @p n contiguous hidden rows @p x of
    // @p layer, shared by the decode chains (one micro-batch) and the
    // prefill (one sequence's novel tail). Gpu queue only: they work
    // in the Gpu scratch below, sized by growGpuScratch().
    /** PreAttn: attn_norm, then the Q/K/V projections into gpuQB_,
     *  gpuKB_ and gpuVB_. */
    void preAttn(LayerIdx layer, const float *x, std::size_t n);
    /** Route: O projection of @p attn (n rows of qDim), residual into
     *  @p x, ffn_norm into gpuNormB_, router and top-k into
     *  routing_. */
    void route(LayerIdx layer, const float *attn, float *x,
               std::size_t n);
    /** Ffn: the MoE FFN of gpuNormB_ over routing_, residual into
     *  @p x. */
    void ffn(LayerIdx layer, float *x, std::size_t n);
    /** Sample: final norm of every row, one lmHead GEMM over them
     *  (bit-identical per row to m=1 GEMVs, see linalg.hh) and each
     *  row's argmax token appended to slot @p slots[r]. A faulted
     *  slot gets no token: its hidden state is garbage and it
     *  retires with Error after sync. */
    void sample(const std::vector<const float *> &rows,
                const SlotIdx *slots);
    /** Grow (never shrink) the Gpu scratch to @p rows hidden rows and
     *  @p sampled lmHead rows. Driver thread, between sync()s. */
    void growGpuScratch(std::size_t rows, std::size_t sampled);
    /** Prefill's own step between PreAttn and Route: append the
     *  tail's K/V rows to @p slot's stream and attend each position
     *  causally into prefillAttn_ (per-codec walk). */
    void prefillAttention(LayerIdx layer, SlotIdx slot, std::size_t len,
                          KvViewStorage &view);

    std::size_t kvContextLen(SlotIdx slot) const;
    void ensureAttnScratch(std::size_t ctx);
    void noteKvUsage();

    const ModelWeights &w_;
    EngineConfig cfg_;
    PageArena pinned_;
    TransferEngine te_;
    PagedWeightStore store_;
    /** CPU attention and CPU-FFN workers; dispatched only from the
     *  Cpu queue thread. */
    std::unique_ptr<ThreadPool> attnPool_;
    /** Kernel workers for the emulated GPU (decode GEMMs, MoE FFN,
     *  lmHead and the whole prefill task); dispatched only from the
     *  Gpu queue thread, so neither pool ever has two dispatchers.
     *  Null when gpuPoolWorkers() gives 0. */
    std::unique_ptr<ThreadPool> gpuPool_;
    /** The paged KV store, float or quantized per cfg_.kvQuant; only
     *  the attention call sites (prefill walk, decode Cpu attention)
     *  look at the codec. */
    KvCache kv_;
    /** Prefix tree over the KV store's page table (when
     *  cfg_.prefixCache); declared after the store it borrows. */
    std::unique_ptr<PrefixCache> prefix_;
    // Model shapes hoisted from cfg (set once in the constructor).
    std::size_t h1_, qDim_, kvDim_, qkvDim_, vocab_;
    float scale_ = 1.0f;

    std::size_t kvPeakPages_ = 0;

    // Gpu-queue scratch for the layer math (grow-only; see
    // growGpuScratch). Only Gpu-queue tasks touch it, one at a time,
    // and the admission prefill syncs before the decode round, so the
    // prefill and the decode chains share it.
    std::vector<float> gpuNormB_, gpuProjB_, gpuRlB_, gpuFfnB_;
    std::vector<float> gpuQB_, gpuKB_, gpuVB_;
    /** Pooled lmHead logits: Sample runs ONE GEMM over its rows
     *  instead of per-row m=1 GEMVs (bit-identical per row). */
    std::vector<float> gpuLogitsB_;
    /** The PostAttn routing buffer: one row per token Route routed.
     *  In a CPU-FFN round OffloadFfn copies it to the host on the DtoH
     *  queue, with gpuNormB_, before the Gpu queue's next task
     *  (docs/concurrency.md). */
    std::vector<TokenRouting> routing_;
    // Attention scratch (grow-only; see ensureAttnScratch).
    std::vector<float> cpuAttnScratch_, cpuBatchScratch_;
    std::vector<float> cpuPrefillScratch_;
    std::size_t scratchCtx_ = 0;
    std::size_t prefillScratchLen_ = 0;
    /** Prefill: the admitted slots, each one's novel-tail hidden rows,
     *  and the attention output of the sequence in flight. */
    std::vector<SlotIdx> prefillSlots_;
    std::vector<std::vector<float>> prefillHidden_;
    std::vector<float> prefillAttn_;

    /** The admission prefill's plan (fixed by the model), and the
     *  decode plan of the last round's shape: rebuilt only when the
     *  shape changes. */
    RoundPlan prefillPlan_, decodePlan_;
    RoundShape decodeShape_;

    std::unique_ptr<StepState> st_;
    std::unique_ptr<StreamExecutor> exec_;  ///< last: destroyed first
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_ENGINE_HH
