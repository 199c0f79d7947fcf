#include "runtime/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "kernels/attention.hh"
#include "kernels/linalg.hh"
#include "kernels/quant.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/ops.hh"
#include "kernels/router.hh"

namespace moelight {

namespace {

/** Pinned staging ring geometry: pages big enough for the largest
 *  weight page (lmHead is never staged), a few of them for overlap. */
std::size_t
maxTensorFloats(const ModelConfig &cfg)
{
    return std::max(cfg.h1 * cfg.h2,               // expert matrices
                    cfg.h1 * cfg.nq * cfg.headDim);  // wq, wo
}

} // namespace

std::size_t
gpuPoolWorkers(std::size_t hostCores, std::size_t cpuAttnThreads)
{
    std::size_t spare = std::max<std::size_t>(1, hostCores) - 1;
    return spare > cpuAttnThreads ? spare - cpuAttnThreads : 0;
}

void
EngineConfig::validate() const
{
    fatalIf(microBatch == 0,
            "EngineConfig.microBatch must be positive");
    fatalIf(kvPageTokens == 0,
            "EngineConfig.kvPageTokens must be positive "
            "(tokens per KV page)");
    fatalIf(kvCapacityTokens == 0,
            "EngineConfig.kvCapacityTokens must be positive "
            "(total KV token budget)");
    fatalIf(maxConcurrency == 0,
            "EngineConfig.maxConcurrency must be positive "
            "(concurrent sequence slots)");
    fatalIf(headAgeLimit == 0,
            "EngineConfig.headAgeLimit must be >= 1 (rounds the "
            "admission-queue head may be passed over before younger "
            "requests are held back / actives preempted for it)");
}

/** Per-round decode plumbing; buffers are reused across rounds. */
struct PipelinedEngine::StepState
{
    /** Active slots this round, flattened micro-batch-major; the
     *  micro-batch partition is [ubStart[j], ubStart[j+1]). */
    std::vector<SlotIdx> rowSlot;
    std::vector<std::size_t> ubStart;
    std::size_t numUbs = 0;

    // "GPU" side buffers, one per micro-batch.
    std::vector<std::vector<float>> xGpu;      ///< [ubSize * h1]
    std::vector<std::vector<float>> qkvGpu;    ///< [ubSize * qkvDim]
    std::vector<std::vector<float>> attnGpu;   ///< [ubSize * qDim]
    // Host side.
    std::vector<std::vector<float>> qkvCpu;
    std::vector<std::vector<float>> attnCpu;
    // A CPU-FFN round's one micro-batch: the normed rows and routing
    // Route hands to the host, the FFN output, and its copy back.
    std::vector<float> normCpu, ffnCpu, ffnGpu;
    std::vector<TokenRouting> routingCpu;

    std::size_t
    ubSize(std::size_t j) const
    {
        return ubStart[j + 1] - ubStart[j];
    }
};

PipelinedEngine::PipelinedEngine(const ModelWeights &weights,
                                 EngineConfig cfg)
    // validate() runs before the serving core or any member consumes
    // the config, so a bad config fails here with its own message
    // instead of a deep-in-pipeline assert. Algorithm 2 budgets in
    // request tokens (prompt + generated); kvCapacityTokens counts
    // token-layer entries, so the core's budget divides by the layer
    // count.
    : Engine((cfg.validate(), weights.cfg.validate(),
              Limits{.vocab = weights.cfg.vocab,
                     .slots = cfg.maxConcurrency,
                     .microBatch = cfg.microBatch,
                     .kvBudgetTokens = std::max<std::size_t>(
                         1, cfg.kvCapacityTokens / weights.cfg.l),
                     .headAgeLimit = cfg.headAgeLimit})),
      w_(weights),
      cfg_(cfg),
      pinned_("pinned", maxTensorFloats(weights.cfg), 4),
      te_(pinned_, cfg.throttleBw),
      store_(weights, pinned_, kWeightSlots),
      kv_(weights.cfg, cfg.maxConcurrency, cfg.kvPageTokens, cfg.kvQuant,
          cfg.kvCapacityTokens)
{
    const ModelConfig &c = w_.cfg;
    fatalIf(c.l % store_.numSlots() != 0,
            "layer count (", c.l, ") must be a multiple of the weight "
            "slot count (", store_.numSlots(),
            ") for conflict-free double buffering");
    if (cfg_.cpuAttnThreads > 0)
        attnPool_ = std::make_unique<ThreadPool>(cfg_.cpuAttnThreads);
    if (std::size_t gpu_workers = gpuPoolWorkers(
            std::thread::hardware_concurrency(), cfg_.cpuAttnThreads))
        gpuPool_ = std::make_unique<ThreadPool>(gpu_workers);

    h1_ = c.h1;
    qDim_ = c.nq * c.headDim;
    kvDim_ = c.nkv * c.headDim;
    qkvDim_ = qDim_ + 2 * kvDim_;
    vocab_ = c.vocab;
    scale_ = 1.0f / std::sqrt(static_cast<float>(c.headDim));

    if (cfg_.prefixCache) {
        PageTable &table = kv_.pageTable();
        // Stats report float-equivalent bytes: K+V rows for one token
        // across every layer.
        prefix_ = std::make_unique<PrefixCache>(
            table, c.l * 2 * kvDim_ * sizeof(float));
        // Under pool pressure an append first evicts LRU unreferenced
        // cached pages; only when nothing is evictable does it throw
        // KvExhausted.
        table.setReclaimHook([this] { return prefix_->evictOne(); });
    }

    growGpuScratch(cfg_.microBatch, cfg_.microBatch);

    prefillPlan_ = planPrefillRound(c.l, store_.pagesPerLayer(),
                                    PagedWeightStore::kDensePages);
    st_ = std::make_unique<StepState>();
    exec_ = std::make_unique<StreamExecutor>();
}

PipelinedEngine::~PipelinedEngine() = default;

std::size_t
PipelinedEngine::kvUsedPages() const
{
    return kv_.usedPages();
}

std::size_t
PipelinedEngine::kvContextLen(SlotIdx slot) const
{
    SeqId seq = seqOf(slot);
    return kv_.contextLen(seq, LayerIdx(0));
}

std::size_t
PipelinedEngine::peekPrefix(const ServeRequest &req) const
{
    return prefix_ ? prefix_->peekMatch(req.prompt) : 0;
}

std::size_t
PipelinedEngine::attachPrefix(SlotIdx slot)
{
    // A hit attaches the cached pages read-only (one refcount bump per
    // page per layer), so prefill starts at the matched position.
    return prefix_ ? prefix_->attach(seqOf(slot), active(slot).req.prompt)
                   : 0;
}

std::size_t
PipelinedEngine::sharedKvTokens() const
{
    // pinnedTokens counts every prefix page exactly once however many
    // sequences attach to it. Counting the pinned-but-unreferenced
    // pages too is deliberately conservative: admission defers
    // instead of relying on eviction, and the reclaim hook frees them
    // if an append does hit the wall.
    return prefix_ ? kv_.pageTable().pinnedTokens() / w_.cfg.l : 0;
}

void
PipelinedEngine::checkInvariants() const
{
    kv_.pageTable().checkInvariants();
}

std::size_t
PipelinedEngine::kvCachedPages() const
{
    return kv_.cachedPages();
}

void
PipelinedEngine::noteKvUsage()
{
    kvPeakPages_ = std::max(kvPeakPages_, kvUsedPages());
}

void
PipelinedEngine::releaseKv(SlotIdx slot)
{
    // A request that faulted before its first append holds no KV
    // state; freeing it anyway would (rightly) trip the store's
    // double-free detection.
    SeqId seq = seqOf(slot);
    if (kv_.sequenceLive(seq))
        kv_.freeSequence(seq);
}

void
PipelinedEngine::growGpuScratch(std::size_t rows, std::size_t sampled)
{
    auto grow = [](std::vector<float> &b, std::size_t floats) {
        if (b.size() < floats)
            b.resize(floats);
    };
    rows = std::max(rows, sampled);  // Sample norms into gpuNormB_
    grow(gpuNormB_, rows * h1_);
    grow(gpuProjB_, rows * h1_);
    grow(gpuRlB_, rows * w_.cfg.ne);
    grow(gpuFfnB_, rows * h1_);
    grow(gpuQB_, rows * qDim_);
    grow(gpuKB_, rows * kvDim_);
    grow(gpuVB_, rows * kvDim_);
    grow(gpuLogitsB_, sampled * vocab_);
}

void
PipelinedEngine::ensureAttnScratch(std::size_t ctx)
{
    if (ctx <= scratchCtx_)
        return;
    // Grow geometrically so steadily lengthening contexts don't
    // reallocate every decode round.
    std::size_t target = std::max(ctx, scratchCtx_ * 2);
    scratchCtx_ = target;
    const ModelConfig &c = w_.cfg;
    // Quant scratch is a superset of the float kernel's (score rows
    // plus the K/V dequant stash), so one sizing covers both modes.
    std::size_t per = gqaQuantAttnScratchFloats(
        c.nq, c.nkv, target, c.headDim, cfg_.kvPageTokens);
    cpuAttnScratch_.assign(per, 0.0f);
    std::size_t attn_slots =
        attnPool_ ? attnPool_->maxParallelism() : 1;
    cpuBatchScratch_.assign(attn_slots * per, 0.0f);
}

void
PipelinedEngine::syncRound()
{
    try {
        exec_->sync();
    } catch (...) {
        noteKvUsage();
        throw;
    }
    noteKvUsage();
}

void
PipelinedEngine::prefill(const std::vector<SlotIdx> &fresh)
{
    // A weight-stream or task-body fault surfaces at sync() and can
    // only have corrupted this round's prefill state: every fresh
    // slot retires with Error while already-active sequences
    // (untouched by prefill) continue.
    stagePrefill(fresh);
    submitPlan(prefillPlan_);
    syncRound();
    prefillHidden_.clear();
    // Cache the prompts' closed pages (pin; idempotent for pages
    // already in the tree) before the core can retire a finished
    // slot: pinned pages survive their inserting sequence.
    if (prefix_)
        for (SlotIdx slot : fresh)
            if (!slotFaulted(slot))
                prefix_->insert(seqOf(slot), active(slot).req.prompt);
}

void
PipelinedEngine::stagePrefill(const std::vector<SlotIdx> &slots)
{
    const ModelConfig &cfg = w_.cfg;
    std::size_t n = slots.size();

    // Initialize per-sequence hidden states with embeddings — only
    // the novel tail beyond any attached prefix: the cached pages
    // already hold those positions' K/V, and no later position's
    // output depends on a prefix position's hidden state except
    // through them. The tail is never empty (the prefix cache matches
    // at most prompt-1 tokens), so the Sample node always has the last
    // prompt position's hidden state to sample from.
    prefillHidden_.assign(n, {});
    std::size_t max_prompt = 0, max_tail = 0;
    for (std::size_t a = 0; a < n; ++a) {
        const ActiveSeq &as = active(slots[a]);
        const std::vector<int> &prompt = as.req.prompt;
        // Scratch must still cover the full context: attention at
        // tail position p spans prefix + p + 1 positions.
        max_prompt = std::max(max_prompt, prompt.size());
        std::size_t tail = prompt.size() - as.prefixLen;
        max_tail = std::max(max_tail, tail);
        prefillHidden_[a].resize(tail * h1_);
        for (std::size_t t = 0; t < tail; ++t)
            std::memcpy(
                prefillHidden_[a].data() + t * h1_,
                w_.embedding.row(static_cast<std::size_t>(
                    prompt[as.prefixLen + t])),
                h1_ * sizeof(float));
    }
    ensureAttnScratch(max_prompt + 1);
    if (cfg_.kvQuant && max_prompt > prefillScratchLen_) {
        prefillScratchLen_ = max_prompt;
        // One slot per Gpu-pool worker: the fused prefill kernel
        // fans KV heads across the pool.
        std::size_t worker_slots =
            gpuPool_ ? gpuPool_->maxParallelism() : 1;
        cpuPrefillScratch_.assign(
            worker_slots * gqaQuantPrefillAttnScratchFloats(
                               cfg.nq, cfg.nkv, max_prompt,
                               cfg.headDim, cfg_.kvPageTokens),
            0.0f);
    }
    // The layer math runs one whole tail at a time and the bootstrap
    // samples every admitted sequence at once; the decode round that
    // follows reuses the same scratch after this prefill's sync.
    growGpuScratch(max_tail, n);
    if (prefillAttn_.size() < max_tail * qDim_)
        prefillAttn_.resize(max_tail * qDim_);
    prefillSlots_ = slots;
}

void
PipelinedEngine::prefillLayer(LayerIdx layer)
{
    // Whole-tail batched projections instead of per-token GEMV chains;
    // only the attention/KV-append walk stays per token (causal
    // order). Per-token arithmetic is unchanged, so tokens stay
    // bit-identical to the reference engine.
    KvViewStorage view;
    for (std::size_t a = 0; a < prefillSlots_.size(); ++a) {
        SlotIdx slot = prefillSlots_[a];
        // Request-scope fault containment: a fault in one sequence's
        // prefill (KV append, kernel) marks only that slot;
        // co-admitted neighbours are untouched because every
        // per-sequence walk is independent. A slot that faulted in an
        // earlier layer is skipped outright — its KV stream is already
        // short, and attention over it would read garbage.
        if (slotFaulted(slot))
            continue;
        try {
            float *x = prefillHidden_[a].data();
            std::size_t len = prefillHidden_[a].size() / h1_;
            preAttn(layer, x, len);
            prefillAttention(layer, slot, len, view);
            route(layer, prefillAttn_.data(), x, len);
            ffn(layer, x, len);
        } catch (const FatalError &e) {
            noteSlotFault(slot, e.what());
        }
    }
}

void
PipelinedEngine::prefillAttention(LayerIdx layer, SlotIdx slot,
                                  std::size_t len, KvViewStorage &view)
{
    // len counts only the novel tail; an attached prefix
    // (prefixLen > 0) already sits in the KV cache, so this walk
    // starts mid-context.
    const ModelConfig &c = w_.cfg;
    SeqId seq = seqOf(slot);
    const float *q = gpuQB_.data();
    const float *k = gpuKB_.data();
    const float *v = gpuVB_.data();
    float *attn = prefillAttn_.data();
    if (cfg_.kvQuant && active(slot).prefixLen == 0) {
        // Append the whole prompt, then run the fused causal prefill
        // kernel once: each closed page dequantizes once per KV head
        // instead of once per later position, and the kernel replays
        // the per-token append walk bit-for-bit (the reference
        // engine's per-token fused decode stays the oracle for this).
        // KV heads fan across the Gpu pool.
        for (std::size_t t = 0; t < len; ++t)
            kv_.append(seq, layer, k + t * kvDim_, v + t * kvDim_);
        gqaPrefillAttentionQuantFused(q, k, v, len, c.nq,
                                      kv_.makeQuantView(seq, layer),
                                      attn, scale_, cpuPrefillScratch_,
                                      gpuPool_.get());
    } else if (cfg_.kvQuant) {
        // Prefix hit: the fused prefill kernel's walk assumes it
        // replays the cache from empty, so a mid-context prefill runs
        // the per-token fused decode walk instead — append one
        // position, attend over the grown view. This is the exact
        // walk the fused kernel is bit-identical to, just starting at
        // the prefix, so hot tokens match cold ones.
        for (std::size_t t = 0; t < len; ++t) {
            kv_.append(seq, layer, k + t * kvDim_, v + t * kvDim_);
            gqaDecodeAttentionQuantFused(q + t * qDim_, c.nq,
                                         kv_.makeQuantView(seq, layer),
                                         attn + t * qDim_, scale_,
                                         cpuAttnScratch_);
        }
    } else {
        for (std::size_t t = 0; t < len; ++t) {
            kv_.append(seq, layer, k + t * kvDim_, v + t * kvDim_);
            // The page-pointer list only changes when an append opens
            // a new page (pages never move while resident); between
            // boundaries just advance the context length instead of
            // rebuilding the view. Keyed off the cache's actual length
            // (not t) so a prefill over a non-empty cache — prefix
            // reuse, say — stays correct; t == 0 still always builds
            // this (slot, layer)'s first view.
            std::size_t ctx_len = kv_.contextLen(seq, layer);
            if (t == 0 || (ctx_len - 1) % cfg_.kvPageTokens == 0)
                kv_.makeView(seq, layer, view);
            else
                view.view.contextLen = ctx_len;
            gqaDecodeAttention(q + t * qDim_, c.nq, view.view,
                               attn + t * qDim_, scale_,
                               cpuAttnScratch_);
        }
    }
}

void
PipelinedEngine::decode(const std::vector<SlotIdx> &live)
{
    StepState &st = *st_;
    st.rowSlot.assign(live.begin(), live.end());
    std::size_t n_act = st.rowSlot.size();
    st.numUbs = (n_act + cfg_.microBatch - 1) / cfg_.microBatch;
    st.ubStart.assign(st.numUbs + 1, 0);
    for (std::size_t j = 0; j <= st.numUbs; ++j)
        st.ubStart[j] = std::min(j * cfg_.microBatch, n_act);

    st.xGpu.resize(st.numUbs);
    st.qkvGpu.resize(st.numUbs);
    st.attnGpu.resize(st.numUbs);
    st.qkvCpu.resize(st.numUbs);
    st.attnCpu.resize(st.numUbs);
    for (std::size_t j = 0; j < st.numUbs; ++j) {
        std::size_t nj = st.ubSize(j);
        st.xGpu[j].resize(nj * h1_);
        st.qkvGpu[j].resize(nj * qkvDim_);
        st.attnGpu[j].resize(nj * qDim_);
        st.qkvCpu[j].resize(nj * qkvDim_);
        st.attnCpu[j].resize(nj * qDim_);
        // Each row's x is the embedding of that sequence's last
        // sampled token — the same bytes the legacy lockstep loop
        // carried forward in place.
        for (std::size_t r = 0; r < nj; ++r) {
            SlotIdx slot = st.rowSlot[st.ubStart[j] + r];
            std::memcpy(st.xGpu[j].data() + r * h1_,
                        w_.embedding.row(static_cast<std::size_t>(
                            active(slot).tokens.back())),
                        h1_ * sizeof(float));
        }
    }

    std::size_t max_ctx = 1;
    for (SlotIdx slot : st.rowSlot)
        max_ctx = std::max(max_ctx, kvContextLen(slot) + 1);
    ensureAttnScratch(max_ctx);

    // One weight chunk per micro-batch: the §4.1 rule "n pages where n
    // equals the number of micro-batches".
    RoundShape shape{.layers = w_.cfg.l,
                     .ubs = st.numUbs,
                     .chunks = st.numUbs,
                     .pagesPerLayer = store_.pagesPerLayer(),
                     .densePages = PagedWeightStore::kDensePages,
                     .cpuFfn = cpuFfnRound(st.numUbs, n_act, w_.cfg.k,
                                           w_.cfg.ne)};
    if (shape.cpuFfn) {
        st.normCpu.resize(n_act * h1_);
        st.ffnCpu.resize(n_act * h1_);
        st.ffnGpu.resize(n_act * h1_);
    }
    if (shape != decodeShape_) {
        decodeShape_ = shape;
        decodePlan_ = planDecodeRound(shape);
    }

    // A weight-stream or task-body fault leaves this round's pipeline
    // state (hidden buffers, weight slots) unreliable for every row,
    // so the core retires the whole round; a failed weight load
    // leaves its page non-resident, so the next round or prefill
    // copies it again. Per-slot KV faults caught inside the offload
    // task stay request-scope.
    submitPlan(decodePlan_);
    syncRound();
}

void
PipelinedEngine::submitPlan(const RoundPlan &plan)
{
    // Every dependency is a task's completion event, which the worker
    // signals on every path, error and injected fault included, so a
    // failed task never leaves dependents waiting; the error itself
    // surfaces at sync(). A node referenced before it is submitted
    // (layer readiness under the lookahead) gets its event up front,
    // and its task publishes it through submit's alsoSignal, which
    // carries the same guarantee: signaling from inside the body
    // would deadlock whenever the body dies before reaching it.
    std::vector<EventPtr> done(plan.size());
    for (std::size_t n = 0; n < plan.size(); ++n) {
        const PlanNode &node = plan[n];
        std::vector<EventPtr> deps;
        deps.reserve(node.deps.size());
        for (NodeId d : node.deps) {
            if (!done[d])
                done[d] = std::make_shared<TaskEvent>();
            deps.push_back(done[d]);
        }
        std::vector<EventPtr> publish;
        if (done[n])
            publish.push_back(done[n]);
        EventPtr ev = exec_->submit(
            node.queue(), std::move(deps),
            [this, &node] { runNode(node); }, std::move(publish));
        if (!done[n])
            done[n] = std::move(ev);
    }
}

void
PipelinedEngine::runNode(const PlanNode &node)
{
    StepState &st = *st_;
    // The wrap-around chunk streams layer l: the next round's layer 0.
    LayerIdx layer(node.layer.value() % w_.cfg.l);
    std::size_t j = node.ub;
    switch (node.stage) {
      case Stage::Weights:
        for (std::size_t p = node.pageLo; p < node.pageHi; ++p)
            store_.loadPage(layer, p, te_);
        return;
      case Stage::PreAttn: {
        std::size_t n = st.ubSize(j);
        // PreAttn over the micro-batch, then interleave rows into the
        // [q|k|v] offload layout.
        preAttn(layer, st.xGpu[j].data(), n);
        for (std::size_t r = 0; r < n; ++r) {
            float *qkv = st.qkvGpu[j].data() + r * qkvDim_;
            std::memcpy(qkv, gpuQB_.data() + r * qDim_,
                        qDim_ * sizeof(float));
            std::memcpy(qkv + qDim_, gpuKB_.data() + r * kvDim_,
                        kvDim_ * sizeof(float));
            std::memcpy(qkv + qDim_ + kvDim_, gpuVB_.data() + r * kvDim_,
                        kvDim_ * sizeof(float));
        }
        return;
      }
      case Stage::OffloadQkv: {
        std::size_t n = st.ubSize(j);
        te_.copyToHost(st.qkvGpu[j].data(), st.qkvCpu[j].data(),
                       n * qkvDim_);
        for (std::size_t r = 0; r < n; ++r) {
            SlotIdx slot = st.rowSlot[st.ubStart[j] + r];
            // Request-scope containment: a KV append failing (pool
            // exhausted, injected kv.alloc fault) dooms only this
            // sequence. Later layers skip the faulted slot — its KV
            // stream is already inconsistent — and it retires with
            // Error after sync. PanicError (a bug, not a fault) still
            // escapes to the executor and aborts the round.
            if (slotFaulted(slot))
                continue;
            const float *qkv = st.qkvCpu[j].data() + r * qkvDim_;
            try {
                kv_.append(seqOf(slot), layer, qkv + qDim_,
                           qkv + qDim_ + kvDim_);
            } catch (const FatalError &e) {
                noteSlotFault(slot, e.what());
            }
        }
        return;
      }
      case Stage::CpuAttn: {
        const ModelConfig &c = w_.cfg;
        std::size_t n = st.ubSize(j);
        if (cfg_.kvQuant) {
            // Zero-copy quantized views; the fused kernel dequantizes
            // rows in-register, so no float KV pages are ever
            // materialized.
            std::vector<QuantKvView> qviews(n);
            for (std::size_t r = 0; r < n; ++r)
                qviews[r] = kv_.makeQuantView(
                    seqOf(st.rowSlot[st.ubStart[j] + r]), layer);
            gqaDecodeAttentionQuantBatch(
                st.qkvCpu[j].data(), qkvDim_, c.nq, qviews,
                st.attnCpu[j].data(), qDim_, scale_, attnPool_.get(),
                cpuBatchScratch_);
            return;
        }
        // Build all views first, then fan the tokens out across the
        // attention pool (multi-core kernel).
        std::vector<KvViewStorage> views(n);
        std::vector<KvView> kvs(n);
        for (std::size_t r = 0; r < n; ++r) {
            kv_.makeView(seqOf(st.rowSlot[st.ubStart[j] + r]), layer,
                         views[r]);
            kvs[r] = views[r].view;
        }
        gqaDecodeAttentionBatch(st.qkvCpu[j].data(), qkvDim_, c.nq, kvs,
                                st.attnCpu[j].data(), qDim_, scale_,
                                attnPool_.get(), cpuBatchScratch_);
        return;
      }
      case Stage::LoadH:
        te_.copyToGpu(st.attnCpu[j].data(), st.attnGpu[j].data(),
                      st.ubSize(j) * qDim_);
        return;
      case Stage::PostAttn:  // Route, then the MoE FFN, in one task
      case Stage::Route:
        route(layer, st.attnGpu[j].data(), st.xGpu[j].data(),
              st.ubSize(j));
        if (node.stage == Stage::Route)
            return;
        // The FFN reads the normed rows Route left in gpuNormB_.
        ffn(layer, st.xGpu[j].data(), st.ubSize(j));
        break;
      case Stage::OffloadFfn:
        // Route's scratch stays put until this layer's Ffn: the Gpu
        // queue's next task waits on it. The routing (k expert ids
        // and weights per row) rides along outside the byte count.
        te_.copyToHost(gpuNormB_.data(), st.normCpu.data(),
                       st.ubSize(j) * h1_);
        st.routingCpu = routing_;
        return;
      case Stage::CpuFfn: {
        const LayerWeights &lw = w_.layers[layer.value()];
        moeFfnForward(st.normCpu.data(), st.routingCpu, lw.experts(),
                      st.ubSize(j), h1_, w_.cfg.h2, st.ffnCpu.data(),
                      attnPool_.get());
        return;
      }
      case Stage::LoadFfn:
        te_.copyToGpu(st.ffnCpu.data(), st.ffnGpu.data(),
                      st.ubSize(j) * h1_);
        return;
      case Stage::Ffn:
        for (std::size_t r = 0; r < st.ubSize(j); ++r)
            accumulate(st.xGpu[j].data() + r * h1_,
                       st.ffnGpu.data() + r * h1_, h1_);
        break;
      case Stage::Prefill:
        prefillLayer(layer);
        return;
      case Stage::Sample: {
        // Each admitted prompt's first token, from its last position.
        std::vector<const float *> rows;
        rows.reserve(prefillSlots_.size());
        for (const std::vector<float> &x : prefillHidden_)
            rows.push_back(x.data() + x.size() - h1_);
        sample(rows, prefillSlots_.data());
        return;
      }
    }
    // PostAttn and Ffn end a layer; the last layer also samples the
    // round's token for every row of the micro-batch.
    if (layer.value() + 1 < w_.cfg.l)
        return;
    std::size_t n = st.ubSize(j);
    std::vector<const float *> rows(n);
    for (std::size_t r = 0; r < n; ++r)
        rows[r] = st.xGpu[j].data() + r * h1_;
    sample(rows, st.rowSlot.data() + st.ubStart[j]);
}

void
PipelinedEngine::preAttn(LayerIdx layer, const float *x, std::size_t n)
{
    // Batched projections over the rows (one GEMM per weight instead
    // of one GEMV per row); per-row arithmetic matches the reference
    // engine's m=1 calls bit-for-bit.
    const float *gain = store_.tensor(layer, "attn_norm");
    for (std::size_t r = 0; r < n; ++r)
        rmsNorm(x + r * h1_, gain, gpuNormB_.data() + r * h1_, h1_);
    matmulTransposedB(gpuNormB_.data(), store_.tensor(layer, "wq"),
                      gpuQB_.data(), n, h1_, qDim_, gpuPool_.get());
    matmulTransposedB(gpuNormB_.data(), store_.tensor(layer, "wk"),
                      gpuKB_.data(), n, h1_, kvDim_, gpuPool_.get());
    matmulTransposedB(gpuNormB_.data(), store_.tensor(layer, "wv"),
                      gpuVB_.data(), n, h1_, kvDim_, gpuPool_.get());
}

void
PipelinedEngine::route(LayerIdx layer, const float *attn, float *x,
                       std::size_t n)
{
    const ModelConfig &c = w_.cfg;
    matmulTransposedB(attn, store_.tensor(layer, "wo"), gpuProjB_.data(),
                      n, qDim_, h1_, gpuPool_.get());
    const float *gain = store_.tensor(layer, "ffn_norm");
    for (std::size_t r = 0; r < n; ++r) {
        accumulate(x + r * h1_, gpuProjB_.data() + r * h1_, h1_);
        rmsNorm(x + r * h1_, gain, gpuNormB_.data() + r * h1_, h1_);
    }
    matmulTransposedB(gpuNormB_.data(), store_.tensor(layer, "router"),
                      gpuRlB_.data(), n, h1_, c.ne, gpuPool_.get());
    routing_.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        routeTopK({gpuRlB_.data() + r * c.ne, c.ne}, c.k, routing_[r]);
}

void
PipelinedEngine::ffn(LayerIdx layer, float *x, std::size_t n)
{
    const ModelConfig &c = w_.cfg;
    moeFfnForward(gpuNormB_.data(), routing_, store_.resolver(layer), n,
                  h1_, c.h2, gpuFfnB_.data(), gpuPool_.get());
    for (std::size_t r = 0; r < n; ++r)
        accumulate(x + r * h1_, gpuFfnB_.data() + r * h1_, h1_);
}

void
PipelinedEngine::sample(const std::vector<const float *> &rows,
                        const SlotIdx *slots)
{
    std::size_t n = rows.size();
    for (std::size_t r = 0; r < n; ++r)
        rmsNorm(rows[r], w_.finalNorm.data(), gpuNormB_.data() + r * h1_,
                h1_);
    matmulTransposedB(gpuNormB_.data(), w_.lmHead.data(),
                      gpuLogitsB_.data(), n, h1_, vocab_, gpuPool_.get());
    for (std::size_t r = 0; r < n; ++r) {
        if (slotFaulted(slots[r]))
            continue;
        active(slots[r]).tokens.push_back(static_cast<int>(
            argmax({gpuLogitsB_.data() + r * vocab_, vocab_})));
    }
}

} // namespace moelight
