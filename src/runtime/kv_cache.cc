#include "runtime/kv_cache.hh"

#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace moelight {

KvCache::KvCache(const ModelConfig &cfg, std::size_t numSeqs,
                 std::size_t pageTokens, std::optional<QuantKind> codec,
                 std::size_t capacityTokens)
    : cfg_(cfg),
      pageTokens_(pageTokens),
      tokenFloats_(cfg.nkv * cfg.headDim),
      codec_(codec),
      viewK_(codec ? numSeqs * cfg.l : 0),
      viewV_(codec ? numSeqs * cfg.l : 0),
      table_(numSeqs, cfg.l, pageTokens, capacityTokens,
             PageTableHooks{
                 [this] {
                     // Both pages at full size, once: a page never
                     // reallocates while its block is open, so views
                     // built before an append stay valid after it.
                     // Allocated before taking mu_, which then only
                     // covers the container.
                     Block fresh;
                     fresh.k.resize(pageTokens_ * tokenFloats_);
                     fresh.v.resize(pageTokens_ * tokenFloats_);
                     MutexLock lk(mu_);
                     if (freeIds_.empty()) {
                         blocks_.push_back(std::move(fresh));
                         return narrowIndex<BlockId>(blocks_.size() -
                                                     1);
                     }
                     BlockId id = freeIds_.back();
                     freeIds_.pop_back();
                     blocks_[id.value()] = std::move(fresh);
                     return id;
                 },
                 [this](BlockId dst, BlockId src, std::size_t tokens) {
                     // Copy-on-write fires only on open (partial)
                     // blocks, whose tokens are still float. The pages
                     // belong to the two streams involved, so the copy
                     // runs outside mu_.
                     const Block &s = blockAt(src);
                     Block &d = blockAt(dst);
                     panicIf(s.qk.has_value(),
                             "copy-on-write of a closed quant block");
                     std::size_t bytes =
                         tokens * tokenFloats_ * sizeof(float);
                     std::memcpy(d.k.data(), s.k.data(), bytes);
                     std::memcpy(d.v.data(), s.v.data(), bytes);
                 },
                 [this](BlockId id) {
                     Block dead;  // its storage is freed after unlock
                     MutexLock lk(mu_);
                     std::swap(dead, blocks_[id.value()]);
                     freeIds_.push_back(id);
                 },
             })
{
    // The table rejects zero sequences and zero-token pages.
    // Quantization groups are one token-head vector each (group ==
    // headDim), so only int4's two-nibbles-per-byte packing needs an
    // even headDim; int8 stores one byte per element and works for
    // any headDim.
    fatalIf(codec == QuantKind::Int4 && cfg.headDim % 2 != 0,
            "headDim must be even for int4 packing");
}

KvCache::Block &
KvCache::blockAt(BlockId id)
{
    MutexLock lk(mu_);
    panicIf(static_cast<std::size_t>(id.value()) >= blocks_.size(),
            "unknown KV block ", id);
    return blocks_[id.value()];
}

void
KvCache::append(SeqId seq, LayerIdx layer, const float *k,
                const float *v)
{
    // The table throws typed KvExhausted before any mutation, so a
    // rejected append leaves the accounting consistent.
    AppendSlot slot = table_.appendToken(seq, layer);
    Block &b = blockAt(slot.block);  // contents are this stream's alone
    std::size_t at = slot.offset * tokenFloats_;
    std::memcpy(b.k.data() + at, k, tokenFloats_ * sizeof(float));
    std::memcpy(b.v.data() + at, v, tokenFloats_ * sizeof(float));
    if (codec_ && slot.offset + 1 == pageTokens_) {
        // Page full: quantize (group = one head vector) and free the
        // floats. The block is closed — and from here on shareable.
        b.qk.emplace(std::span<const float>(b.k), *codec_,
                     cfg_.headDim);
        b.qv.emplace(std::span<const float>(b.v), *codec_,
                     cfg_.headDim);
        std::vector<float>().swap(b.k);
        std::vector<float>().swap(b.v);
    }
}

std::size_t
KvCache::contextLen(SeqId seq, LayerIdx layer) const
{
    return table_.streamLen(seq, layer);
}

void
KvCache::makeView(SeqId seq, LayerIdx layer,
                  KvViewStorage &storage) const
{
    panicIf(codec_.has_value(),
            "makeView over a quantized KV cache (use makeQuantView)");
    std::span<const BlockId> ids = table_.streamBlocks(seq, layer);
    storage.k.clear();
    storage.v.clear();
    {
        MutexLock lk(mu_);
        for (BlockId id : ids) {
            const Block &b = blocks_[id.value()];
            storage.k.push_back(b.k.data());
            storage.v.push_back(b.v.data());
        }
    }
    storage.view.kPages = storage.k;
    storage.view.vPages = storage.v;
    storage.view.pageTokens = pageTokens_;
    storage.view.contextLen = table_.streamLen(seq, layer);
    storage.view.nKv = cfg_.nkv;
    storage.view.headDim = cfg_.headDim;
}

QuantKvView
KvCache::makeQuantView(SeqId seq, LayerIdx layer) const
{
    panicIf(!codec_.has_value(),
            "makeQuantView over a float KV cache (use makeView)");
    std::span<const BlockId> ids = table_.streamBlocks(seq, layer);
    auto &kp = viewK_[seq.value() * cfg_.l + layer.value()];
    auto &vp = viewV_[seq.value() * cfg_.l + layer.value()];
    kp.clear();
    vp.clear();
    QuantKvView view;
    view.contextLen = table_.streamLen(seq, layer);
    {
        MutexLock lk(mu_);
        for (BlockId id : ids) {
            const Block &b = blocks_[id.value()];
            if (b.qk.has_value()) {
                kp.push_back(&*b.qk);
                vp.push_back(&*b.qv);
            } else {
                // Only the tail block may be open (float).
                view.openK = b.k.data();
                view.openV = b.v.data();
            }
        }
    }
    // Every closed page is full, so the open tail holds the rest.
    view.openTokens = view.contextLen - kp.size() * pageTokens_;
    view.kPages = kp;
    view.vPages = vp;
    view.pageTokens = pageTokens_;
    view.nKv = cfg_.nkv;
    view.headDim = cfg_.headDim;
    return view;
}

bool
KvCache::sequenceLive(SeqId seq) const
{
    return table_.sequenceLive(seq);
}

void
KvCache::freeSequence(SeqId seq)
{
    table_.freeSequence(seq);
}

std::size_t
KvCache::storedBytes() const
{
    // Freed blocks hold no storage, so summing the whole store counts
    // exactly the resident blocks, shared ones once.
    MutexLock lk(mu_);
    std::size_t bytes = 0;
    for (const Block &b : blocks_) {
        if (b.qk.has_value())
            bytes += b.qk->storageBytes() + b.qv->storageBytes();
        bytes += (b.k.size() + b.v.size()) * sizeof(float);
    }
    return bytes;
}

std::size_t
KvCache::equivalentFloatBytes() const
{
    std::size_t tokens = 0;
    for (SeqId s : IndexRange(SeqId(table_.numSeqs())))
        for (LayerIdx l : IndexRange(LayerIdx(cfg_.l)))
            tokens += table_.streamLen(s, l);
    return tokens * 2 * tokenFloats_ * sizeof(float);
}

} // namespace moelight
