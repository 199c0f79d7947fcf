#include "runtime/reference_engine.hh"

#include <cmath>

#include "common/logging.hh"
#include "kernels/attention.hh"
#include "kernels/linalg.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/ops.hh"
#include "kernels/router.hh"

namespace moelight {

ReferenceEngine::ReferenceEngine(const ModelWeights &weights,
                                 std::optional<QuantKind> kvQuant,
                                 std::size_t kvPageTokens)
    : Engine(Limits{.vocab = weights.cfg.vocab}),
      w_(weights),
      kvQuant_(kvQuant),
      kvPageTokens_(kvPageTokens)
{
    w_.cfg.validate();
    fatalIf(kvQuant_ && kvPageTokens_ == 0,
            "KV page must hold at least one token");
}

void
ReferenceEngine::advance(SlotIdx slot, std::span<const int> tokens)
{
    try {
        std::vector<float> hidden;
        for (int tok : tokens)
            hidden = forwardToken(seqOf(slot), tok);
        std::vector<float> logits = logitsOf(hidden);
        active(slot).tokens.push_back(
            static_cast<int>(argmax({logits.data(), logits.size()})));
    } catch (const FatalError &e) {
        // Request scope (e.g. an injected KV-allocation failure in
        // quant mode): only this request retires with Error.
        noteSlotFault(slot, e.what());
    }
}

void
ReferenceEngine::prefill(const std::vector<SlotIdx> &fresh)
{
    for (SlotIdx slot : fresh)
        advance(slot, active(slot).req.prompt);
}

void
ReferenceEngine::decode(const std::vector<SlotIdx> &live)
{
    // The last sampled token is fed back through the stack, then the
    // next one is sampled, so a request's KV stream never includes
    // its final token.
    for (SlotIdx slot : live) {
        int last = active(slot).tokens.back();
        advance(slot, {&last, 1});
    }
}

void
ReferenceEngine::releaseKv(SlotIdx slot)
{
    if (seqOf(slot).value() < seqs_.size())
        seqs_[seqOf(slot).value()] = SeqCache{};
}

std::vector<float>
ReferenceEngine::forwardToken(SeqId seq, int token)
{
    const ModelConfig &cfg = w_.cfg;
    fatalIf(token < 0 || static_cast<std::size_t>(token) >= cfg.vocab,
            "token id out of vocabulary");
    if (seqs_.size() <= seq.value())
        seqs_.resize(seq.value() + 1);
    SeqCache &cache = seqs_[seq.value()];
    if (cache.k.empty()) {
        cache.k.resize(cfg.l);
        cache.v.resize(cfg.l);
    }

    std::size_t h1 = cfg.h1;
    std::size_t kvDim = cfg.nkv * cfg.headDim;
    std::size_t qDim = cfg.nq * cfg.headDim;
    float scale = 1.0f / std::sqrt(static_cast<float>(cfg.headDim));

    std::vector<float> x(w_.embedding.row(static_cast<std::size_t>(token)),
                         w_.embedding.row(static_cast<std::size_t>(token)) +
                             h1);
    std::vector<float> norm(h1), q(qDim), k(kvDim), v(kvDim);
    std::vector<float> attn_out(qDim), proj(h1);
    std::vector<float> router_logits(cfg.ne), ffn_out(h1);

    for (std::size_t li = 0; li < cfg.l; ++li) {
        const LayerWeights &lw = w_.layers[li];
        rmsNorm(x.data(), lw.attnNorm.data(), norm.data(), h1);
        matmulTransposedB(norm.data(), lw.wq.data(), q.data(), 1, h1,
                          qDim);
        matmulTransposedB(norm.data(), lw.wk.data(), k.data(), 1, h1,
                          kvDim);
        matmulTransposedB(norm.data(), lw.wv.data(), v.data(), 1, h1,
                          kvDim);
        if (kvQuant_) {
            if (!cache.quant)
                cache.quant = std::make_unique<KvCache>(
                    cfg, 1, kvPageTokens_, kvQuant_);
            cache.quant->append(SeqId(0), LayerIdx(li), k.data(),
                                v.data());
            // Deliberately the per-token fused decode walk, prompt
            // tokens included: this is the oracle semantics the
            // pipelined engine's batched prefill kernel
            // (gqaPrefillAttentionQuantFused) must replay
            // bit-for-bit.
            gqaDecodeAttentionQuantFused(
                q.data(), cfg.nq,
                cache.quant->makeQuantView(SeqId(0), LayerIdx(li)),
                attn_out.data(), scale);
        } else {
            auto &ck = cache.k[li];
            auto &cv = cache.v[li];
            ck.insert(ck.end(), k.begin(), k.end());
            cv.insert(cv.end(), v.begin(), v.end());

            std::size_t ctx = ck.size() / kvDim;
            const float *kp = ck.data();
            const float *vp = cv.data();
            KvView view;
            view.kPages = {&kp, 1};
            view.vPages = {&vp, 1};
            view.pageTokens = ctx;
            view.contextLen = ctx;
            view.nKv = cfg.nkv;
            view.headDim = cfg.headDim;
            gqaDecodeAttention(q.data(), cfg.nq, view,
                               attn_out.data(), scale);
        }

        matmulTransposedB(attn_out.data(), lw.wo.data(), proj.data(), 1,
                          qDim, h1);
        accumulate(x.data(), proj.data(), h1);

        rmsNorm(x.data(), lw.ffnNorm.data(), norm.data(), h1);
        matmulTransposedB(norm.data(), lw.router.data(),
                          router_logits.data(), 1, h1, cfg.ne);
        TokenRouting routing = routeTopK(router_logits, cfg.k);
        moeFfnForward(norm.data(), {&routing, 1}, lw.experts(), 1, h1,
                      cfg.h2, ffn_out.data());
        accumulate(x.data(), ffn_out.data(), h1);
    }
    return x;
}

std::vector<float>
ReferenceEngine::logitsOf(const std::vector<float> &hidden) const
{
    const ModelConfig &cfg = w_.cfg;
    panicIf(hidden.size() != cfg.h1, "bad hidden size");
    std::vector<float> norm(cfg.h1), logits(cfg.vocab);
    rmsNorm(hidden.data(), w_.finalNorm.data(), norm.data(), cfg.h1);
    matmulTransposedB(norm.data(), w_.lmHead.data(), logits.data(), 1,
                      cfg.h1, cfg.vocab);
    return logits;
}

} // namespace moelight
