#include "runtime/reference_engine.hh"

#include <algorithm>
#include <chrono>
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
    : w_(weights), kvQuant_(kvQuant), kvPageTokens_(kvPageTokens)
{
    w_.cfg.validate();
    fatalIf(kvQuant_ && kvPageTokens_ == 0,
            "KV page must hold at least one token");
}

ReferenceEngine::SeqCache &
ReferenceEngine::cacheFor(SeqId seq)
{
    while (seqs_.size() <= seq.value()) {
        SeqCache c;
        c.k.resize(w_.cfg.l);
        c.v.resize(w_.cfg.l);
        seqs_.push_back(std::move(c));
    }
    return seqs_[seq.value()];
}

SeqId
ReferenceEngine::allocSeq()
{
    if (!freeSeqs_.empty()) {
        SeqId seq = freeSeqs_.back();
        freeSeqs_.pop_back();
        return seq;
    }
    SeqId seq(seqs_.size());
    cacheFor(seq);
    return seq;
}

void
ReferenceEngine::freeSeq(SeqId seq)
{
    SeqCache fresh;
    fresh.k.resize(w_.cfg.l);
    fresh.v.resize(w_.cfg.l);
    seqs_[seq.value()] = std::move(fresh);
    freeSeqs_.push_back(seq);
}

void
ReferenceEngine::submit(ServeRequest req)
{
    servingValidateRequest(req, w_.cfg.vocab);
    servingStampSubmitted(req);
    MutexLock lk(frontMu_);
    pending_.push_back(std::move(req));
}

bool
ReferenceEngine::cancel(std::int64_t id)
{
    MutexLock lk(frontMu_);
    bool found = activeIds_.count(id) != 0;
    for (const ServeRequest &r : pending_)
        found = found || r.id == id;
    if (found)
        cancelled_.insert(id);
    return found;
}

std::size_t
ReferenceEngine::pendingRequests() const
{
    MutexLock lk(frontMu_);
    return pending_.size();
}

std::size_t
ReferenceEngine::activeRequests() const
{
    MutexLock lk(frontMu_);
    return activeIds_.size();
}

bool
ReferenceEngine::reachedEnd(const ActiveRequest &a) const
{
    return servingReachedEnd(a.req, a.tokens);
}

void
ReferenceEngine::retireFinished(std::vector<RequestOutput> &out)
{
    std::vector<ActiveRequest> still;
    still.reserve(active_.size());
    for (ActiveRequest &a : active_) {
        if (!reachedEnd(a)) {
            still.push_back(std::move(a));
            continue;
        }
        RequestOutput r =
            servingMakeOutput(a.req, std::move(a.tokens),
                              a.prefillSeconds, a.decodeSeconds);
        freeSeq(a.seq);
        {
            MutexLock lk(frontMu_);
            activeIds_.erase(a.req.id);
        }
        out.push_back(std::move(r));
    }
    active_ = std::move(still);
}

void
ReferenceEngine::processLifecycle(std::vector<RequestOutput> &out)
{
    // Snapshot the cancellation set (ids cancelled from here on are
    // handled next round) so the driver works on a local copy — the
    // same discipline as PipelinedEngine::processLifecycle.
    std::unordered_set<std::int64_t> cancelled;
    {
        MutexLock lk(frontMu_);
        cancelled.swap(cancelled_);
    }

    // Queued requests: cancelled or expired ones retire without ever
    // running (no tokens, no KV).
    {
        MutexLock lk(frontMu_);
        std::deque<ServeRequest> keptPending;
        for (ServeRequest &r : pending_) {
            if (cancelled.count(r.id)) {
                out.push_back(servingMakeTerminalOutput(
                    r, {}, FinishReason::Cancelled, {}, 0.0, 0.0));
            } else if (servingDeadlineExpired(r)) {
                out.push_back(servingMakeTerminalOutput(
                    r, {}, FinishReason::TimedOut, {}, 0.0, 0.0));
            } else {
                keptPending.push_back(std::move(r));
            }
        }
        pending_ = std::move(keptPending);
    }

    // Active requests: retire with their partial tokens and release
    // KV immediately.
    std::vector<ActiveRequest> keptActive;
    keptActive.reserve(active_.size());
    for (ActiveRequest &a : active_) {
        FinishReason reason = FinishReason::Length;
        if (cancelled.count(a.req.id))
            reason = FinishReason::Cancelled;
        else if (servingDeadlineExpired(a.req))
            reason = FinishReason::TimedOut;
        else {
            keptActive.push_back(std::move(a));
            continue;
        }
        {
            MutexLock lk(frontMu_);
            activeIds_.erase(a.req.id);
        }
        out.push_back(servingMakeTerminalOutput(
            a.req, std::move(a.tokens), reason, {},
            a.prefillSeconds, a.decodeSeconds));
        freeSeq(a.seq);
    }
    active_ = std::move(keptActive);
    // Stale cancelled ids (request already finished) drop with the
    // local snapshot.
}

std::vector<RequestOutput>
ReferenceEngine::step()
{
    std::vector<RequestOutput> finished;
    processLifecycle(finished);

    // Admission: the oracle has no pipeline width or KV pool to
    // respect — every pending request is admitted and prefilled
    // immediately, which is exactly what makes it the per-request
    // oracle for any admission schedule the pipelined engine picks.
    // A prefill fault (e.g. injected KV-allocation failure in quant
    // mode) retires only that request with FinishReason::Error; the
    // rest of the queue still admits.
    std::deque<ServeRequest> admitted;
    {
        // One critical section for the queued→active hand-off: the
        // ids register as active in the same swap that empties the
        // queue, so a concurrent cancel() always finds them.
        MutexLock lk(frontMu_);
        admitted.swap(pending_);
        for (const ServeRequest &r : admitted)
            activeIds_.insert(r.id);
    }
    while (!admitted.empty()) {
        ActiveRequest a;
        a.req = std::move(admitted.front());
        admitted.pop_front();
        a.seq = allocSeq();
        auto t0 = std::chrono::steady_clock::now();
        try {
            for (int tok : a.req.prompt)
                a.hidden = forwardToken(a.seq, tok);
            std::vector<float> logits = logitsOf(a.hidden);
            a.tokens.push_back(static_cast<int>(
                argmax({logits.data(), logits.size()})));
        } catch (const FatalError &e) {
            freeSeq(a.seq);
            {
                MutexLock lk(frontMu_);
                activeIds_.erase(a.req.id);
            }
            finished.push_back(servingMakeTerminalOutput(
                a.req, {}, FinishReason::Error, e.what(),
                servingSecondsSince(t0), 0.0));
            continue;
        }
        a.prefillSeconds = servingSecondsSince(t0);
        active_.push_back(std::move(a));
    }
    retireFinished(finished);
    if (active_.empty())
        return finished;

    // One decode round: each active request advances by one token.
    // The last sampled token is fed back through the stack, then the
    // next one is sampled, so a request's KV stream never includes its
    // final token. A decode
    // fault retires only the faulted request (its KV freed on the
    // spot); co-active requests keep generating unaffected.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<ActiveRequest> still;
    still.reserve(active_.size());
    for (ActiveRequest &a : active_) {
        try {
            a.hidden = forwardToken(a.seq, a.tokens.back());
            std::vector<float> logits = logitsOf(a.hidden);
            a.tokens.push_back(static_cast<int>(
                argmax({logits.data(), logits.size()})));
        } catch (const FatalError &e) {
            freeSeq(a.seq);
            {
                MutexLock lk(frontMu_);
                activeIds_.erase(a.req.id);
            }
            finished.push_back(servingMakeTerminalOutput(
                a.req, std::move(a.tokens), FinishReason::Error,
                e.what(), a.prefillSeconds, a.decodeSeconds));
            continue;
        }
        still.push_back(std::move(a));
    }
    active_ = std::move(still);
    double secs = servingSecondsSince(t0);
    for (ActiveRequest &a : active_)
        a.decodeSeconds += secs;
    retireFinished(finished);
    return finished;
}

std::vector<float>
ReferenceEngine::forwardToken(SeqId seq, int token)
{
    const ModelConfig &cfg = w_.cfg;
    fatalIf(token < 0 || static_cast<std::size_t>(token) >= cfg.vocab,
            "token id out of vocabulary");
    SeqCache &cache = cacheFor(seq);

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
        auto resolve = [&](int e) {
            ExpertWeights ew;
            ew.w1 = lw.w1[static_cast<std::size_t>(e)].data();
            ew.w3 = lw.w3[static_cast<std::size_t>(e)].data();
            ew.w2 = lw.w2[static_cast<std::size_t>(e)].data();
            return ew;
        };
        moeFfnForward(norm.data(), {&routing, 1}, resolve, 1, h1, cfg.h2,
                      ffn_out.data());
        accumulate(x.data(), ffn_out.data(), h1);
    }
    cache.len += 1;
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
