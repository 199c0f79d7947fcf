/**
 * @file
 * Sequential reference engine: the straightforward single-threaded
 * MoE transformer forward pass, token by token, with plain contiguous
 * KV tensors. It is the correctness oracle for the pipelined CGOPipe
 * engine — both must emit identical tokens per request for identical
 * weights through the request-level submit()/step() serving API (the
 * reference admits every pending request unconditionally, advances
 * each active request one token per step, and frees a request's KV
 * the moment it finishes, so it is also the oracle for staggered
 * admission and mixed generation lengths).
 */

#ifndef MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
#define MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/strong_types.hh"
#include "common/sync.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime/weights.hh"

namespace moelight {

/**
 * Single-threaded oracle. Not performance-oriented: prefill is
 * processed token by token through all layers. The compute itself is
 * sequential, but the Engine front-end contract still holds: submit /
 * cancel / pendingRequests / activeRequests are callable from any
 * thread concurrently with one driver's step() (same locking split
 * as PipelinedEngine, so front-end tests exercise both engines).
 */
class ReferenceEngine : public Engine
{
  public:
    /**
     * @p weights must outlive the engine. When @p kvQuant is set, KV
     * is stored in a quantized KvCache with @p kvPageTokens tokens per
     * page and attention runs through the fused quant kernel — the
     * single-threaded oracle for the pipelined engine's quantized
     * mode (page geometry must match for token-exact comparison).
     */
    explicit ReferenceEngine(
        const ModelWeights &weights,
        std::optional<QuantKind> kvQuant = std::nullopt,
        std::size_t kvPageTokens = 16);

    // Request-level serving API (Engine).
    void submit(ServeRequest req) override;
    std::vector<RequestOutput> step() override;
    bool cancel(std::int64_t id) override;
    std::size_t pendingRequests() const override;
    std::size_t activeRequests() const override;

    /**
     * Forward one token of one sequence through the full stack and
     * return the output hidden state (pre-norm). Exposed for
     * fine-grained testing. @p seq indexes the internal KV caches,
     * which are created on first use; avoid mixing manual
     * forwardToken() streams with in-flight serving requests, which
     * allocate the same indices.
     */
    std::vector<float> forwardToken(SeqId seq, int token);

    /** Logits from a hidden state (final norm + LM head). */
    std::vector<float> logitsOf(const std::vector<float> &hidden) const;

  private:
    struct SeqCache
    {
        /** Per layer: [len, nkv*headDim] grow-able K and V. */
        std::vector<std::vector<float>> k;
        std::vector<std::vector<float>> v;
        /** Quantized mode: one single-sequence quantized KvCache per
         *  sequence (lazily created; k/v above stay empty). The float
         *  mode deliberately keeps the plain vectors above, so the
         *  oracle does not share the pipelined engine's float store. */
        std::unique_ptr<KvCache> quant;
        std::size_t len = 0;
    };

    /** One admitted, still-generating request. */
    struct ActiveRequest
    {
        ServeRequest req;
        SeqId seq{0};               ///< index into seqs_
        std::vector<int> tokens;    ///< generated so far
        std::vector<float> hidden;  ///< last pre-norm hidden state
        double prefillSeconds = 0.0;
        double decodeSeconds = 0.0;
    };

    SeqCache &cacheFor(SeqId seq);
    SeqId allocSeq();
    void freeSeq(SeqId seq);
    bool reachedEnd(const ActiveRequest &a) const;
    void retireFinished(std::vector<RequestOutput> &out);
    /** Retire cancelled and deadline-expired requests — queued or
     *  active — with terminal outputs, before any compute runs. */
    void processLifecycle(std::vector<RequestOutput> &out);

    const ModelWeights &w_;
    std::optional<QuantKind> kvQuant_;
    std::size_t kvPageTokens_;
    std::vector<SeqCache> seqs_;
    std::vector<SeqId> freeSeqs_;
    std::vector<ActiveRequest> active_;  ///< driver-owned
    /** Front-end lock (same split as PipelinedEngine::frontMu_):
     *  guards the submission queue, the cancellation set and the id
     *  mirror of active_. Lock-ordering leaf. */
    mutable Mutex frontMu_;
    std::deque<ServeRequest> pending_ GUARDED_BY(frontMu_);
    std::unordered_set<std::int64_t> cancelled_
        GUARDED_BY(frontMu_);  ///< ids to cancel at the next step()
    /** Ids of requests in active_, so cancel() needn't touch the
     *  driver-owned vector. */
    std::unordered_set<std::int64_t> activeIds_ GUARDED_BY(frontMu_);
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
