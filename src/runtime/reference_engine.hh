/**
 * @file
 * Sequential reference engine: the straightforward single-threaded
 * MoE transformer forward pass, token by token, with plain contiguous
 * KV tensors. It is the correctness oracle for the pipelined CGOPipe
 * engine — both must emit identical tokens per request for identical
 * weights through the request-level submit()/step() serving API.
 *
 * The request lifecycle is the shared serving core's (serving.hh),
 * run with no slot limit and no KV budget: every queued request is
 * admitted at the next step() into a slot of its own, each active
 * request advances one token per step, and a request's KV is freed
 * the moment it finishes. So it is also the oracle for staggered
 * admission and mixed generation lengths. Only the token math is its
 * own, and it shares nothing with the pipelined engine's.
 */

#ifndef MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
#define MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/strong_types.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime/weights.hh"

namespace moelight {

/**
 * Single-threaded oracle. Not performance-oriented: prefill is
 * processed token by token through all layers. The compute is
 * sequential; the front-end contract (submit / cancel /
 * pendingRequests / activeRequests callable from any thread) is the
 * serving core's.
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

    /**
     * Forward one token of one sequence through the full stack and
     * return the output hidden state (pre-norm). Exposed for
     * fine-grained testing. @p seq indexes the internal KV caches,
     * which are created on first use; avoid mixing manual
     * forwardToken() streams with in-flight serving requests, whose
     * slots use the same indices.
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
    };

    void prefill(const std::vector<SlotIdx> &fresh) override;
    void decode(const std::vector<SlotIdx> &live) override;
    void releaseKv(SlotIdx slot) override;
    /** Feed @p tokens through @p slot's sequence and append the
     *  greedy next token; a fault is noted for the slot alone. */
    void advance(SlotIdx slot, std::span<const int> tokens);

    const ModelWeights &w_;
    std::optional<QuantKind> kvQuant_;
    std::size_t kvPageTokens_;
    std::vector<SeqCache> seqs_;  ///< by SeqId; grown on first use
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
