/**
 * @file
 * Mixture-of-Experts feed-forward kernel with page-table-indexed
 * expert weights, mirroring Fig. 11 of the paper: the kernel never
 * sees contiguous per-expert weight blobs; it resolves each expert's
 * w1/w3/w2 matrices through a resolver (backed by the paged weight
 * store in the runtime, or by plain tensors in tests).
 *
 * Expert FFN semantics (Mixtral-style SwiGLU):
 *   y = W2 * ( silu(W1 x) ⊙ (W3 x) )
 * with W1, W3 of shape [h2, h1] and W2 of shape [h1, h2].
 *
 * The batched kernel groups tokens by expert: each routed expert's
 * weights are resolved once and read by one m-row GEMM chain over
 * all the tokens routed to it, so a micro-batch streams
 * min(ne, tokens * k) experts rather than tokens * k — the weight-read
 * amortisation the perf model's post-attention cost assumes. Every
 * GEMM element is m-independent (linalg.hh) and each token's expert
 * outputs are summed in its routing order, so the result is
 * bit-identical to the per-token composition of expertFfnForward and
 * accumulateScaled.
 */

#ifndef MOELIGHT_KERNELS_MOE_FFN_HH
#define MOELIGHT_KERNELS_MOE_FFN_HH

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "kernels/router.hh"

namespace moelight {

class ThreadPool;

/** Pointers to one expert's three projection matrices. */
struct ExpertWeights
{
    const float *w1 = nullptr;  ///< gate proj, [h2, h1]
    const float *w3 = nullptr;  ///< up proj, [h2, h1]
    const float *w2 = nullptr;  ///< down proj, [h1, h2]
};

/** Resolves an expert id to its (possibly paged) weight pointers. */
using ExpertResolver = std::function<ExpertWeights(int expert)>;

/**
 * Apply the MoE FFN to a batch of tokens.
 *
 * @param x        Input activations, [tokens, h1] row-major.
 * @param routing  Per-token top-k routing decisions (size == tokens).
 * @param resolve  Expert weight resolver.
 * @param tokens   Number of tokens.
 * @param h1       Model hidden dim.
 * @param h2       Expert intermediate dim.
 * @param out      Output activations, [tokens, h1]; overwritten.
 * @param pool     Optional pool: distinct experts are distributed
 *                 across it, with one scratch buffer per worker slot
 *                 sized to the largest expert group. Results are
 *                 identical with or without the pool (expert groups
 *                 write disjoint rows).
 *
 * @p resolve is called once per distinct routed expert per call (from
 * pool workers when @p pool is given), never once per token.
 */
void moeFfnForward(const float *x, std::span<const TokenRouting> routing,
                   const ExpertResolver &resolve, std::size_t tokens,
                   std::size_t h1, std::size_t h2, float *out,
                   ThreadPool *pool = nullptr);

/**
 * Single dense expert FFN applied to one token: the per-token
 * composition moeFfnForward is bit-identical to (used by the unit
 * tests and the retained naive MoE kernel).
 */
void expertFfnForward(const float *x, const ExpertWeights &w,
                      std::size_t h1, std::size_t h2, float *out,
                      std::span<float> scratch);

/** Scratch floats needed by expertFfnForward: 2 * h2. */
inline std::size_t
expertFfnScratchSize(std::size_t h2)
{
    return 2 * h2;
}

} // namespace moelight

#endif // MOELIGHT_KERNELS_MOE_FFN_HH
