/**
 * @file
 * MoE gating: top-k expert selection with renormalized softmax weights,
 * matching the Mixtral / DBRX router semantics (softmax over the
 * selected top-k logits).
 */

#ifndef MOELIGHT_KERNELS_ROUTER_HH
#define MOELIGHT_KERNELS_ROUTER_HH

#include <cstddef>
#include <span>
#include <vector>

namespace moelight {

/** Routing decision for one token. */
struct TokenRouting
{
    /** Selected expert ids, highest logit first; size k. */
    std::vector<int> experts;
    /** Mixing weights, softmax over the selected logits; sums to 1. */
    std::vector<float> weights;
};

/**
 * Route one token into @p out: pick the @p k largest of @p logits
 * (n_experts entries) and softmax-renormalize their logits into
 * mixing weights. Ties broken toward the lower expert id, matching a
 * stable sort. @p out's vectors keep their capacity, so a reused
 * routing row allocates nothing.
 */
void routeTopK(std::span<const float> logits, std::size_t k,
               TokenRouting &out);

/** routeTopK into a fresh TokenRouting. */
inline TokenRouting
routeTopK(std::span<const float> logits, std::size_t k)
{
    TokenRouting r;
    routeTopK(logits, k, r);
    return r;
}

/**
 * Route a batch: @p logits is [tokens, n_experts] row-major; returns
 * one TokenRouting per token.
 */
std::vector<TokenRouting> routeBatchTopK(const float *logits,
                                         std::size_t tokens,
                                         std::size_t n_experts,
                                         std::size_t k);

} // namespace moelight

#endif // MOELIGHT_KERNELS_ROUTER_HH
