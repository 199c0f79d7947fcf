/**
 * @file
 * Retained naive (pre-optimization) kernel implementations. These are
 * the seed repo's original scalar loops, kept as golden references:
 * the unit tests cross-check every optimized kernel against them, and
 * bench/fig9_kernel_latency measures the optimized kernels' speedup
 * over them. Never call these from the runtime hot paths.
 */

#ifndef MOELIGHT_KERNELS_NAIVE_KERNELS_HH
#define MOELIGHT_KERNELS_NAIVE_KERNELS_HH

#include <cstddef>
#include <span>

#include "kernels/attention.hh"
#include "kernels/moe_ffn.hh"

namespace moelight {
namespace naive {

/** Serial single-accumulator dot product. */
float dot(const float *x, const float *y, std::size_t n);

/** Cache-blocked but otherwise scalar C[m,n] = A[m,k] * B[k,n]. */
void matmul(const float *a, const float *b, float *c, std::size_t m,
            std::size_t k, std::size_t n);

/** Row-of-dots C[m,n] = A[m,k] * W[n,k]^T. */
void matmulTransposedB(const float *a, const float *w, float *c,
                       std::size_t m, std::size_t k, std::size_t n);

/**
 * Per-query-head decode GQA: re-derives the page pointer per token
 * per head via KvView::kAt/vAt. Scratch needs kv.contextLen floats.
 */
void gqaDecodeAttention(const float *q, std::size_t nQ, const KvView &kv,
                        float *out, float scale,
                        std::span<float> scratch);

/** Per-position, per-head causal prefill attention. */
void gqaPrefillAttention(const float *q, const float *k, const float *v,
                         std::size_t seqLen, std::size_t nQ, std::size_t nKv,
                         std::size_t headDim, float *out, float scale);

/**
 * Per-token MoE FFN: one m=1 expertFfnForward per (token, choice),
 * resolving and reading that expert's weights every time. The
 * pre-grouping moeFfnForward, kept as fig9's speedup baseline.
 */
void moeFfnForward(const float *x, std::span<const TokenRouting> routing,
                   const ExpertResolver &resolve, std::size_t tokens,
                   std::size_t h1, std::size_t h2, float *out);

} // namespace naive
} // namespace moelight

#endif // MOELIGHT_KERNELS_NAIVE_KERNELS_HH
