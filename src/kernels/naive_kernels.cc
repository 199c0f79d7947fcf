#include "kernels/naive_kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "kernels/linalg.hh"
#include "kernels/ops.hh"

namespace moelight {
namespace naive {

namespace {

constexpr std::size_t kBlock = 64;

} // namespace

float
dot(const float *x, const float *y, std::size_t n)
{
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        acc += x[i] * y[i];
    return acc;
}

void
matmul(const float *a, const float *b, float *c, std::size_t m,
       std::size_t k, std::size_t n)
{
    std::memset(c, 0, m * n * sizeof(float));
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
        std::size_t i_max = std::min(i0 + kBlock, m);
        for (std::size_t l0 = 0; l0 < k; l0 += kBlock) {
            std::size_t l_max = std::min(l0 + kBlock, k);
            for (std::size_t i = i0; i < i_max; ++i) {
                for (std::size_t l = l0; l < l_max; ++l) {
                    float av = a[i * k + l];
                    const float *brow = b + l * n;
                    float *crow = c + i * n;
                    for (std::size_t j = 0; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

void
matmulTransposedB(const float *a, const float *w, float *c, std::size_t m,
                  std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = dot(arow, w + j * k, k);
    }
}

void
gqaDecodeAttention(const float *q, std::size_t nQ, const KvView &kv,
                   float *out, float scale, std::span<float> scratch)
{
    panicIf(kv.nKv == 0 || nQ % kv.nKv != 0,
            "query heads must be a multiple of KV heads");
    panicIf(kv.contextLen == 0, "attention over empty context");
    panicIf(scratch.size() < kv.contextLen, "attention scratch too small");
    std::size_t group = nQ / kv.nKv;
    std::span<float> scores = scratch.subspan(0, kv.contextLen);

    for (std::size_t h = 0; h < nQ; ++h) {
        std::size_t kvh = h / group;
        const float *qh = q + h * kv.headDim;
        for (std::size_t t = 0; t < kv.contextLen; ++t)
            scores[t] = scale * dot(qh, kv.kAt(t, kvh), kv.headDim);
        softmaxInPlace(scores);
        float *oh = out + h * kv.headDim;
        std::memset(oh, 0, kv.headDim * sizeof(float));
        for (std::size_t t = 0; t < kv.contextLen; ++t) {
            const float *vt = kv.vAt(t, kvh);
            float s = scores[t];
            for (std::size_t d = 0; d < kv.headDim; ++d)
                oh[d] += s * vt[d];
        }
    }
}

void
gqaPrefillAttention(const float *q, const float *k, const float *v,
                    std::size_t seqLen, std::size_t nQ, std::size_t nKv,
                    std::size_t headDim, float *out, float scale)
{
    panicIf(nKv == 0 || nQ % nKv != 0,
            "query heads must be a multiple of KV heads");
    std::size_t group = nQ / nKv;
    std::vector<float> scores(seqLen);

    for (std::size_t i = 0; i < seqLen; ++i) {
        for (std::size_t h = 0; h < nQ; ++h) {
            std::size_t kvh = h / group;
            const float *qh = q + (i * nQ + h) * headDim;
            std::size_t ctx = i + 1;  // causal mask
            for (std::size_t t = 0; t < ctx; ++t) {
                const float *kt = k + (t * nKv + kvh) * headDim;
                scores[t] = scale * dot(qh, kt, headDim);
            }
            softmaxInPlace({scores.data(), ctx});
            float *oh = out + (i * nQ + h) * headDim;
            std::memset(oh, 0, headDim * sizeof(float));
            for (std::size_t t = 0; t < ctx; ++t) {
                const float *vt = v + (t * nKv + kvh) * headDim;
                float s = scores[t];
                for (std::size_t d = 0; d < headDim; ++d)
                    oh[d] += s * vt[d];
            }
        }
    }
}

void
moeFfnForward(const float *x, std::span<const TokenRouting> routing,
              const ExpertResolver &resolve, std::size_t tokens,
              std::size_t h1, std::size_t h2, float *out)
{
    panicIf(routing.size() != tokens, "routing size != token count");
    std::memset(out, 0, tokens * h1 * sizeof(float));
    std::vector<float> scratch(expertFfnScratchSize(h2));
    std::vector<float> expertOut(h1);
    for (std::size_t t = 0; t < tokens; ++t) {
        const TokenRouting &r = routing[t];
        panicIf(r.experts.size() != r.weights.size(),
                "malformed routing entry");
        for (std::size_t e = 0; e < r.experts.size(); ++e) {
            expertFfnForward(x + t * h1, resolve(r.experts[e]), h1, h2,
                             expertOut.data(), scratch);
            accumulateScaled(out + t * h1, expertOut.data(),
                             r.weights[e], h1);
        }
    }
}

} // namespace naive
} // namespace moelight
