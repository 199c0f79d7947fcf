#include "kernels/moe_ffn.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/linalg.hh"
#include "kernels/ops.hh"

namespace moelight {

void
expertFfnForward(const float *x, const ExpertWeights &w, std::size_t h1,
                 std::size_t h2, float *out, std::span<float> scratch)
{
    panicIf(scratch.size() < expertFfnScratchSize(h2),
            "expert FFN scratch too small");
    float *gate = scratch.data();
    float *up = scratch.data() + h2;
    matmulTransposedB(x, w.w1, gate, 1, h1, h2);
    matmulTransposedB(x, w.w3, up, 1, h1, h2);
    swiglu(gate, up, gate, h2);
    matmulTransposedB(gate, w.w2, out, 1, h2, h1);
}

void
moeFfnForward(const float *x, std::span<const TokenRouting> routing,
              const ExpertResolver &resolve, std::size_t tokens,
              std::size_t h1, std::size_t h2, float *out,
              ThreadPool *pool)
{
    panicIf(routing.size() != tokens, "routing size != token count");

    // (token, choice) pairs, numbered token-major: pair p of token t
    // is first[t] + choice.
    std::vector<std::size_t> first(tokens + 1, 0);
    for (std::size_t t = 0; t < tokens; ++t) {
        const TokenRouting &r = routing[t];
        panicIf(r.experts.size() != r.weights.size(),
                "malformed routing entry");
        first[t + 1] = first[t] + r.experts.size();
    }
    const std::size_t pairs = first[tokens];
    std::vector<std::size_t> pairToken(pairs);
    std::vector<int> pairExpert(pairs);
    for (std::size_t t = 0; t < tokens; ++t)
        for (std::size_t e = 0; e < routing[t].experts.size(); ++e) {
            pairToken[first[t] + e] = t;
            pairExpert[first[t] + e] = routing[t].experts[e];
        }

    // Bucket pairs by expert: after the stable sort each expert's
    // pairs are one contiguous run [groupStart[g], groupStart[g+1]).
    std::vector<std::size_t> order(pairs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pairExpert[a] < pairExpert[b];
                     });
    std::vector<std::size_t> groupStart;
    for (std::size_t s = 0; s < pairs; ++s)
        if (s == 0 || pairExpert[order[s]] != pairExpert[order[s - 1]])
            groupStart.push_back(s);
    const std::size_t groups = groupStart.size();
    groupStart.push_back(pairs);
    std::size_t maxGroup = 0;
    for (std::size_t g = 0; g < groups; ++g)
        maxGroup = std::max(maxGroup, groupStart[g + 1] - groupStart[g]);

    // Expert outputs in sorted order, so each group's down projection
    // writes one contiguous block. Every GEMM element is m-independent
    // (linalg.hh), so a row here equals the per-token m=1 result.
    std::vector<float> pairOut(pairs * h1);

    // Per-worker scratch: gathered inputs [m, h1] and the gate/up
    // intermediates [m, h2] each, sized to the largest group.
    ThreadPool::forEachWithScratch(
        pool, groups, maxGroup * (h1 + 2 * h2),
        [&](std::size_t begin, std::size_t end, float *buf) {
            float *xg = buf;
            float *gate = xg + maxGroup * h1;
            float *up = gate + maxGroup * h2;
            for (std::size_t g = begin; g < end; ++g) {
                std::size_t s0 = groupStart[g];
                std::size_t m = groupStart[g + 1] - s0;
                ExpertWeights w = resolve(pairExpert[order[s0]]);
                panicIf(!w.w1 || !w.w2 || !w.w3,
                        "expert resolver returned null weights");
                for (std::size_t i = 0; i < m; ++i)
                    std::memcpy(xg + i * h1,
                                x + pairToken[order[s0 + i]] * h1,
                                h1 * sizeof(float));
                matmulTransposedB(xg, w.w1, gate, m, h1, h2);
                matmulTransposedB(xg, w.w3, up, m, h1, h2);
                swiglu(gate, up, gate, m * h2);
                matmulTransposedB(gate, w.w2, pairOut.data() + s0 * h1,
                                  m, h2, h1);
            }
        });

    // Combine in each token's routing order, the summation order of
    // the per-token composition.
    std::vector<std::size_t> slotOf(pairs);
    for (std::size_t s = 0; s < pairs; ++s)
        slotOf[order[s]] = s;
    for (std::size_t t = 0; t < tokens; ++t) {
        float *ot = out + t * h1;
        std::memset(ot, 0, h1 * sizeof(float));
        for (std::size_t p = first[t]; p < first[t + 1]; ++p)
            accumulateScaled(ot, pairOut.data() + slotOf[p] * h1,
                             routing[t].weights[p - first[t]], h1);
    }
}

} // namespace moelight
