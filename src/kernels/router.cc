#include "kernels/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "kernels/ops.hh"

namespace moelight {

void
routeTopK(std::span<const float> logits, std::size_t k, TokenRouting &out)
{
    fatalIf(k == 0 || k > logits.size(),
            "router top-k must satisfy 0 < k <= n_experts");
    out.experts.resize(k);
    out.weights.resize(k);
    // k argmax passes over the experts not yet picked; the strict >
    // keeps the lowest id among equal logits, the stable-sort order.
    for (std::size_t i = 0; i < k; ++i) {
        auto picked = out.experts.begin() + static_cast<long>(i);
        std::size_t best = logits.size();
        for (std::size_t e = 0; e < logits.size(); ++e) {
            if (std::find(out.experts.begin(), picked,
                          static_cast<int>(e)) != picked)
                continue;
            if (best == logits.size() || logits[e] > logits[best])
                best = e;
        }
        out.experts[i] = static_cast<int>(best);
        out.weights[i] = logits[best];
    }
    softmaxInPlace(out.weights);
}

std::vector<TokenRouting>
routeBatchTopK(const float *logits, std::size_t tokens,
               std::size_t n_experts, std::size_t k)
{
    std::vector<TokenRouting> out(tokens);
    for (std::size_t t = 0; t < tokens; ++t)
        routeTopK({logits + t * n_experts, n_experts}, k, out[t]);
    return out;
}

} // namespace moelight
