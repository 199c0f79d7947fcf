/**
 * Shared helpers of the engine suites (test_engine, test_quant_engine,
 * test_serving, test_prefix_cache): serving a batch of prompts through
 * the request API, and test models whose norm gains are not all 1.
 */

#ifndef MOELIGHT_TESTS_RUNTIME_ENGINE_TEST_UTIL_HH
#define MOELIGHT_TESTS_RUNTIME_ENGINE_TEST_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/serving.hh"
#include "runtime/weights.hh"

namespace moelight {
namespace engine_test {

/**
 * Submit one request per prompt (ids 0..n-1, @p maxNewTokens each),
 * drain @p eng, and return each request's tokens indexed by id.
 */
inline std::vector<std::vector<int>>
serveAll(Engine &eng, const std::vector<std::vector<int>> &prompts,
         int maxNewTokens)
{
    for (std::size_t s = 0; s < prompts.size(); ++s) {
        ServeRequest req;
        req.id = static_cast<std::int64_t>(s);
        req.prompt = prompts[s];
        req.maxNewTokens = maxNewTokens;
        eng.submit(std::move(req));
    }
    std::vector<std::vector<int>> out(prompts.size());
    for (RequestOutput &r : eng.drain()) {
        panicIf(r.id < 0 || static_cast<std::size_t>(r.id) >= out.size(),
                "serveAll: unknown request id ", r.id);
        out[static_cast<std::size_t>(r.id)] = std::move(r.tokens);
    }
    return out;
}

/**
 * Overwrite every layer's attn_norm and ffn_norm gains and the final
 * norm with seeded values in [0.5, 1.5]. ModelWeights::random leaves
 * them all 1.0, which makes the norms interchangeable (and the final
 * norm a per-row scale the argmax ignores), so a bit-identity test
 * could not tell which one an engine applied.
 */
inline void
randomizeNormGains(ModelWeights &w, std::uint64_t seed)
{
    Rng rng(seed);
    auto fill = [&](Tensor &t) {
        for (float &g : t.flat())
            g = static_cast<float>(rng.uniform(0.5, 1.5));
    };
    for (LayerWeights &lw : w.layers) {
        fill(lw.attnNorm);
        fill(lw.ffnNorm);
    }
    fill(w.finalNorm);
}

} // namespace engine_test
} // namespace moelight

#endif // MOELIGHT_TESTS_RUNTIME_ENGINE_TEST_UTIL_HH
