/**
 * Quantized-KV engine tests: with EngineConfig::kvQuant set, the
 * pipelined engine's KvCache stores closed pages quantized and decode
 * attends via the fused quant kernel. Tokens must exactly match a
 * ReferenceEngine running the same quantization with the same page
 * geometry (the quant analogue of the float EngineEquivalence suite),
 * and every page must be released once the engine drains.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/reference_engine.hh"

#include "engine_test_util.hh"

namespace moelight {
namespace {

using engine_test::serveAll;

std::vector<std::vector<int>>
makePrompts(const ModelConfig &cfg, std::size_t n, std::size_t min_len,
            std::size_t max_len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<int>> prompts(n);
    for (auto &p : prompts) {
        std::size_t len = static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::int64_t>(min_len),
            static_cast<std::int64_t>(max_len)));
        for (std::size_t t = 0; t < len; ++t)
            p.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
    }
    return prompts;
}

class QuantEngineEquivalence
    : public ::testing::TestWithParam<std::tuple<QuantKind, int>>
{
};

TEST_P(QuantEngineEquivalence, PipelinedMatchesQuantReference)
{
    auto [kind, attn_threads] = GetParam();
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);
    std::size_t page_tokens = 4;

    ReferenceEngine ref(w, kind, page_tokens);
    auto prompts = makePrompts(w.cfg, 4, 2, 10, 7);
    auto expect = serveAll(ref, prompts, 6);

    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = page_tokens;
    ec.kvQuant = kind;
    ec.cpuAttnThreads = static_cast<std::size_t>(attn_threads);
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, 6);

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
    // Quantized pages were held during the run and all released when
    // the requests retired.
    EXPECT_GT(eng.kvPeakPages(), 0u);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndPools, QuantEngineEquivalence,
    ::testing::Combine(::testing::Values(QuantKind::Int8,
                                         QuantKind::Int4),
                       ::testing::Values(0, 3)));

TEST(QuantEngine, QuantReferenceStaysCloseToFloatReference)
{
    // Int8 KV perturbs logits only slightly; over a short horizon the
    // greedy tokens of the quantized reference should rarely diverge
    // from the float reference. This guards against gross numeric
    // bugs without over-constraining quantization error.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 9);
    ReferenceEngine fp(w);
    ReferenceEngine q8(w, QuantKind::Int8, 4);
    auto prompts = makePrompts(w.cfg, 3, 3, 8, 5);
    auto a = serveAll(fp, prompts, 4);
    auto b = serveAll(q8, prompts, 4);
    std::size_t same = 0, total = 0;
    for (std::size_t s = 0; s < a.size(); ++s)
        for (std::size_t t = 0; t < a[s].size(); ++t) {
            same += a[s][t] == b[s][t];
            ++total;
        }
    EXPECT_GE(same * 2, total)
        << "int8 KV diverged from float on most tokens";
}

} // namespace
} // namespace moelight
