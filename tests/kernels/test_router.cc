#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/router.hh"

namespace moelight {
namespace {

TEST(Router, PicksTopK)
{
    std::vector<float> logits{0.1f, 2.0f, -1.0f, 1.5f};
    TokenRouting r = routeTopK({logits.data(), logits.size()}, 2);
    ASSERT_EQ(r.experts.size(), 2u);
    EXPECT_EQ(r.experts[0], 1);
    EXPECT_EQ(r.experts[1], 3);
}

TEST(Router, WeightsSumToOneAndOrdered)
{
    std::vector<float> logits{0.5f, 2.0f, -1.0f, 1.5f, 0.0f};
    TokenRouting r = routeTopK({logits.data(), logits.size()}, 3);
    float sum = 0.0f;
    for (float w : r.weights)
        sum += w;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GE(r.weights[0], r.weights[1]);
    EXPECT_GE(r.weights[1], r.weights[2]);
}

TEST(Router, TieBreaksTowardLowerId)
{
    std::vector<float> logits{1.0f, 1.0f, 1.0f};
    TokenRouting r = routeTopK({logits.data(), logits.size()}, 2);
    EXPECT_EQ(r.experts[0], 0);
    EXPECT_EQ(r.experts[1], 1);
    EXPECT_NEAR(r.weights[0], 0.5f, 1e-6f);
}

TEST(Router, TiesMatchStableSortOrder)
{
    // Logits drawn from three values, so most picks are ties: the
    // selection must equal a stable descending sort's first k.
    Rng rng(17);
    const std::size_t ne = 8;
    TokenRouting reused;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> logits(ne);
        for (auto &v : logits)
            v = static_cast<float>(rng.uniformInt(0, 2));
        std::vector<int> order(ne);
        for (std::size_t e = 0; e < ne; ++e)
            order[e] = static_cast<int>(e);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return logits[static_cast<std::size_t>(a)] >
                   logits[static_cast<std::size_t>(b)];
        });
        for (std::size_t k : {1u, 2u, 3u, 8u}) {
            // One row reused across calls, as the engine's routing
            // buffer is: stale entries must not leak into the pick.
            routeTopK({logits.data(), ne}, k, reused);
            EXPECT_EQ(reused.experts,
                      std::vector<int>(order.begin(),
                                       order.begin() + static_cast<long>(k)));
            EXPECT_EQ(reused.weights.size(), k);
        }
    }
}

TEST(Router, KEqualsNExpertsUsesAll)
{
    std::vector<float> logits{3.0f, 1.0f, 2.0f};
    TokenRouting r = routeTopK({logits.data(), logits.size()}, 3);
    std::vector<int> sorted = r.experts;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
}

TEST(Router, RejectsBadK)
{
    std::vector<float> logits{1.0f, 2.0f};
    EXPECT_THROW(routeTopK({logits.data(), logits.size()}, 0),
                 FatalError);
    EXPECT_THROW(routeTopK({logits.data(), logits.size()}, 3),
                 FatalError);
}

TEST(Router, BatchMatchesSingle)
{
    Rng rng(5);
    const std::size_t tokens = 16, ne = 8, k = 2;
    std::vector<float> logits(tokens * ne);
    for (auto &v : logits)
        v = static_cast<float>(rng.uniform(-2, 2));
    auto batch = routeBatchTopK(logits.data(), tokens, ne, k);
    ASSERT_EQ(batch.size(), tokens);
    for (std::size_t t = 0; t < tokens; ++t) {
        TokenRouting single =
            routeTopK({logits.data() + t * ne, ne}, k);
        EXPECT_EQ(batch[t].experts, single.experts);
        for (std::size_t i = 0; i < k; ++i)
            EXPECT_FLOAT_EQ(batch[t].weights[i], single.weights[i]);
    }
}

/** Property sweep: selected experts hold the k largest logits. */
class RouterProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RouterProperty, SelectionIsMaximal)
{
    std::size_t k = GetParam();
    Rng rng(100 + k);
    const std::size_t ne = 16;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<float> logits(ne);
        for (auto &v : logits)
            v = static_cast<float>(rng.uniform(-3, 3));
        TokenRouting r = routeTopK({logits.data(), ne}, k);
        float min_selected = 1e9f;
        for (int e : r.experts)
            min_selected = std::min(
                min_selected, logits[static_cast<std::size_t>(e)]);
        int better = 0;
        for (std::size_t e = 0; e < ne; ++e)
            if (logits[e] > min_selected)
                ++better;
        EXPECT_LT(better, static_cast<int>(k));
    }
}

INSTANTIATE_TEST_SUITE_P(TopK, RouterProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace moelight
