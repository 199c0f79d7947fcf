#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "kernels/linalg.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/ops.hh"

namespace moelight {
namespace {

/** Small dense expert bank for tests. */
struct ExpertBank
{
    std::size_t h1, h2, ne;
    std::vector<std::vector<float>> w1, w3, w2;

    ExpertBank(std::size_t h1_, std::size_t h2_, std::size_t ne_,
               std::uint64_t seed)
        : h1(h1_), h2(h2_), ne(ne_)
    {
        Rng rng(seed);
        for (std::size_t e = 0; e < ne; ++e) {
            w1.emplace_back(h2 * h1);
            w3.emplace_back(h2 * h1);
            w2.emplace_back(h1 * h2);
            for (auto &v : w1.back())
                v = static_cast<float>(rng.uniform(-0.5, 0.5));
            for (auto &v : w3.back())
                v = static_cast<float>(rng.uniform(-0.5, 0.5));
            for (auto &v : w2.back())
                v = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
    }

    ExpertResolver
    resolver() const
    {
        return [this](int e) {
            ExpertWeights w;
            auto idx = static_cast<std::size_t>(e);
            w.w1 = w1[idx].data();
            w.w3 = w3[idx].data();
            w.w2 = w2[idx].data();
            return w;
        };
    }
};

/** Naive single-expert forward. */
std::vector<float>
naiveExpert(const ExpertBank &bank, std::size_t e,
            const std::vector<float> &x)
{
    std::vector<float> gate(bank.h2), up(bank.h2), out(bank.h1);
    matmulTransposedB(x.data(), bank.w1[e].data(), gate.data(), 1,
                      bank.h1, bank.h2);
    matmulTransposedB(x.data(), bank.w3[e].data(), up.data(), 1,
                      bank.h1, bank.h2);
    for (std::size_t i = 0; i < bank.h2; ++i) {
        float g = gate[i] / (1.0f + std::exp(-gate[i]));
        gate[i] = g * up[i];
    }
    matmulTransposedB(gate.data(), bank.w2[e].data(), out.data(), 1,
                      bank.h2, bank.h1);
    return out;
}

TEST(ExpertFfn, MatchesNaive)
{
    ExpertBank bank(8, 16, 2, 42);
    std::vector<float> x{1, -1, 0.5f, 2, -0.25f, 0, 3, -2};
    std::vector<float> out(8), scratch(expertFfnScratchSize(16));
    expertFfnForward(x.data(), bank.resolver()(1), 8, 16, out.data(),
                     scratch);
    std::vector<float> ref = naiveExpert(bank, 1, x);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(out[i], ref[i], 1e-5f);
}

TEST(MoeFfn, SingleExpertWeightOneEqualsExpert)
{
    ExpertBank bank(8, 16, 4, 7);
    std::vector<float> x(8, 0.7f), out(8);
    TokenRouting r;
    r.experts = {2};
    r.weights = {1.0f};
    moeFfnForward(x.data(), {&r, 1}, bank.resolver(), 1, 8, 16,
                  out.data());
    std::vector<float> ref = naiveExpert(bank, 2, x);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(out[i], ref[i], 1e-5f);
}

TEST(MoeFfn, MixesExpertsByWeight)
{
    ExpertBank bank(8, 16, 4, 9);
    std::vector<float> x(8);
    Rng rng(1);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(-1, 1));
    TokenRouting r;
    r.experts = {0, 3};
    r.weights = {0.25f, 0.75f};
    std::vector<float> out(8);
    moeFfnForward(x.data(), {&r, 1}, bank.resolver(), 1, 8, 16,
                  out.data());
    std::vector<float> e0 = naiveExpert(bank, 0, x);
    std::vector<float> e3 = naiveExpert(bank, 3, x);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(out[i], 0.25f * e0[i] + 0.75f * e3[i], 1e-5f);
}

TEST(MoeFfn, BatchTokensIndependent)
{
    ExpertBank bank(4, 8, 2, 11);
    const std::size_t tokens = 3;
    std::vector<float> x(tokens * 4);
    Rng rng(2);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<TokenRouting> rs(tokens);
    rs[0].experts = {0};
    rs[0].weights = {1.0f};
    rs[1].experts = {1};
    rs[1].weights = {1.0f};
    rs[2].experts = {0, 1};
    rs[2].weights = {0.5f, 0.5f};
    std::vector<float> out(tokens * 4);
    moeFfnForward(x.data(), rs, bank.resolver(), tokens, 4, 8,
                  out.data());
    for (std::size_t t = 0; t < tokens; ++t) {
        std::vector<float> single(4);
        moeFfnForward(x.data() + t * 4, {&rs[t], 1}, bank.resolver(), 1,
                      4, 8, single.data());
        EXPECT_EQ(std::memcmp(out.data() + t * 4, single.data(),
                              4 * sizeof(float)),
                  0)
            << "token " << t;
    }
}

/** Random [tokens, h1] activations. */
std::vector<float>
randomActivations(std::size_t tokens, std::size_t h1, std::uint64_t seed)
{
    std::vector<float> x(tokens * h1);
    Rng rng(seed);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(-1, 1));
    return x;
}

/** Top-k routing from random router logits. */
std::vector<TokenRouting>
randomRouting(std::size_t tokens, std::size_t ne, std::size_t k,
              std::uint64_t seed)
{
    std::vector<float> logits(tokens * ne);
    Rng rng(seed);
    for (auto &v : logits)
        v = static_cast<float>(rng.uniform(-2, 2));
    return routeBatchTopK(logits.data(), tokens, ne, k);
}

/**
 * Independent per-token composition: one expertFfnForward per
 * (token, choice), summed in routing order with accumulateScaled.
 * Shares no code with moeFfnForward's grouping.
 */
std::vector<float>
perTokenMoe(const ExpertBank &bank, const std::vector<float> &x,
            const std::vector<TokenRouting> &rs)
{
    std::vector<float> out(rs.size() * bank.h1, 0.0f);
    std::vector<float> scratch(expertFfnScratchSize(bank.h2));
    std::vector<float> eo(bank.h1);
    ExpertResolver resolve = bank.resolver();
    for (std::size_t t = 0; t < rs.size(); ++t)
        for (std::size_t e = 0; e < rs[t].experts.size(); ++e) {
            expertFfnForward(x.data() + t * bank.h1,
                             resolve(rs[t].experts[e]), bank.h1, bank.h2,
                             eo.data(), scratch);
            accumulateScaled(out.data() + t * bank.h1, eo.data(),
                             rs[t].weights[e], bank.h1);
        }
    return out;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(MoeFfn, GroupedBatchBitwiseMatchesPerTokenComposition)
{
    // 64 tokens, top-2-of-8: every expert serves several tokens, so
    // this exercises m > 1 GEMMs at widths that cover the SIMD tails.
    ExpertBank bank(40, 72, 8, 21);
    const std::size_t tokens = 64;
    std::vector<float> x = randomActivations(tokens, bank.h1, 22);
    std::vector<TokenRouting> rs = randomRouting(tokens, 8, 2, 23);
    std::vector<float> out(tokens * bank.h1);
    moeFfnForward(x.data(), rs, bank.resolver(), tokens, bank.h1,
                  bank.h2, out.data());
    EXPECT_TRUE(bitwiseEqual(out, perTokenMoe(bank, x, rs)));
}

TEST(MoeFfn, ExpertWithNoTokensIsSkipped)
{
    ExpertBank bank(16, 24, 4, 31);
    const std::size_t tokens = 9;
    std::vector<float> x = randomActivations(tokens, bank.h1, 32);
    // Experts 0, 1 and 3 only; expert 2 gets nothing.
    std::vector<TokenRouting> rs(tokens);
    for (std::size_t t = 0; t < tokens; ++t) {
        int a = static_cast<int>(t % 2), b = t % 3 == 0 ? 3 : 1 - a;
        rs[t].experts = {a, b};
        rs[t].weights = {0.625f, 0.375f};
    }
    std::vector<int> calls(4, 0);
    ExpertResolver base = bank.resolver();
    ExpertResolver counting = [&](int e) {
        ++calls[static_cast<std::size_t>(e)];
        return base(e);
    };
    std::vector<float> out(tokens * bank.h1);
    moeFfnForward(x.data(), rs, counting, tokens, bank.h1, bank.h2,
                  out.data());
    EXPECT_EQ(calls[2], 0);
    EXPECT_TRUE(bitwiseEqual(out, perTokenMoe(bank, x, rs)));
}

TEST(MoeFfn, AllTokensOnOneExpert)
{
    ExpertBank bank(24, 40, 4, 41);
    const std::size_t tokens = 33;
    std::vector<float> x = randomActivations(tokens, bank.h1, 42);
    std::vector<TokenRouting> rs(tokens);
    for (auto &r : rs) {
        r.experts = {3};
        r.weights = {1.0f};
    }
    std::vector<float> out(tokens * bank.h1);
    moeFfnForward(x.data(), rs, bank.resolver(), tokens, bank.h1,
                  bank.h2, out.data());
    EXPECT_TRUE(bitwiseEqual(out, perTokenMoe(bank, x, rs)));
}

TEST(MoeFfn, PoolMatchesSerialBitwise)
{
    ExpertBank bank(32, 48, 8, 51);
    const std::size_t tokens = 48;
    std::vector<float> x = randomActivations(tokens, bank.h1, 52);
    std::vector<TokenRouting> rs = randomRouting(tokens, 8, 2, 53);
    std::vector<float> serial(tokens * bank.h1), pooled(tokens * bank.h1);
    moeFfnForward(x.data(), rs, bank.resolver(), tokens, bank.h1,
                  bank.h2, serial.data());
    ThreadPool pool(3);
    moeFfnForward(x.data(), rs, bank.resolver(), tokens, bank.h1,
                  bank.h2, pooled.data(), &pool);
    EXPECT_TRUE(bitwiseEqual(serial, pooled));
    EXPECT_TRUE(bitwiseEqual(serial, perTokenMoe(bank, x, rs)));
}

TEST(MoeFfn, ResolverCalledOncePerDistinctExpert)
{
    // The weight-read property the perf model's min(ne, tokens * k)
    // expert term assumes: one resolve (one weight read) per distinct
    // routed expert per call, not one per (token, choice).
    ExpertBank bank(16, 24, 8, 61);
    ThreadPool pool(3);
    for (std::size_t tokens : {1u, 2u, 5u, 32u}) {
        for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
            std::vector<float> x = randomActivations(tokens, bank.h1, 62);
            std::vector<TokenRouting> rs =
                randomRouting(tokens, 8, 2, 63 + tokens);
            std::set<int> distinct;
            for (const auto &r : rs)
                distinct.insert(r.experts.begin(), r.experts.end());
            Mutex mu;
            std::map<int, int> calls;
            ExpertResolver base = bank.resolver();
            ExpertResolver counting = [&](int e) {
                MutexLock lk(mu);
                ++calls[e];
                return base(e);
            };
            std::vector<float> out(tokens * bank.h1);
            moeFfnForward(x.data(), rs, counting, tokens, bank.h1,
                          bank.h2, out.data(), p);
            EXPECT_EQ(calls.size(), distinct.size()) << tokens;
            for (auto [e, n] : calls)
                EXPECT_EQ(n, 1) << "expert " << e << ", " << tokens
                                << " tokens";
        }
    }
}

TEST(MoeFfn, NullResolverPanics)
{
    std::vector<float> x(4), out(4);
    TokenRouting r;
    r.experts = {0};
    r.weights = {1.0f};
    auto bad = [](int) { return ExpertWeights{}; };
    EXPECT_THROW(
        moeFfnForward(x.data(), {&r, 1}, bad, 1, 4, 8, out.data()),
        PanicError);
}

TEST(MoeFfn, RoutingSizeMismatchPanics)
{
    ExpertBank bank(4, 8, 2, 1);
    std::vector<float> x(8), out(8);
    TokenRouting r;
    r.experts = {0};
    r.weights = {1.0f};
    EXPECT_THROW(moeFfnForward(x.data(), {&r, 1}, bank.resolver(), 2, 4,
                               8, out.data()),
                 PanicError);
}

} // namespace
} // namespace moelight
