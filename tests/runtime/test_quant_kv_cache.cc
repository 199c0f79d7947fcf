/**
 * KvCache under the int8/int4 codecs, at the attention kernels: a
 * quantized store's attention stays close to the float codec's, the
 * fused kernel over a zero-copy quant view is bit-identical to the
 * float kernel over the materialized oracle, full pages close while
 * the open page stays exact, and compression approaches the nominal
 * ratio. The codec-independent store cases are in test_kv_cache.cc.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kv_cache_test_util.hh"
#include "runtime/kv_cache.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

using kv_test::cfg;
using kv_test::materialize;
using kv_test::MaterializedView;
using kv_test::randTokenKv;

// ---------------------------------------------------------------------
// Quant codecs: closed pages quantized, read by the fused kernel.
// ---------------------------------------------------------------------

class KvCacheQuant : public ::testing::TestWithParam<QuantKind>
{
};

TEST_P(KvCacheQuant, AttentionCloseToFloatCodec)
{
    ModelConfig c = cfg();
    KvCache qkv(c, 1, 4, GetParam());
    KvCache fkv(c, 1, 4, std::nullopt);
    Rng rng(7);

    for (int t = 0; t < 11; ++t) {  // 2 closed pages + open page
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        qkv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
        fkv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
    }
    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));

    MaterializedView qs;
    KvViewStorage fs;
    materialize(qkv.makeQuantView(SeqId(0), LayerIdx(2)), qs);
    fkv.makeView(SeqId(0), LayerIdx(2), fs);
    ASSERT_EQ(qs.view.contextLen, fs.view.contextLen);

    std::vector<float> out_q(q.size()), out_f(q.size());
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    gqaDecodeAttention(q.data(), c.nq, qs.view, out_q.data(), scale);
    gqaDecodeAttention(q.data(), c.nq, fs.view, out_f.data(), scale);
    float tol = GetParam() == QuantKind::Int8 ? 0.02f : 0.2f;
    for (std::size_t i = 0; i < out_q.size(); ++i)
        EXPECT_NEAR(out_q[i], out_f[i], tol) << i;
}

TEST_P(KvCacheQuant, FusedOverQuantViewMatchesMaterializedView)
{
    // The zero-copy quantized view through the fused kernel must be
    // bit-identical to the materialized view + float kernel — the
    // golden cross-check pairing the runtime relies on.
    ModelConfig c = cfg();
    KvCache kv(c, 1, 4, GetParam());
    Rng rng(29);
    for (int t = 0; t < 11; ++t) {  // 2 closed pages + 3 open tokens
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        kv.append(SeqId(0), LayerIdx(1), k.data(), v.data());
    }
    QuantKvView qv = kv.makeQuantView(SeqId(0), LayerIdx(1));
    EXPECT_EQ(qv.kPages.size(), 2u);
    EXPECT_EQ(qv.openTokens, 3u);
    EXPECT_EQ(qv.contextLen, 11u);

    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> out_fused(q.size()), out_mat(q.size());
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    gqaDecodeAttentionQuantFused(q.data(), c.nq, qv, out_fused.data(),
                                 scale);
    MaterializedView s;
    materialize(qv, s);
    gqaDecodeAttention(q.data(), c.nq, s.view, out_mat.data(), scale);
    for (std::size_t i = 0; i < out_fused.size(); ++i)
        EXPECT_EQ(out_fused[i], out_mat[i]) << i;
}

TEST_P(KvCacheQuant, FullPagesCloseAndOpenPageIsExact)
{
    // Tokens still in the open (float) page are exact; a page that
    // fills is closed, so a page-aligned stream has no open page.
    ModelConfig c = cfg();
    KvCache kv(c, 1, 8, GetParam());
    Rng rng(11);
    auto k = randTokenKv(rng);
    auto v = randTokenKv(rng);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    MaterializedView s;
    materialize(kv.makeQuantView(SeqId(0), LayerIdx(0)), s);
    for (std::size_t h = 0; h < c.nkv; ++h)
        for (std::size_t d = 0; d < c.headDim; ++d) {
            EXPECT_EQ(s.view.kAt(0, h)[d], k[h * c.headDim + d]);
            EXPECT_EQ(s.view.vAt(0, h)[d], v[h * c.headDim + d]);
        }
    for (int t = 1; t < 8; ++t)
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    QuantKvView qv = kv.makeQuantView(SeqId(0), LayerIdx(0));
    EXPECT_EQ(qv.kPages.size(), 1u);
    EXPECT_EQ(qv.openTokens, 0u);
    EXPECT_EQ(qv.openK, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Kinds, KvCacheQuant,
                         ::testing::Values(QuantKind::Int8,
                                           QuantKind::Int4));

TEST(KvCacheQuantRatio, CompressionApproachesNominalRatio)
{
    ModelConfig c = cfg();
    KvCache kv8(c, 1, 4, QuantKind::Int8);
    KvCache kv4(c, 1, 4, QuantKind::Int4);
    KvCache kvf(c, 1, 4, std::nullopt);
    Rng rng(9);
    for (int t = 0; t < 64; ++t) {  // all pages closed
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        kv8.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        kv4.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        kvf.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    }
    double r8 = static_cast<double>(kv8.storedBytes()) /
                static_cast<double>(kv8.equivalentFloatBytes());
    double r4 = static_cast<double>(kv4.storedBytes()) /
                static_cast<double>(kv4.equivalentFloatBytes());
    // int8: 1 byte payload + scale overhead vs 4 bytes.
    EXPECT_LT(r8, 0.40);
    EXPECT_GT(r8, 0.24);
    // int4: half a byte + scale overhead.
    EXPECT_LT(r4, 0.30);
    EXPECT_GT(r4, 0.12);
    EXPECT_LT(r4, r8);
    // The float codec stores exactly its float equivalent.
    EXPECT_EQ(kvf.storedBytes(), kvf.equivalentFloatBytes());
}

TEST(KvCacheQuantRatio, OddHeadDimInt8Constructs)
{
    // Regression: the constructor used to reject odd headDim for
    // *both* kinds; only int4's nibble packing needs it even.
    ModelConfig c = cfg();
    c.headDim = 7;
    KvCache kv(c, 1, 4, QuantKind::Int8);
    Rng rng(13);
    std::size_t tok_floats = c.nkv * c.headDim;
    for (int t = 0; t < 6; ++t) {  // one closed page + open tokens
        auto k = randTokenKv(rng, tok_floats);
        auto v = randTokenKv(rng, tok_floats);
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    }
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(0)), 6u);

    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> out_fused(q.size()), out_mat(q.size());
    QuantKvView qv = kv.makeQuantView(SeqId(0), LayerIdx(0));
    gqaDecodeAttentionQuantFused(q.data(), c.nq, qv, out_fused.data(),
                                 0.35f);
    MaterializedView s;
    materialize(qv, s);
    gqaDecodeAttention(q.data(), c.nq, s.view, out_mat.data(), 0.35f);
    for (std::size_t i = 0; i < out_fused.size(); ++i)
        EXPECT_EQ(out_fused[i], out_mat[i]) << i;

    // int4 still rejects an odd headDim (two nibbles per byte); float
    // takes any.
    EXPECT_THROW(KvCache(c, 1, 4, QuantKind::Int4), FatalError);
    EXPECT_NO_THROW(KvCache(c, 1, 4, std::nullopt));
}

} // namespace
} // namespace moelight
