/**
 * Golden tests for the fused quantized GQA decode attention kernel
 * (mirroring test_kernel_golden.cc for the float kernels): the fused
 * path must be bit-identical to dequantize-then-float-attend — the
 * retained materializing path plays the moelight::naive role — and
 * within QuantizedBuffer::errorBound of float attention over the
 * original values, across int8/int4, GQA groups 1/4/8, partial tail
 * pages, float open pages, and page layouts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/quant.hh"
#include "kernels/simd/simd.hh"

namespace moelight {
namespace {

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

struct QuantAttnShape
{
    std::size_t nq, nkv, hd, pageTokens;
    /** Tokens stored quantized (full pages + possibly partial tail;
     *  when openTokens > 0 this is a multiple of pageTokens, the
     *  invariant a quantized KvCache maintains). */
    std::size_t quantTokens;
    /** Tokens in the trailing float open page. */
    std::size_t openTokens;
};

/**
 * Builds one sequence's quantized KV state from a random float
 * source: quantized pages over the first quantTokens (group = one
 * token-head row, as the cache quantizes) plus a float open tail.
 */
struct QuantKvFixture
{
    std::vector<float> kSrc, vSrc;
    std::vector<QuantizedBuffer> kq, vq;
    std::vector<const QuantizedBuffer *> kqp, vqp;
    QuantKvView view;

    QuantKvFixture(const QuantAttnShape &s, QuantKind kind,
                   std::uint64_t seed, std::size_t pageTokens)
    {
        std::size_t total = s.quantTokens + s.openTokens;
        std::size_t row = s.nkv * s.hd;
        kSrc = randomVec(total * row, seed);
        vSrc = randomVec(total * row, seed + 1);
        for (std::size_t t = 0; t < s.quantTokens;) {
            std::size_t run = std::min(pageTokens, s.quantTokens - t);
            kq.emplace_back(
                std::span<const float>(kSrc.data() + t * row,
                                       run * row),
                kind, s.hd);
            vq.emplace_back(
                std::span<const float>(vSrc.data() + t * row,
                                       run * row),
                kind, s.hd);
            t += run;
        }
        // Pointer lists after the buffers stop growing (the view
        // references pages by pointer, as the paged cache hands them
        // out).
        for (const QuantizedBuffer &b : kq)
            kqp.push_back(&b);
        for (const QuantizedBuffer &b : vq)
            vqp.push_back(&b);
        view.kPages = kqp;
        view.vPages = vqp;
        if (s.openTokens > 0) {
            view.openK = kSrc.data() + s.quantTokens * row;
            view.openV = vSrc.data() + s.quantTokens * row;
            view.openTokens = s.openTokens;
        }
        view.pageTokens = pageTokens;
        view.contextLen = total;
        view.nKv = s.nkv;
        view.headDim = s.hd;
    }
};

/**
 * Materialize the golden float equivalent of a QuantKvView —
 * dequantized pages plus the open floats — and run the float kernel
 * over it. This is exactly what the pre-fusion runtime did per call.
 */
std::vector<float>
materializedAttention(const float *q, std::size_t nQ,
                      const QuantKvFixture &fx, float scale)
{
    const QuantKvView &v = fx.view;
    std::vector<std::vector<float>> pages;
    pages.reserve(v.kPages.size() + v.vPages.size());
    std::vector<const float *> kp, vp;
    for (std::size_t p = 0; p < v.kPages.size(); ++p) {
        auto &kbuf = pages.emplace_back(v.kPages[p]->size());
        v.kPages[p]->dequantize(kbuf);
        kp.push_back(kbuf.data());
    }
    for (std::size_t p = 0; p < v.vPages.size(); ++p) {
        auto &vbuf = pages.emplace_back(v.vPages[p]->size());
        v.vPages[p]->dequantize(vbuf);
        vp.push_back(vbuf.data());
    }
    if (v.openTokens > 0) {
        kp.push_back(v.openK);
        vp.push_back(v.openV);
    }
    KvView fv;
    fv.kPages = kp;
    fv.vPages = vp;
    fv.pageTokens = v.pageTokens;
    fv.contextLen = v.contextLen;
    fv.nKv = v.nKv;
    fv.headDim = v.headDim;
    std::vector<float> out(nQ * v.headDim);
    gqaDecodeAttention(q, nQ, fv, out.data(), scale);
    return out;
}

class QuantAttnGolden
    : public ::testing::TestWithParam<
          std::tuple<QuantKind, QuantAttnShape>>
{
};

TEST_P(QuantAttnGolden, FusedBitIdenticalToMaterialized)
{
    auto [kind, s] = GetParam();
    QuantKvFixture fx(s, kind, s.quantTokens * 37 + s.nq,
                      s.pageTokens);
    auto q = randomVec(s.nq * s.hd, s.hd + 5);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));

    std::vector<float> fused(s.nq * s.hd);
    gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                 fused.data(), scale);
    auto golden = materializedAttention(q.data(), s.nq, fx, scale);
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused[i], golden[i]) << "at " << i;
}

TEST_P(QuantAttnGolden, FusedMatchesMaterializingKernel)
{
    // The retained kernel-level materializing path (which handles
    // quantized pages only) must agree bit-for-bit with the fused
    // kernel, including over a partial tail page.
    auto [kind, s] = GetParam();
    if (s.openTokens > 0)
        GTEST_SKIP() << "materializing kernel takes no open page";
    QuantKvFixture fx(s, kind, s.quantTokens * 11 + 3, s.pageTokens);
    auto q = randomVec(s.nq * s.hd, s.hd + 9);
    float scale = 0.3f;

    std::vector<float> fused(s.nq * s.hd), mat(s.nq * s.hd);
    gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                 fused.data(), scale);
    gqaDecodeAttentionQuant(q.data(), s.nq, fx.kqp, fx.vqp,
                            s.pageTokens, fx.view.contextLen, s.nkv,
                            s.hd, mat.data(), scale);
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused[i], mat[i]) << "at " << i;
}

TEST_P(QuantAttnGolden, FusedWithinQuantErrorOfFloat)
{
    auto [kind, s] = GetParam();
    QuantKvFixture fx(s, kind, s.quantTokens * 13 + 1, s.pageTokens);
    auto q = randomVec(s.nq * s.hd, s.hd + 2);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));

    std::vector<float> fused(s.nq * s.hd), ref(s.nq * s.hd);
    gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                 fused.data(), scale);
    const float *kp = fx.kSrc.data();
    const float *vp = fx.vSrc.data();
    KvView fv;
    fv.kPages = {&kp, 1};
    fv.vPages = {&vp, 1};
    fv.pageTokens = fx.view.contextLen;
    fv.contextLen = fx.view.contextLen;
    fv.nKv = s.nkv;
    fv.headDim = s.hd;
    gqaDecodeAttention(q.data(), s.nq, fv, ref.data(), scale);
    // Attention output is a convex combination of V rows, so its
    // error is bounded by the per-element V quant error plus the
    // softmax's sensitivity to the K quant error; a small multiple
    // of errorBound(|x|<=1) covers both comfortably.
    float tol = 4.0f * static_cast<float>(
                           QuantizedBuffer::errorBound(kind, 1.0));
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_NEAR(fused[i], ref[i], tol) << "at " << i;
}

TEST_P(QuantAttnGolden, FusedBitIndependentOfPageLayout)
{
    // Quant groups are per token-head row, so re-paging the same
    // source produces identical quantized values; the fused kernel's
    // global 4-blocked V fold must then give bit-identical output
    // for any page geometry (the property the float kernel
    // guarantees, preserved through fusion).
    auto [kind, s] = GetParam();
    if (s.openTokens > 0)
        GTEST_SKIP() << "layout sweep over fully quantized views";
    auto q = randomVec(s.nq * s.hd, 81);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));
    std::vector<float> ref;
    for (std::size_t page_tokens :
         {s.quantTokens, std::size_t{1}, std::size_t{3},
          std::size_t{6}, s.pageTokens}) {
        QuantKvFixture fx(s, kind, 55, page_tokens);
        std::vector<float> out(s.nq * s.hd);
        gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                     out.data(), scale);
        if (ref.empty()) {
            ref = out;
            continue;
        }
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], ref[i])
                << "pageTokens=" << page_tokens << " at " << i;
    }
}

TEST_P(QuantAttnGolden, BatchWithPoolBitIdenticalToSerial)
{
    auto [kind, s] = GetParam();
    std::size_t batch = 5;
    std::vector<QuantKvFixture> fxs;
    fxs.reserve(batch);
    std::vector<QuantKvView> views;
    for (std::size_t t = 0; t < batch; ++t) {
        QuantAttnShape st = s;
        // Vary context; keep the cache invariant (open page only
        // behind full pages).
        st.quantTokens = std::max<std::size_t>(
            1, (s.quantTokens * (t + 1)) / batch);
        if (st.openTokens > 0)
            st.quantTokens =
                (st.quantTokens / s.pageTokens) * s.pageTokens;
        if (st.quantTokens + st.openTokens == 0)
            st.openTokens = 1;
        fxs.emplace_back(st, kind, t * 19 + 2, s.pageTokens);
        views.push_back(fxs.back().view);
    }
    auto q = randomVec(batch * s.nq * s.hd, 23);
    std::vector<float> serial(batch * s.nq * s.hd),
        pooled(batch * s.nq * s.hd);
    gqaDecodeAttentionQuantBatch(q.data(), s.nq * s.hd, s.nq, views,
                                 serial.data(), s.nq * s.hd, 0.25f,
                                 nullptr);
    ThreadPool pool(3);
    gqaDecodeAttentionQuantBatch(q.data(), s.nq * s.hd, s.nq, views,
                                 pooled.data(), s.nq * s.hd, 0.25f,
                                 &pool);
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i]) << "at " << i;
}

// Groups 1, 4, 8; partial quantized tail pages, float open pages,
// an open-page-only view, and exact page multiples. headDims are
// even so every shape also runs under int4.
INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantAttnGolden,
    ::testing::Combine(
        ::testing::Values(QuantKind::Int8, QuantKind::Int4),
        ::testing::Values(
            QuantAttnShape{4, 4, 8, 4, 5, 0},    // group 1, tail
            QuantAttnShape{8, 2, 32, 16, 33, 0}, // group 4, tail
            QuantAttnShape{8, 1, 16, 4, 17, 0},  // group 8, tail
            QuantAttnShape{8, 2, 12, 8, 16, 3},  // open page
            QuantAttnShape{12, 3, 8, 3, 9, 2},   // open, odd groups
            QuantAttnShape{4, 2, 6, 4, 0, 3},    // open page only
            QuantAttnShape{8, 2, 32, 16, 64, 0})));  // exact pages

TEST(QuantAttnFused, OddHeadDimInt8)
{
    // int8 has no packing constraint, so an odd headDim (odd quant
    // group) must flow through the fused kernel end to end.
    QuantAttnShape s{4, 2, 7, 4, 8, 2};
    QuantKvFixture fx(s, QuantKind::Int8, 3, s.pageTokens);
    auto q = randomVec(s.nq * s.hd, 4);
    std::vector<float> fused(s.nq * s.hd);
    gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                 fused.data(), 0.4f);
    auto golden = materializedAttention(q.data(), s.nq, fx, 0.4f);
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused[i], golden[i]) << "at " << i;
}

TEST(QuantAttnFused, RejectsBadViews)
{
    QuantAttnShape s{4, 2, 8, 4, 8, 0};
    QuantKvFixture fx(s, QuantKind::Int8, 9, s.pageTokens);
    auto q = randomVec(s.nq * s.hd, 10);
    std::vector<float> out(s.nq * s.hd);

    QuantKvView v = fx.view;
    v.contextLen = 9;  // pages hold 8 tokens, no open page
    EXPECT_THROW(gqaDecodeAttentionQuantFused(q.data(), s.nq, v,
                                              out.data(), 1.0f),
                 PanicError);
    v = fx.view;
    v.openTokens = 1;  // claims open tokens without an open page
    v.contextLen = 9;
    EXPECT_THROW(gqaDecodeAttentionQuantFused(q.data(), s.nq, v,
                                              out.data(), 1.0f),
                 PanicError);
}

// ------------------------------------------------------- prefill

struct QuantPrefillShape
{
    std::size_t nq, nkv, hd, pageTokens, seq;
};

/**
 * The per-token fused decode walk the prefill kernel must replay
 * bit-for-bit: position i attends over the view the cache held right
 * after appending token i (quantPrefillWalkView).
 */
std::vector<float>
perTokenDecodeWalk(const float *q, std::size_t nQ,
                   const QuantKvFixture &fx, std::size_t seq,
                   float scale)
{
    std::size_t hd = fx.view.headDim;
    std::vector<float> out(seq * nQ * hd);
    for (std::size_t i = 0; i < seq; ++i)
        gqaDecodeAttentionQuantFused(
            q + i * nQ * hd, nQ,
            quantPrefillWalkView(fx.view, fx.kSrc.data(),
                                 fx.vSrc.data(), i),
            out.data() + i * nQ * hd, scale);
    return out;
}

class QuantPrefillGolden
    : public ::testing::TestWithParam<
          std::tuple<QuantKind, QuantPrefillShape>>
{
  protected:
    /** Cache-walk fixture: seq/pageTokens closed full pages, the
     *  remaining seq%pageTokens tokens open. */
    static QuantAttnShape
    walkShape(const QuantPrefillShape &s)
    {
        return {s.nq, s.nkv, s.hd, s.pageTokens,
                (s.seq / s.pageTokens) * s.pageTokens,
                s.seq % s.pageTokens};
    }
};

TEST_P(QuantPrefillGolden, FusedBitIdenticalToPerTokenDecodeWalk)
{
    auto [kind, s] = GetParam();
    QuantKvFixture fx(walkShape(s), kind, s.seq * 41 + s.nq,
                      s.pageTokens);
    auto q = randomVec(s.seq * s.nq * s.hd, s.hd + 7);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));

    std::vector<float> fused(s.seq * s.nq * s.hd);
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, fused.data(), scale);
    auto walk = perTokenDecodeWalk(q.data(), s.nq, fx, s.seq, scale);
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused[i], walk[i]) << "at " << i;
}

TEST_P(QuantPrefillGolden, FusedWithExplicitScratchMatches)
{
    auto [kind, s] = GetParam();
    QuantKvFixture fx(walkShape(s), kind, s.seq * 17 + 5,
                      s.pageTokens);
    auto q = randomVec(s.seq * s.nq * s.hd, s.hd + 11);
    float scale = 0.4f;

    std::vector<float> a(s.seq * s.nq * s.hd),
        b(s.seq * s.nq * s.hd);
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, a.data(), scale);
    std::vector<float> scratch(
        gqaQuantPrefillAttnScratchFloats(s.nq, s.nkv, s.seq, s.hd,
                                         s.pageTokens),
        -7.0f);  // poison: the kernel must overwrite what it reads
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, b.data(), scale, scratch);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "at " << i;
}

TEST_P(QuantPrefillGolden, FusedWithinQuantErrorOfFloatPrefill)
{
    auto [kind, s] = GetParam();
    QuantKvFixture fx(walkShape(s), kind, s.seq * 29 + 3,
                      s.pageTokens);
    auto q = randomVec(s.seq * s.nq * s.hd, s.hd + 13);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));

    std::vector<float> fused(s.seq * s.nq * s.hd),
        ref(s.seq * s.nq * s.hd);
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, fused.data(), scale);
    gqaPrefillAttention(q.data(), fx.kSrc.data(), fx.vSrc.data(),
                        s.seq, s.nq, s.nkv, s.hd, ref.data(), scale);
    float tol = 4.0f * static_cast<float>(
                           QuantizedBuffer::errorBound(kind, 1.0));
    for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_NEAR(fused[i], ref[i], tol) << "at " << i;
}

TEST_P(QuantPrefillGolden, PooledBitIdenticalToSerial)
{
    // KV heads fan across the attention pool inside the fused
    // prefill kernel (the engine's pool idles during prefill
    // otherwise); per-head arithmetic is untouched, so the pooled
    // walk must be bit-identical to the serial one.
    auto [kind, s] = GetParam();
    QuantKvFixture fx(walkShape(s), kind, s.seq * 53 + 7,
                      s.pageTokens);
    auto q = randomVec(s.seq * s.nq * s.hd, s.hd + 17);
    float scale = 1.0f / std::sqrt(static_cast<float>(s.hd));

    std::vector<float> serial(s.seq * s.nq * s.hd),
        pooled(s.seq * s.nq * s.hd);
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, serial.data(), scale);
    ThreadPool pool(3);
    gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                  fx.vSrc.data(), s.seq, s.nq,
                                  fx.view, pooled.data(), scale, {},
                                  &pool);
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i]) << "at " << i;
}

// Prompt lengths that straddle page boundaries (one token past, one
// short of), exactly fill pages, fit inside one page, and land mid-
// page, across GQA groups 1/4/8. headDims even so int4 runs too.
INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantPrefillGolden,
    ::testing::Combine(
        ::testing::Values(QuantKind::Int8, QuantKind::Int4),
        ::testing::Values(
            QuantPrefillShape{8, 2, 32, 16, 33},  // one past boundary
            QuantPrefillShape{8, 2, 32, 16, 31},  // one short
            QuantPrefillShape{8, 2, 16, 8, 32},   // exactly 4 pages
            QuantPrefillShape{4, 4, 8, 4, 4},     // exactly 1 page
            QuantPrefillShape{8, 1, 16, 8, 5},    // inside 1st page
            QuantPrefillShape{12, 3, 8, 3, 11},   // odd groups, mid
            QuantPrefillShape{4, 2, 6, 4, 1})));  // single token

TEST(QuantPrefillFused, RejectsNonWalkViews)
{
    // A partial closed tail page cannot arise from a causal append
    // walk (the remainder stays in the float open page), so the
    // prefill kernel must reject it instead of silently replaying a
    // state the cache never held.
    QuantAttnShape s{4, 2, 8, 4, 6, 0};  // tail page holds 2 of 4
    QuantKvFixture fx(s, QuantKind::Int8, 13, s.pageTokens);
    auto q = randomVec(6 * s.nq * s.hd, 14);
    std::vector<float> out(6 * s.nq * s.hd);
    EXPECT_THROW(gqaPrefillAttentionQuantFused(
                     q.data(), fx.kSrc.data(), fx.vSrc.data(), 6,
                     s.nq, fx.view, out.data(), 1.0f),
                 PanicError);

    // Sequence length must match the view's context exactly.
    QuantAttnShape s2{4, 2, 8, 4, 8, 1};
    QuantKvFixture fx2(s2, QuantKind::Int8, 15, s2.pageTokens);
    auto q2 = randomVec(8 * s2.nq * s2.hd, 16);
    std::vector<float> out2(8 * s2.nq * s2.hd);
    EXPECT_THROW(gqaPrefillAttentionQuantFused(
                     q2.data(), fx2.kSrc.data(), fx2.vSrc.data(), 8,
                     s2.nq, fx2.view, out2.data(), 1.0f),
                 PanicError);
}

// ---------------------------------------------- SIMD backend matrix
//
// The quant kernels' EXPECT_EQ guarantees are within-backend; force
// each runnable backend in-process and re-pin them, plus the one
// property that holds across ALL backends: dequantization computes
// scale * float(q) per element (one exact conversion, one multiply),
// so its output is bit-identical whatever the vector width.

class QuantSimdBackendMatrix
    : public ::testing::TestWithParam<simd::Isa>
{
};

TEST_P(QuantSimdBackendMatrix, FusedBitIdenticalToMaterialized)
{
    simd::ScopedIsa backend(GetParam());
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Int4}) {
        QuantAttnShape s{8, 2, 32, 16, 33, 0};
        QuantKvFixture fx(s, kind, 111, s.pageTokens);
        auto q = randomVec(s.nq * s.hd, 112);
        std::vector<float> fused(s.nq * s.hd);
        gqaDecodeAttentionQuantFused(q.data(), s.nq, fx.view,
                                     fused.data(), 0.25f);
        auto golden = materializedAttention(q.data(), s.nq, fx, 0.25f);
        for (std::size_t i = 0; i < fused.size(); ++i)
            EXPECT_EQ(fused[i], golden[i]) << "at " << i;
    }
}

TEST_P(QuantSimdBackendMatrix, PrefillBitIdenticalToDecodeWalk)
{
    simd::ScopedIsa backend(GetParam());
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Int4}) {
        std::size_t seq = 21, page_tokens = 8;
        QuantAttnShape s{8, 2, 16, page_tokens,
                         (seq / page_tokens) * page_tokens,
                         seq % page_tokens};
        QuantKvFixture fx(s, kind, 121, page_tokens);
        auto q = randomVec(seq * s.nq * s.hd, 122);
        std::vector<float> fused(seq * s.nq * s.hd);
        gqaPrefillAttentionQuantFused(q.data(), fx.kSrc.data(),
                                      fx.vSrc.data(), seq, s.nq,
                                      fx.view, fused.data(), 0.25f);
        auto walk = perTokenDecodeWalk(q.data(), s.nq, fx, seq,
                                       0.25f);
        for (std::size_t i = 0; i < fused.size(); ++i)
            EXPECT_EQ(fused[i], walk[i]) << "at " << i;
    }
}

TEST_P(QuantSimdBackendMatrix, DequantBitIdenticalAcrossBackends)
{
    // dequantizeRows / dequantizeRange under this backend vs the
    // portable baseline: EXPECT_EQ, not EXPECT_NEAR — dequant has no
    // reassociation to hide behind.
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Int4}) {
        std::size_t tokens = 7, nkv = 3, hd = 16;
        std::size_t row = nkv * hd;
        auto src = randomVec(tokens * row, 131);
        QuantizedBuffer buf(src, kind, hd);
        std::vector<float> base(tokens * hd), out(tokens * hd);
        std::vector<float> base_r(2 * hd), out_r(2 * hd);
        {
            simd::ScopedIsa portable(simd::Isa::Portable);
            buf.dequantizeRows(hd, row, tokens, hd, base.data());
            buf.dequantizeRange(row, 2 * hd, base_r);
        }
        {
            simd::ScopedIsa backend(GetParam());
            buf.dequantizeRows(hd, row, tokens, hd, out.data());
            buf.dequantizeRange(row, 2 * hd, out_r);
        }
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], base[i]) << "rows at " << i;
        for (std::size_t i = 0; i < out_r.size(); ++i)
            EXPECT_EQ(out_r[i], base_r[i]) << "range at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RunnableBackends, QuantSimdBackendMatrix,
    ::testing::ValuesIn(simd::runnableIsas()),
    [](const ::testing::TestParamInfo<simd::Isa> &info) {
        return simd::isaName(info.param);
    });

TEST(QuantAttnMaterializing, RejectsPartialNonTailPage)
{
    // Only the last quantized page may be partial; a short page in
    // the middle means the caller's paging is broken.
    std::size_t nkv = 2, hd = 8, row = nkv * hd;
    auto src = randomVec(4 * row, 31);
    std::vector<QuantizedBuffer> pages;
    pages.emplace_back(std::span<const float>(src.data(), row),
                       QuantKind::Int8, hd);  // 1 token: partial
    pages.emplace_back(std::span<const float>(src.data(), 2 * row),
                       QuantKind::Int8, hd);  // 2 tokens: full
    std::vector<const QuantizedBuffer *> pp{&pages[0], &pages[1]};
    auto q = randomVec(4 * hd, 32);
    std::vector<float> out(4 * hd);
    EXPECT_THROW(gqaDecodeAttentionQuant(q.data(), 4, pp, pp, 2, 3,
                                         nkv, hd, out.data(), 1.0f),
                 PanicError);
}

} // namespace
} // namespace moelight
