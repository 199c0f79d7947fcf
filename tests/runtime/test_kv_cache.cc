/**
 * KvCache tests, parameterized over the page codec (float, int8,
 * int4): append/context accounting, lazily allocated pages, token-
 * metered exhaustion, typed free errors, views (float pages read in
 * place; quantized pages checked against the materializing dequantize
 * oracle in kv_cache_test_util.hh), a seeded randomized append /
 * attach / pin / unpin / free / copy-on-write sequence that checks
 * the page table's invariants after every operation, and concurrent
 * allocation against view building (the DtoH-queue / Cpu-queue
 * overlap the engine runs). The quant codecs' kernel-facing cases
 * (fused attention, page closing, compression ratios) are in
 * test_quant_kv_cache.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kv_cache_test_util.hh"
#include "runtime/kv_cache.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

using Codec = std::optional<QuantKind>;
using kv_test::cfg;
using kv_test::materialize;
using kv_test::MaterializedView;
using kv_test::randTokenKv;

/** Token @p t's K (or V) row of (@p seq, @p layer) as the codec's
 *  view presents it: in place for float, dequantized for quant. */
std::vector<float>
viewRow(const KvCache &kv, SeqId seq, LayerIdx layer, std::size_t t,
        bool wantV)
{
    ModelConfig c = cfg();
    std::vector<float> row(c.nkv * c.headDim);
    KvViewStorage fs;
    MaterializedView ms;
    const KvView *view;
    if (kv.codec()) {
        materialize(kv.makeQuantView(seq, layer), ms);
        view = &ms.view;
    } else {
        kv.makeView(seq, layer, fs);
        view = &fs.view;
    }
    for (std::size_t h = 0; h < c.nkv; ++h) {
        const float *src = wantV ? view->vAt(t, h) : view->kAt(t, h);
        std::copy(src, src + c.headDim, row.begin() + h * c.headDim);
    }
    return row;
}

std::string
codecName(const ::testing::TestParamInfo<Codec> &info)
{
    if (!info.param)
        return "Float";
    return *info.param == QuantKind::Int8 ? "Int8" : "Int4";
}

class KvCacheCodec : public ::testing::TestWithParam<Codec>
{
};

TEST_P(KvCacheCodec, AppendGrowsContext)
{
    KvCache kv(cfg(), 2, 4, GetParam());
    Rng rng(1);
    auto k = randTokenKv(rng), v = randTokenKv(rng);
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(1)), 0u);
    for (int t = 0; t < 9; ++t)  // crosses two page boundaries
        kv.append(SeqId(0), LayerIdx(1), k.data(), v.data());
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(1)), 9u);
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(0)), 0u);
    EXPECT_EQ(kv.contextLen(SeqId(1), LayerIdx(1)), 0u);
    EXPECT_EQ(kv.usedTokens(), 9u);
}

TEST_P(KvCacheCodec, PagesAllocatedLazily)
{
    KvCache kv(cfg(), 4, 4, GetParam());
    EXPECT_EQ(kv.usedPages(), 0u);
    std::vector<float> k(16), v(16);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 2u);  // one K page + one V page
    // 3 more tokens fit the same page.
    for (int t = 0; t < 3; ++t)
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 2u);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 4u);
}

TEST_P(KvCacheCodec, FreeSequenceReturnsPages)
{
    KvCache kv(cfg(), 2, 2, GetParam());
    std::vector<float> k(16), v(16);
    for (std::size_t layer = 0; layer < 4; ++layer)
        for (int t = 0; t < 3; ++t)
            kv.append(SeqId(1), LayerIdx(layer), k.data(), v.data());
    EXPECT_GT(kv.usedPages(), 0u);
    EXPECT_GT(kv.storedBytes(), 0u);
    kv.freeSequence(SeqId(1));
    EXPECT_EQ(kv.usedPages(), 0u);
    EXPECT_EQ(kv.usedTokens(), 0u);
    EXPECT_EQ(kv.storedBytes(), 0u);
    EXPECT_EQ(kv.contextLen(SeqId(1), LayerIdx(0)), 0u);
    EXPECT_FALSE(kv.sequenceLive(SeqId(1)));
}

TEST_P(KvCacheCodec, EnforcesTokenCapacity)
{
    // The budget is exact token-layer entries whatever the codec:
    // exceeding it is fatal instead of growing without bound.
    KvCache kv(cfg(), 1, 4, GetParam(), 5);
    std::vector<float> k(16, 0.5f), v(16, 0.5f);
    for (int t = 0; t < 5; ++t)
        kv.append(SeqId(0), LayerIdx(t % 2), k.data(), v.data());
    EXPECT_THROW(kv.append(SeqId(0), LayerIdx(0), k.data(), v.data()),
                 FatalError);
}

TEST_P(KvCacheCodec, ExhaustionIsTypedAndLeavesStateConsistent)
{
    KvCache kv(cfg(), 1, 4, GetParam(), 5);
    std::vector<float> k(16, 0.5f), v(16, 0.5f);
    for (int t = 0; t < 5; ++t)
        kv.append(SeqId(0), LayerIdx(t % 2), k.data(), v.data());
    try {
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        FAIL() << "over budget";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
        EXPECT_EQ(e.site(), "kv.alloc");
    }
    // The capacity check runs before any mutation: no half-written
    // token, the counter did not move, the sequence frees cleanly,
    // and the next append at the budget boundary still succeeds.
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(0)), 3u);
    EXPECT_EQ(kv.usedTokens(), 5u);
    kv.pageTable().checkInvariants();
    kv.freeSequence(SeqId(0));
    EXPECT_EQ(kv.usedTokens(), 0u);
    EXPECT_EQ(kv.usedPages(), 0u);
    for (int t = 0; t < 5; ++t)
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedTokens(), 5u);
}

TEST_P(KvCacheCodec, OutOfRangePanics)
{
    KvCache kv(cfg(), 1, 2, GetParam(), 16);
    std::vector<float> k(16), v(16);
    EXPECT_THROW(kv.append(SeqId(1), LayerIdx(0), k.data(), v.data()),
                 PanicError);
    EXPECT_THROW(kv.append(SeqId(0), LayerIdx(4), k.data(), v.data()),
                 PanicError);
}

TEST_P(KvCacheCodec, FreeSequenceErrorsAreTyped)
{
    KvCache kv(cfg(), 2, 2, GetParam());
    std::vector<float> k(16, 0.25f), v(16, 0.25f);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());

    // Unknown sequence index.
    try {
        kv.freeSequence(SeqId(7));
        FAIL() << "out-of-range seq should throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvInvalidSequence);
        EXPECT_EQ(e.site(), "kv.free");
    }

    // Double free.
    kv.freeSequence(SeqId(0));
    EXPECT_EQ(kv.usedPages(), 0u);
    try {
        kv.freeSequence(SeqId(0));
        FAIL() << "second free should throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvDoubleFree);
        EXPECT_EQ(e.site(), "kv.free");
    }
    // Freeing a never-used sequence is a double free too.
    EXPECT_THROW(kv.freeSequence(SeqId(1)), EngineError);
}

TEST_P(KvCacheCodec, ViewsServeOnlyTheirCodec)
{
    KvCache kv(cfg(), 1, 4, GetParam());
    std::vector<float> k(16), v(16);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    KvViewStorage fs;
    if (GetParam()) {
        EXPECT_THROW(kv.makeView(SeqId(0), LayerIdx(0), fs), PanicError);
        EXPECT_NO_THROW(kv.makeQuantView(SeqId(0), LayerIdx(0)));
    } else {
        EXPECT_THROW(kv.makeQuantView(SeqId(0), LayerIdx(0)), PanicError);
        EXPECT_NO_THROW(kv.makeView(SeqId(0), LayerIdx(0), fs));
    }
}

/**
 * A seeded random mix of append / attachShared / pin / unpin /
 * freeSequence over a small, budgeted store, with a reclaim hook that
 * unpins. Pinning an open tail makes the next append to it copy-on-
 * write. After every operation the page table's invariants hold,
 * float views return exactly the floats appended, and quantized views
 * equal a dequantized oracle built from the same floats.
 */
TEST_P(KvCacheCodec, RandomizedOpsKeepInvariantsAndContents)
{
    ModelConfig c = cfg();
    c.l = 2;
    const std::size_t seqs = 3, pt = 4, row = c.nkv * c.headDim;
    KvCache kv(c, seqs, pt, GetParam(), /*capacityTokens=*/40);
    PageTable &table = kv.pageTable();

    // Shadow: per (seq, layer) stream, the K and V rows appended.
    std::vector<std::vector<float>> wantK(seqs * c.l), wantV(seqs * c.l);
    std::vector<BlockId> pinned;
    table.setReclaimHook([&] {
        if (pinned.empty())
            return false;
        table.unpin(pinned.front());
        pinned.erase(pinned.begin());
        return true;
    });

    // What the codec's view must show for stream @p s: the floats
    // exactly, or each full page quantized then dequantized.
    auto expected = [&](std::size_t s, bool wantValues) {
        std::vector<float> e = wantValues ? wantV[s] : wantK[s];
        if (!GetParam())
            return e;
        std::size_t page_floats = pt * row;
        for (std::size_t off = 0; off + page_floats <= e.size();
             off += page_floats) {
            std::span<float> page(e.data() + off, page_floats);
            QuantizedBuffer(page, *GetParam(), c.headDim)
                .dequantize(page);
        }
        return e;
    };
    auto verify = [&](int op) {
        ASSERT_NO_THROW(table.checkInvariants()) << "after op " << op;
        for (std::size_t s = 0; s < seqs * c.l; ++s) {
            SeqId seq(s / c.l);
            LayerIdx layer(s % c.l);
            std::size_t len = wantK[s].size() / row;
            ASSERT_EQ(kv.contextLen(seq, layer), len) << "op " << op;
            std::vector<float> ek = expected(s, false);
            std::vector<float> ev = expected(s, true);
            for (std::size_t t = 0; t < len; ++t) {
                std::vector<float> gk = viewRow(kv, seq, layer, t, false);
                std::vector<float> gv = viewRow(kv, seq, layer, t, true);
                for (std::size_t i = 0; i < row; ++i) {
                    ASSERT_EQ(gk[i], ek[t * row + i])
                        << "op " << op << " stream " << s << " t " << t;
                    ASSERT_EQ(gv[i], ev[t * row + i])
                        << "op " << op << " stream " << s << " t " << t;
                }
            }
        }
    };

    Rng rng(2024);
    auto pick = [&](std::size_t n) {  // uniform in [0, n)
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    std::size_t appended = 0, exhausted = 0, attaches = 0, copies = 0;
    for (int op = 0; op < 1500; ++op) {
        std::size_t s = pick(seqs * c.l);
        SeqId seq(s / c.l);
        LayerIdx layer(s % c.l);
        std::span<const BlockId> blocks = table.streamBlocks(seq, layer);
        std::size_t kind = pick(10);
        if (kind <= 4) {
            // Append (half of all ops, so streams fill pages).
            auto k = randTokenKv(rng, row), v = randTokenKv(rng, row);
            bool willCopy = false;
            if (wantK[s].size() / row % pt != 0) {
                BlockId tail = blocks.back();
                willCopy = table.blockPins(tail) > 0 ||
                           table.blockStreamRefs(tail) > 1;
            }
            try {
                kv.append(seq, layer, k.data(), v.data());
                wantK[s].insert(wantK[s].end(), k.begin(), k.end());
                wantV[s].insert(wantV[s].end(), v.begin(), v.end());
                ++appended;
                copies += willCopy ? 1 : 0;
            } catch (const EngineError &e) {
                ASSERT_EQ(e.code(), ErrorCode::KvExhausted);
                ++exhausted;
            }
        } else if (kind == 5) {
            // Attach another stream's closed pages to an empty stream
            // of the same layer (a prefix-cache hit).
            std::size_t src = (s + c.l) % (seqs * c.l);
            std::span<const BlockId> from =
                table.streamBlocks(SeqId(src / c.l), layer);
            std::size_t closed = wantK[src].size() / row / pt;
            if (!blocks.empty() || closed == 0)
                continue;
            std::size_t n = 1 + pick(closed);
            std::vector<BlockId> share(from.begin(), from.begin() + n);
            table.attachShared(seq, layer, share);
            wantK[s].assign(wantK[src].begin(),
                            wantK[src].begin() + n * pt * row);
            wantV[s].assign(wantV[src].begin(),
                            wantV[src].begin() + n * pt * row);
            ++attaches;
        } else if (kind <= 7) {
            // Pin a block of this stream; the tail pin sets up a CoW.
            if (blocks.empty())
                continue;
            BlockId b = rng.uniform() < 0.5 ? blocks.back()
                                            : blocks[pick(blocks.size())];
            table.pin(b);
            pinned.push_back(b);
        } else if (kind == 8) {
            if (pinned.empty())
                continue;
            std::size_t i = pick(pinned.size());
            table.unpin(pinned[i]);
            pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            if (!kv.sequenceLive(seq))
                continue;
            kv.freeSequence(seq);
            for (LayerIdx l : IndexRange(LayerIdx(c.l))) {
                wantK[seq.value() * c.l + l.value()].clear();
                wantV[seq.value() * c.l + l.value()].clear();
            }
        }
        verify(op);
        if (HasFatalFailure())
            return;
    }
    // The mix really exercised every path.
    EXPECT_GT(appended, 200u);
    EXPECT_GT(exhausted, 0u);
    EXPECT_GT(attaches, 0u);
    EXPECT_GT(copies, 0u);

    for (BlockId b : pinned)
        table.unpin(b);
    for (SeqId seq : IndexRange(SeqId(seqs)))
        if (kv.sequenceLive(seq))
            kv.freeSequence(seq);
    table.checkInvariants();
    EXPECT_EQ(kv.usedTokens(), 0u);
    EXPECT_EQ(kv.storedBytes(), 0u);
}

/**
 * Block allocation on one thread (the DtoH queue appending KV) runs
 * concurrently with view building over another sequence on a second
 * thread (the Cpu queue's attention): the store's mutex orders the
 * block container, and the viewed sequence's contents never change.
 */
TEST_P(KvCacheCodec, ConcurrentAppendAndViewOfAnotherSequence)
{
    KvCache kv(cfg(), 2, 4, GetParam());
    Rng rng(31);
    std::vector<float> k1 = randTokenKv(rng), v1 = randTokenKv(rng);
    for (int t = 0; t < 10; ++t)
        kv.append(SeqId(1), LayerIdx(0), k1.data(), v1.data());
    std::vector<float> want = viewRow(kv, SeqId(1), LayerIdx(0), 9, true);

    std::thread writer([&] {
        std::vector<float> k(16, 0.5f), v(16, -0.5f);
        for (int t = 0; t < 400; ++t)
            kv.append(SeqId(0), LayerIdx(t % 4), k.data(), v.data());
    });
    for (int i = 0; i < 400; ++i) {
        ASSERT_EQ(kv.contextLen(SeqId(1), LayerIdx(0)), 10u);
        ASSERT_EQ(viewRow(kv, SeqId(1), LayerIdx(0), 9, true), want);
    }
    writer.join();
    EXPECT_EQ(kv.usedTokens(), 410u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, KvCacheCodec,
                         ::testing::Values(Codec{}, Codec{QuantKind::Int8},
                                           Codec{QuantKind::Int4}),
                         codecName);

// ---------------------------------------------------------------------
// Float codec: pages read in place.
// ---------------------------------------------------------------------

TEST(KvCacheFloat, ViewReturnsAppendedValues)
{
    KvCache kv(cfg(), 1, 2, std::nullopt, 64);
    std::vector<float> k(16), v(16);
    Rng rng(3);
    std::vector<std::vector<float>> ks, vs;
    for (int t = 0; t < 5; ++t) {  // crosses page boundary (2/page)
        for (std::size_t i = 0; i < 16; ++i) {
            k[i] = static_cast<float>(rng.uniform(-1, 1));
            v[i] = static_cast<float>(rng.uniform(-1, 1));
        }
        ks.push_back(k);
        vs.push_back(v);
        kv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
    }
    KvViewStorage storage;
    kv.makeView(SeqId(0), LayerIdx(2), storage);
    EXPECT_EQ(storage.view.contextLen, 5u);
    for (std::size_t t = 0; t < 5; ++t)
        for (std::size_t h = 0; h < 2; ++h)
            for (std::size_t d = 0; d < 8; ++d) {
                EXPECT_EQ(storage.view.kAt(t, h)[d],
                          ks[t][h * 8 + d]);
                EXPECT_EQ(storage.view.vAt(t, h)[d],
                          vs[t][h * 8 + d]);
            }
}

TEST(KvCacheFloat, ViewStaysValidWhileItsPageIsOpen)
{
    // The engine's prefill walk builds a view at a page boundary and
    // then only advances contextLen: the open page must not move
    // while appends fill it.
    KvCache kv(cfg(), 1, 4, std::nullopt);
    Rng rng(5);
    std::vector<std::vector<float>> ks;
    KvViewStorage storage;
    for (std::size_t t = 0; t < 4; ++t) {
        ks.push_back(randTokenKv(rng));
        kv.append(SeqId(0), LayerIdx(0), ks[t].data(), ks[t].data());
        if (t == 0)
            kv.makeView(SeqId(0), LayerIdx(0), storage);
        else
            storage.view.contextLen = t + 1;
        for (std::size_t u = 0; u <= t; ++u)
            for (std::size_t i = 0; i < 8; ++i)
                ASSERT_EQ(storage.view.kAt(u, 1)[i], ks[u][8 + i])
                    << "t " << t << " u " << u;
    }
}

} // namespace
} // namespace moelight
