/**
 * Prefix-cache tests, unit and end-to-end. The unit half drives the
 * radix tree over a synthetic-hooked PageTable: lookup semantics
 * (page-granular match, the one-novel-token cap, verified tokens so
 * collisions degrade to misses), insert idempotence, and LRU eviction
 * of exactly the coldest unreferenced leaf. The end-to-end half is
 * the PR's acceptance criterion: PipelinedEngine with the prefix
 * cache ON produces greedy tokens bit-identical (EXPECT_EQ, no
 * tolerance) to a cold cache and to ReferenceEngine, across
 * float/int8/int4 KV, staggered admission, early stop-token
 * retirement, preemption of a sequence sharing cached pages, and a
 * kv.alloc fault injected mid prefix-hit prefill (contained to the
 * one slot, cache stays serviceable).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/fault_injection.hh"
#include "runtime/page_table.hh"
#include "runtime/prefix_cache.hh"
#include "runtime/reference_engine.hh"
#include "runtime/serving.hh"
#include "runtime/status.hh"

#include "engine_test_util.hh"

namespace moelight {
namespace {

// ---------------------------------------------------------------------
// Unit tests: PrefixCache over a synthetic-hooked PageTable.
// ---------------------------------------------------------------------

/** Synthetic block store (same shape as test_page_table's). */
struct FakeStore
{
    std::vector<bool> live;
    std::vector<BlockId> freeIds;
    int allocs = 0, frees = 0;

    PageTableHooks
    hooks()
    {
        return PageTableHooks{
            [this] {
                ++allocs;
                if (!freeIds.empty()) {
                    BlockId id = freeIds.back();
                    freeIds.pop_back();
                    live[id.value()] = true;
                    return id;
                }
                live.push_back(true);
                return BlockId(live.size() - 1);
            },
            [](BlockId, BlockId, std::size_t) {},
            [this](BlockId id) {
                ++frees;
                live[id.value()] = false;
                freeIds.push_back(id);
            },
        };
    }
};

std::vector<int>
iotaPrompt(int start, std::size_t len)
{
    std::vector<int> p(len);
    for (std::size_t i = 0; i < len; ++i)
        p[i] = start + static_cast<int>(i);
    return p;
}

/** Simulate a prefill: append one table token per prompt token. */
void
fakePrefill(PageTable &t, std::size_t seq, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        t.appendToken(SeqId(seq), LayerIdx(0));
}

TEST(PrefixCache, MatchIsPageGranularCappedAndVerified)
{
    FakeStore store;
    PageTable t(4, 1, 4, 256, store.hooks());
    PrefixCache pc(t, /*bytesPerToken=*/8);

    std::vector<int> prompt = iotaPrompt(0, 10);
    fakePrefill(t, 0, prompt.size());
    pc.insert(SeqId(0), prompt);
    EXPECT_EQ(pc.cachedNodes(), 2u) << "two closed pages of 10 tokens";

    // peekMatch: page-granular, capped one token short of the prompt,
    // and side-effect free (no stats, no LRU touch).
    EXPECT_EQ(pc.peekMatch(prompt), 8u);
    std::vector<int> six(prompt.begin(), prompt.begin() + 6);
    EXPECT_EQ(pc.peekMatch(six), 4u);
    std::vector<int> four(prompt.begin(), prompt.begin() + 4);
    EXPECT_EQ(pc.peekMatch(four), 0u)
        << "a full-page prompt must keep one novel token to prefill";
    std::vector<int> divergent = iotaPrompt(500, 10);
    EXPECT_EQ(pc.peekMatch(divergent), 0u);
    // A prompt agreeing with a cached page except one token misses
    // that page: node keys hash tokens but lookups verify them.
    std::vector<int> nearMiss = prompt;
    nearMiss[2] = 999;
    EXPECT_EQ(pc.peekMatch(nearMiss), 0u);
    EXPECT_EQ(pc.stats().lookups, 0u);

    // attach bumps refcounts layer-wide and records the hit.
    EXPECT_EQ(pc.attach(SeqId(1), prompt), 8u);
    EXPECT_EQ(t.streamLen(SeqId(1), LayerIdx(0)), 8u);
    EXPECT_EQ(pc.stats().lookups, 1u);
    EXPECT_EQ(pc.stats().hits, 1u);
    EXPECT_EQ(pc.stats().pagesReused, 2u);
    EXPECT_EQ(pc.stats().bytesPrefillSkipped, 8u * 8u);
    EXPECT_EQ(pc.attach(SeqId(2), divergent), 0u);
    EXPECT_EQ(pc.stats().lookups, 2u);
    EXPECT_EQ(pc.stats().hits, 1u);

    // Cached pages outlive the inserting sequence.
    t.freeSequence(SeqId(0));
    EXPECT_EQ(t.streamLen(SeqId(1), LayerIdx(0)), 8u);
    EXPECT_EQ(t.blockTokens(t.streamBlocks(SeqId(1), LayerIdx(0))[0]), 4u);
}

TEST(PrefixCache, InsertIsIdempotentAndKeepsIncumbentPages)
{
    FakeStore store;
    PageTable t(4, 1, 4, 256, store.hooks());
    PrefixCache pc(t, 8);

    std::vector<int> prompt = iotaPrompt(0, 9);
    fakePrefill(t, 0, prompt.size());
    pc.insert(SeqId(0), prompt);
    EXPECT_EQ(pc.cachedNodes(), 2u);
    EXPECT_EQ(t.pinnedTokens(), 8u);
    pc.insert(SeqId(0), prompt);
    EXPECT_EQ(pc.cachedNodes(), 2u) << "re-insert must not duplicate";
    EXPECT_EQ(t.pinnedTokens(), 8u);

    // A second sequence that prefilled the same prompt into its own
    // private blocks inserts onto the existing nodes: the incumbent
    // blocks stay cached, the newcomer's stay private and die with it.
    fakePrefill(t, 1, prompt.size());
    pc.insert(SeqId(1), prompt);
    EXPECT_EQ(pc.cachedNodes(), 2u);
    EXPECT_EQ(t.pinnedTokens(), 8u);
    t.freeSequence(SeqId(0));
    t.freeSequence(SeqId(1));
    EXPECT_EQ(t.residentBlocks(), 2u) << "only the pinned incumbents";
}

TEST(PrefixCache, LruEvictsColdestUnreferencedLeafFirst)
{
    FakeStore store;
    PageTable t(4, 1, 4, 256, store.hooks());
    PrefixCache pc(t, 8);

    std::vector<int> a = iotaPrompt(0, 9), b = iotaPrompt(100, 9);
    fakePrefill(t, 0, a.size());
    pc.insert(SeqId(0), a);
    fakePrefill(t, 1, b.size());
    pc.insert(SeqId(1), b);
    t.freeSequence(SeqId(0));
    t.freeSequence(SeqId(1));
    ASSERT_EQ(pc.cachedNodes(), 4u);
    ASSERT_EQ(t.residentBlocks(), 4u);

    // Touch chain A (attach is an LRU touch; peekMatch is not), so B
    // is now the coldest.
    EXPECT_EQ(pc.attach(SeqId(2), a), 8u);
    t.freeSequence(SeqId(2));
    EXPECT_EQ(pc.peekMatch(b), 8u);  // no touch

    // Eviction order: B's leaf (deepest cold), B's root, A's leaf,
    // A's root — leaves only, coldest first, physically freeing each.
    std::vector<int> bRoot(b.begin(), b.begin() + 4 + 1);
    EXPECT_TRUE(pc.evictOne());
    EXPECT_EQ(pc.peekMatch(b), 4u) << "B's leaf went first";
    EXPECT_TRUE(pc.evictOne());
    EXPECT_EQ(pc.peekMatch(bRoot), 0u) << "then B's root";
    EXPECT_EQ(pc.peekMatch(a), 8u) << "A untouched";
    EXPECT_EQ(t.residentBlocks(), 2u);
    EXPECT_EQ(pc.stats().pagesEvicted, 2u);

    // A page referenced by a live stream is not evictable: with both
    // of A's pages attached, nothing can go.
    EXPECT_EQ(pc.attach(SeqId(3), a), 8u);
    EXPECT_FALSE(pc.evictOne());
    t.freeSequence(SeqId(3));
    EXPECT_TRUE(pc.evictOne());
    EXPECT_TRUE(pc.evictOne());
    EXPECT_FALSE(pc.evictOne()) << "empty tree has nothing to evict";
    EXPECT_EQ(pc.cachedNodes(), 0u);
    EXPECT_EQ(t.residentBlocks(), 0u);
    EXPECT_EQ(t.pinnedTokens(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end: hot vs cold bit-identity through PipelinedEngine.
// ---------------------------------------------------------------------

std::vector<int>
makePrompt(const ModelConfig &cfg, std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> p;
    for (std::size_t t = 0; t < len; ++t)
        p.push_back(static_cast<int>(rng.uniformInt(
            0, static_cast<std::int64_t>(cfg.vocab) - 1)));
    return p;
}

/** Oracle: serve one request alone through a fresh ReferenceEngine. */
std::vector<int>
referenceTokens(const ModelWeights &w, const ServeRequest &req,
                std::optional<QuantKind> kvQuant = std::nullopt,
                std::size_t kvPageTokens = 16)
{
    ReferenceEngine ref(w, kvQuant, kvPageTokens);
    ref.submit(req);
    std::vector<RequestOutput> out = ref.drain();
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? std::vector<int>{} : out[0].tokens;
}

/** Requests sharing a system prompt: sys + per-request unique tail. */
std::vector<ServeRequest>
sharedPrefixRequests(const ModelConfig &cfg,
                     const std::vector<int> &sys, int n,
                     int maxNewBase)
{
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < n; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = sys;
        std::vector<int> tail = makePrompt(
            cfg, 1 + static_cast<std::size_t>(i) % 3,
            200 + static_cast<std::uint64_t>(i));
        r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        r.maxNewTokens = maxNewBase + i;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** Float KV, hot vs cold vs ReferenceEngine; @p normGains gives the
 *  model non-unit norm gains. */
void
checkHotMatchesColdAndReferenceFloat(bool normGains)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 21);
    if (normGains)
        engine_test::randomizeNormGains(w, 22);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    ec.prefixCache = true;

    std::vector<int> sys = makePrompt(w.cfg, 9, 5);
    std::vector<ServeRequest> reqs =
        sharedPrefixRequests(w.cfg, sys, 5, 3);

    // Cold engine: identical requests, prefix cache off.
    std::map<std::int64_t, std::vector<int>> cold;
    {
        EngineConfig cc = ec;
        cc.prefixCache = false;
        PipelinedEngine eng(w, cc);
        eng.submit(reqs[0]);
        for (auto &o : eng.drain())
            cold[o.id] = std::move(o.tokens);
        for (int i = 1; i < 5; ++i)
            eng.submit(reqs[static_cast<std::size_t>(i)]);
        for (auto &o : eng.drain())
            cold[o.id] = std::move(o.tokens);
    }

    PipelinedEngine eng(w, ec);
    // Warm the cache with one request, then serve the sharers.
    eng.submit(reqs[0]);
    std::vector<RequestOutput> outs = eng.drain();
    for (int i = 1; i < 5; ++i)
        eng.submit(reqs[static_cast<std::size_t>(i)]);
    for (auto &o : eng.drain())
        outs.push_back(std::move(o));

    ASSERT_EQ(outs.size(), reqs.size());
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        EXPECT_EQ(o.tokens, cold[o.id])
            << "request " << o.id << " hot vs cold";
        EXPECT_EQ(o.tokens, referenceTokens(w, r))
            << "request " << o.id << " hot vs reference";
    }

    // The sharers all hit the two cached sys pages; the pages stay
    // resident after every sequence drained, and usage returns to 0.
    PrefixCacheStats st = eng.prefixCacheStats();
    EXPECT_EQ(st.lookups, 5u);
    EXPECT_EQ(st.hits, 4u);
    EXPECT_EQ(st.pagesReused, 4u * 2u * w.cfg.l);
    EXPECT_GT(st.bytesPrefillSkipped, 0u);
    EXPECT_EQ(eng.kvUsedPages(), 0u)
        << "drained engine holds no per-request pages";
    EXPECT_GT(eng.kvCachedPages(), 0u)
        << "cached prefix pages survive the drain";
}

TEST(PrefixServing, HotMatchesColdAndReferenceFloat)
{
    for (bool gains : {false, true}) {
        SCOPED_TRACE(gains ? "non-unit norm gains" : "unit norm gains");
        checkHotMatchesColdAndReferenceFloat(gains);
    }
}

/** (KV codec, non-unit norm gains). */
struct QuantPrefixServing
    : public ::testing::TestWithParam<std::tuple<QuantKind, bool>>
{
};

TEST_P(QuantPrefixServing, StaggeredHotMatchesQuantReference)
{
    auto [kind, gains] = GetParam();
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);
    if (gains)
        engine_test::randomizeNormGains(w, 43);
    std::size_t page_tokens = 4;
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = page_tokens;
    ec.kvQuant = kind;
    ec.maxConcurrency = 4;
    ec.prefixCache = true;
    PipelinedEngine eng(w, ec);

    std::vector<int> sys = makePrompt(w.cfg, 10, 9);
    std::vector<ServeRequest> reqs =
        sharedPrefixRequests(w.cfg, sys, 5, 2);

    // Warm, then staggered admission: sharers join sequences already
    // mid-decode, each attaching the cached quantized pages.
    eng.submit(reqs[0]);
    std::vector<RequestOutput> outs = eng.drain();
    auto collect = [&](std::vector<RequestOutput> v) {
        for (auto &o : v)
            outs.push_back(std::move(o));
    };
    eng.submit(reqs[1]);
    eng.submit(reqs[2]);
    collect(eng.step());
    collect(eng.step());
    eng.submit(reqs[3]);
    eng.submit(reqs[4]);
    collect(eng.drain());

    ASSERT_EQ(outs.size(), reqs.size());
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        EXPECT_EQ(o.tokens, referenceTokens(w, r, kind, page_tokens))
            << "request " << o.id << " (quant hot)";
    }
    EXPECT_GE(eng.prefixCacheStats().hits, 4u);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvCachedPages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, QuantPrefixServing,
    ::testing::Combine(::testing::Values(QuantKind::Int8, QuantKind::Int4),
                       ::testing::Bool()));

TEST(PrefixServing, StopTokenRetiresSharerEarlyBitIdentical)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 17);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    ec.prefixCache = true;
    PipelinedEngine eng(w, ec);

    std::vector<int> sys = makePrompt(w.cfg, 9, 33);
    std::vector<ServeRequest> reqs =
        sharedPrefixRequests(w.cfg, sys, 3, 6);
    // Give request 1 a stop token it will actually sample (its second
    // greedy token), so it retires mid-flight while its prefix
    // sharers keep decoding against the same cached pages.
    std::vector<int> unstopped = referenceTokens(w, reqs[1]);
    ASSERT_GE(unstopped.size(), 2u);
    reqs[1].stopTokens = {unstopped[1]};

    eng.submit(reqs[0]);
    std::vector<RequestOutput> outs = eng.drain();
    eng.submit(reqs[1]);
    eng.submit(reqs[2]);
    for (auto &o : eng.drain())
        outs.push_back(std::move(o));

    ASSERT_EQ(outs.size(), reqs.size());
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        EXPECT_EQ(o.tokens, referenceTokens(w, r))
            << "request " << o.id;
        EXPECT_EQ(o.finishReason, o.id == 1 ? FinishReason::Stop
                                            : FinishReason::Length);
    }
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvCachedPages(), 0u);
}

TEST(PrefixServing, PreemptedSharerReleasesOnlyPrivateTail)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 77);
    EngineConfig ec;
    ec.microBatch = 2;
    // Budget 32 request tokens (128 / 4 layers). The warmed cache
    // pins 8 (two sys pages, charged once globally); two sharers net
    // 12 each (4 novel prompt tokens + 8 generated; exact tokens, and
    // a page multiple, so page-rounding would give the same) fill the
    // rest, so the late arrival (net 8) starves until the
    // engine preempts the youngest sharer — which must release only
    // its private tail, not the pinned prefix.
    ec.maxConcurrency = 4;
    ec.kvPageTokens = 4;
    ec.kvCapacityTokens = 128;
    ec.headAgeLimit = 2;
    ec.prefixCache = true;
    PipelinedEngine eng(w, ec);

    std::vector<int> sys = makePrompt(w.cfg, 10, 61);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = sys;
        if (i > 0) {
            std::vector<int> tail = makePrompt(
                w.cfg, 2, 300 + static_cast<std::uint64_t>(i));
            r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        }
        r.maxNewTokens = i == 0 ? 2 : (i == 3 ? 4 : 8);
        reqs.push_back(std::move(r));
    }

    std::map<std::int64_t, std::vector<int>> want;
    for (const auto &r : reqs)
        want[r.id] = referenceTokens(w, r);

    // Warm with the bare sys prompt, then fill the budget with two
    // sharers and starve the late third until preemption unblocks it.
    eng.submit(reqs[0]);
    std::vector<RequestOutput> outs = eng.drain();
    eng.submit(reqs[1]);
    eng.submit(reqs[2]);
    (void)eng.step();
    eng.submit(reqs[3]);
    for (auto &o : eng.drain())
        outs.push_back(std::move(o));

    ASSERT_EQ(outs.size(), reqs.size());
    EXPECT_GE(eng.preemptions(), 1u)
        << "the aged head must trigger a preemption";
    int preempted = 0;
    for (const auto &o : outs) {
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        EXPECT_EQ(o.tokens, want[o.id])
            << "request " << o.id << " (preempted " << o.preemptions
            << "x) must be bit-identical to an uncontended run";
        preempted += o.preemptions > 0 ? 1 : 0;
    }
    EXPECT_GE(preempted, 1);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvCachedPages(), 0u)
        << "preempting a sharer must not drop the cached prefix";
    EXPECT_GE(eng.prefixCacheStats().hits, 2u);
}

TEST(PrefixServing, AllocFaultDuringPrefixHitContainedToSlot)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 55);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    ec.prefixCache = true;
    PipelinedEngine eng(w, ec);

    std::vector<int> sys = makePrompt(w.cfg, 9, 71);
    std::vector<ServeRequest> reqs =
        sharedPrefixRequests(w.cfg, sys, 4, 3);

    eng.submit(reqs[0]);
    std::vector<RequestOutput> outs = eng.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].finishReason, FinishReason::Length);
    outs.clear();

    // Fault the first page allocation after the warmup: it fires in
    // one sharer's novel-tail prefill, right after that slot attached
    // the cached pages.
    {
        ScopedFault fault("kv.alloc", 1);
        eng.submit(reqs[1]);
        eng.submit(reqs[2]);
        for (auto &o : eng.drain())
            outs.push_back(std::move(o));
        EXPECT_EQ(fault.hits(), 1u);
    }

    ASSERT_EQ(outs.size(), 2u);
    int errored = 0;
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        if (o.finishReason == FinishReason::Error) {
            ++errored;
            EXPECT_FALSE(o.errorMessage.empty());
            EXPECT_NE(o.errorMessage.find("kv.alloc"),
                      std::string::npos);
        } else {
            EXPECT_EQ(o.finishReason, FinishReason::Length);
            EXPECT_EQ(o.tokens, referenceTokens(w, r))
                << "surviving sharer " << o.id;
        }
    }
    EXPECT_EQ(errored, 1) << "exactly one slot absorbs the fault";

    // The faulted slot's attached refs were released; the cached
    // prefix and the engine both stay serviceable.
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvCachedPages(), 0u);
    eng.submit(reqs[3]);
    outs = eng.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].finishReason, FinishReason::Length);
    EXPECT_EQ(outs[0].tokens, referenceTokens(w, reqs[3]));
}

} // namespace
} // namespace moelight
