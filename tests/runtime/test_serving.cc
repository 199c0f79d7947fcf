/**
 * Request-level serving API tests: continuous batching in the
 * pipelined engine must match a per-request ReferenceEngine run for
 * mixed generation lengths and staggered admission (the reference
 * serves each request independently, so it is the oracle for any
 * admission schedule), KV pages must provably return to the pool
 * when a request retires early (float and int8/int4 quantized
 * caches), stop tokens must cut requests short, and the
 * ContinuousBatcher's Algorithm 2 admission must respect slots and
 * budget without dropping or reordering deferred work.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/reference_engine.hh"
#include "runtime/serving.hh"

#include "engine_test_util.hh"

namespace moelight {
namespace {

using engine_test::serveAll;

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

TEST(Serving, MixedGenLenMatchesPerRequestReference)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 6; ++i) {
        ServeRequest r;
        r.id = 100 + i;
        r.prompt = makePrompt(w.cfg, 3 + static_cast<std::size_t>(i),
                              static_cast<std::uint64_t>(i) + 1);
        r.maxNewTokens = 1 + 2 * i;  // 1, 3, 5, 7, 9, 11
        reqs.push_back(std::move(r));
    }
    for (const auto &r : reqs)
        eng.submit(r);
    std::vector<RequestOutput> outs = eng.drain();
    ASSERT_EQ(outs.size(), reqs.size());
    EXPECT_EQ(eng.kvUsedPages(), 0u);

    std::map<std::int64_t, std::vector<int>> got;
    for (const auto &o : outs) {
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        got[o.id] = o.tokens;
    }
    for (const auto &r : reqs) {
        ASSERT_TRUE(got.count(r.id)) << "request " << r.id;
        EXPECT_EQ(got[r.id].size(),
                  static_cast<std::size_t>(r.maxNewTokens));
        EXPECT_EQ(got[r.id], referenceTokens(w, r))
            << "request " << r.id;
    }
}

TEST(Serving, StaggeredAdmissionMatchesPerRequestReference)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 7);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    PipelinedEngine eng(w, ec);

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 5; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 4 + static_cast<std::size_t>(i),
                              static_cast<std::uint64_t>(i) + 31);
        r.maxNewTokens = 3 + i;
        reqs.push_back(std::move(r));
    }

    // Submit two, run a couple of rounds, submit two more mid-flight,
    // run, then the last one — requests join sequences already deep
    // in their decode without disturbing them.
    std::vector<RequestOutput> outs;
    auto collect = [&](std::vector<RequestOutput> v) {
        for (auto &o : v)
            outs.push_back(std::move(o));
    };
    eng.submit(reqs[0]);
    eng.submit(reqs[1]);
    collect(eng.step());
    collect(eng.step());
    EXPECT_EQ(eng.activeRequests() + outs.size(), 2u);
    eng.submit(reqs[2]);
    eng.submit(reqs[3]);
    collect(eng.step());
    eng.submit(reqs[4]);
    collect(eng.drain());

    ASSERT_EQ(outs.size(), reqs.size());
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        EXPECT_EQ(o.tokens, referenceTokens(w, r))
            << "request " << o.id;
        EXPECT_GE(o.prefillSeconds, 0.0);
        EXPECT_GE(o.decodeSeconds, 0.0);
    }
}

TEST(Serving, KvPagesFreedOnEarlyFinish)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 9);
    EngineConfig ec;
    ec.microBatch = 4;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);

    // One short-budget request with a long prompt (many pages) plus
    // two long-running requests with short prompts: when the big one
    // retires, the pool must visibly shrink even though the others
    // keep appending.
    ServeRequest big;
    big.id = 1;
    big.prompt = makePrompt(w.cfg, 40, 1);
    big.maxNewTokens = 6;  // retires several rounds in, not round one
    ServeRequest small_a;
    small_a.id = 2;
    small_a.prompt = makePrompt(w.cfg, 4, 2);
    small_a.maxNewTokens = 12;
    ServeRequest small_b;
    small_b.id = 3;
    small_b.prompt = makePrompt(w.cfg, 5, 3);
    small_b.maxNewTokens = 12;
    eng.submit(big);
    eng.submit(small_a);
    eng.submit(small_b);

    std::size_t before = 0;
    bool saw_retire = false;
    while (!eng.idle()) {
        before = eng.kvUsedPages();
        std::vector<RequestOutput> done = eng.step();
        for (const auto &o : done)
            if (o.id == 1) {
                saw_retire = true;
                // The big request's pages went back mid-flight: usage
                // dropped across the round despite the survivors'
                // appends, and the survivors are still generating.
                EXPECT_LT(eng.kvUsedPages(), before);
                EXPECT_EQ(eng.activeRequests(), 2u);
            }
    }
    EXPECT_TRUE(saw_retire);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvPeakPages(), 0u);
}

class QuantServing : public ::testing::TestWithParam<QuantKind>
{
};

TEST_P(QuantServing, StaggeredMixedGenLenMatchesQuantReference)
{
    QuantKind kind = GetParam();
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);
    std::size_t page_tokens = 4;
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = page_tokens;
    ec.kvQuant = kind;
    ec.maxConcurrency = 4;
    PipelinedEngine eng(w, ec);

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 5; ++i) {
        ServeRequest r;
        r.id = i;
        // Lengths straddle page boundaries (3..11 over 4-token pages).
        r.prompt = makePrompt(w.cfg, 3 + 2 * static_cast<std::size_t>(i),
                              static_cast<std::uint64_t>(i) + 77);
        r.maxNewTokens = 2 + i;
        reqs.push_back(std::move(r));
    }

    std::vector<RequestOutput> outs;
    auto collect = [&](std::vector<RequestOutput> v) {
        for (auto &o : v)
            outs.push_back(std::move(o));
    };
    eng.submit(reqs[0]);
    eng.submit(reqs[1]);
    eng.submit(reqs[2]);
    collect(eng.step());
    collect(eng.step());
    eng.submit(reqs[3]);
    eng.submit(reqs[4]);
    collect(eng.drain());

    ASSERT_EQ(outs.size(), reqs.size());
    // Quantized pages all released on retirement too.
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvPeakPages(), 0u);
    for (const auto &o : outs) {
        const ServeRequest &r = reqs[static_cast<std::size_t>(o.id)];
        EXPECT_EQ(o.tokens,
                  referenceTokens(w, r, kind, page_tokens))
            << "request " << o.id << " (quant)";
    }
}

TEST_P(QuantServing, QuantKvPagesShrinkOnEarlyFinish)
{
    QuantKind kind = GetParam();
    ModelWeights w = ModelWeights::random(tinyMixtral(), 5);
    EngineConfig ec;
    ec.microBatch = 4;
    ec.kvPageTokens = 4;
    ec.kvQuant = kind;
    PipelinedEngine eng(w, ec);

    ServeRequest big;
    big.id = 1;
    big.prompt = makePrompt(w.cfg, 32, 11);
    big.maxNewTokens = 5;  // retires several rounds in, not round one
    ServeRequest small;
    small.id = 2;
    small.prompt = makePrompt(w.cfg, 4, 12);
    small.maxNewTokens = 10;
    eng.submit(big);
    eng.submit(small);

    bool saw_retire = false;
    while (!eng.idle()) {
        std::size_t before = eng.kvUsedPages();
        for (const auto &o : eng.step())
            if (o.id == 1) {
                saw_retire = true;
                EXPECT_LT(eng.kvUsedPages(), before);
                EXPECT_EQ(eng.activeRequests(), 1u);
            }
    }
    EXPECT_TRUE(saw_retire);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, QuantServing,
                         ::testing::Values(QuantKind::Int8,
                                           QuantKind::Int4));

TEST(Serving, StopTokensCutGenerationShort)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 13);
    ServeRequest probe;
    probe.id = 0;
    probe.prompt = makePrompt(w.cfg, 6, 21);
    probe.maxNewTokens = 8;
    std::vector<int> full = referenceTokens(w, probe);
    ASSERT_EQ(full.size(), 8u);

    // Stop on the token greedy decoding emits at position 2: the
    // request must finish with exactly 3 tokens and reason Stop —
    // identically in both engines.
    ServeRequest stopped = probe;
    stopped.stopTokens = {full[2]};
    // Guard against the stop token appearing earlier in the stream.
    ASSERT_EQ(std::find(full.begin(), full.begin() + 2, full[2]),
              full.begin() + 2);

    EngineConfig ec;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    eng.submit(stopped);
    std::vector<RequestOutput> out = eng.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].finishReason, FinishReason::Stop);
    EXPECT_EQ(out[0].tokens,
              std::vector<int>(full.begin(), full.begin() + 3));

    ReferenceEngine ref(w);
    ref.submit(stopped);
    std::vector<RequestOutput> rout = ref.drain();
    ASSERT_EQ(rout.size(), 1u);
    EXPECT_EQ(rout[0].finishReason, FinishReason::Stop);
    EXPECT_EQ(rout[0].tokens, out[0].tokens);
}

TEST(Serving, PolymorphicUseThroughEngineInterface)
{
    // Both engines drive identically through the abstract Engine
    // interface — the point of the redesign.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 3);
    PipelinedEngine pipe(w, {});
    ReferenceEngine ref(w);
    std::vector<std::vector<int>> prompts{makePrompt(w.cfg, 5, 1),
                                          makePrompt(w.cfg, 7, 2)};
    Engine &a = pipe;
    Engine &b = ref;
    auto ra = serveAll(a, prompts, 6);
    auto rb = serveAll(b, prompts, 6);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t s = 0; s < ra.size(); ++s)
        EXPECT_EQ(ra[s], rb[s]);
    EXPECT_TRUE(a.idle());
    EXPECT_TRUE(b.idle());
}

TEST(Serving, RejectsBadRequests)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 4);
    PipelinedEngine eng(w, {});
    ServeRequest r;
    r.maxNewTokens = 4;
    EXPECT_THROW(eng.submit(r), FatalError);  // empty prompt
    r.prompt = {99999};
    EXPECT_THROW(eng.submit(r), FatalError);  // out of vocab
    r.prompt = {1, 2};
    r.maxNewTokens = 0;
    EXPECT_THROW(eng.submit(r), FatalError);  // no budget
}

TEST(ContinuousBatcher, AdmitsUpToFreeSlotsKeepsRestInOrder)
{
    ContinuousBatcher b(/*microBatch=*/2, /*kvBudgetTokens=*/0);
    for (int i = 0; i < 6; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt.assign(static_cast<std::size_t>(4 + i), 1);
        r.maxNewTokens = 4;
        b.enqueue(std::move(r));
    }
    std::vector<ServeRequest> first = b.admit(/*freeSlots=*/4, 0);
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(b.pending(), 2u);
    // Deferred requests keep arrival order.
    std::vector<ServeRequest> second = b.admit(4, 0);
    ASSERT_EQ(second.size(), 2u);
    std::vector<std::int64_t> ids{second[0].id, second[1].id};
    std::sort(ids.begin(), ids.end());
    // The two leftovers are the two shortest prompts (Algorithm 2
    // admits longest-first), i.e. ids 0 and 1.
    EXPECT_EQ(ids, (std::vector<std::int64_t>{0, 1}));
    EXPECT_EQ(b.pending(), 0u);
}

TEST(ContinuousBatcher, BudgetDefersWithoutDropping)
{
    // Budget 20: the 16-token request fits alone (16 + 4 gen = 20);
    // everything else defers but stays queued.
    ContinuousBatcher b(/*microBatch=*/4, /*kvBudgetTokens=*/20);
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt.assign(16, 1);
        r.maxNewTokens = 4;
        b.enqueue(std::move(r));
    }
    std::vector<ServeRequest> round = b.admit(/*freeSlots=*/4, 0);
    EXPECT_EQ(round.size(), 1u);
    EXPECT_EQ(b.pending(), 2u);
    // Budget still consumed by the in-flight request: nothing fits.
    EXPECT_TRUE(b.admit(4, /*kvTokensInUse=*/20).empty());
    EXPECT_EQ(b.pending(), 2u);
    // Capacity freed: the next one goes.
    EXPECT_EQ(b.admit(4, 0).size(), 1u);
    EXPECT_EQ(b.pending(), 1u);
    // admitOne is the no-starvation escape hatch.
    EXPECT_EQ(b.admitOne().id, 2);
    EXPECT_EQ(b.pending(), 0u);
}

TEST(ContinuousBatcher, AgedHeadHoldsBackYoungerArrivals)
{
    // A large-but-fitting head passed over while smaller later
    // arrivals keep being admitted must eventually block younger
    // work until capacity drains to it (no indefinite starvation).
    ContinuousBatcher b(/*microBatch=*/1, /*kvBudgetTokens=*/100);
    ServeRequest big;
    big.id = 99;
    big.prompt.assign(30, 1);
    big.maxNewTokens = 10;  // demand 40
    b.enqueue(std::move(big));
    for (std::size_t round = 0; round < ContinuousBatcher::kHeadAgeLimit;
         ++round) {
        ServeRequest small;
        small.id = static_cast<std::int64_t>(round);
        small.prompt.assign(2, 1);
        small.maxNewTokens = 4;  // demand 6
        b.enqueue(std::move(small));
        // 70 of 100 in use: the small fits the per-partition split,
        // the head does not — it gets passed over again.
        std::vector<ServeRequest> got =
            b.admit(/*freeSlots=*/2, /*kvTokensInUse=*/70);
        ASSERT_EQ(got.size(), 1u) << "round " << round;
        EXPECT_NE(got[0].id, 99);
    }
    // Age limit hit: younger requests are now held back...
    ServeRequest late;
    late.id = 500;
    late.prompt.assign(2, 1);
    late.maxNewTokens = 4;
    b.enqueue(std::move(late));
    EXPECT_TRUE(b.admit(2, 70).empty());
    // ...until capacity drains enough for the head.
    std::vector<ServeRequest> head = b.admit(2, /*kvTokensInUse=*/0);
    ASSERT_EQ(head.size(), 1u);
    EXPECT_EQ(head[0].id, 99);
    // Younger flow resumes afterwards.
    EXPECT_EQ(b.admit(2, 0).size(), 1u);
    EXPECT_EQ(b.pending(), 0u);
}

TEST(ContinuousBatcher, HeadAgeAdvancesOnlyWhenHeadWasConsidered)
{
    // The deferral count gates starvation control (held-back younger
    // arrivals, engine preemption), so it must measure rounds that
    // considered the head and admitted past it — never rounds that
    // could not admit anyone for lack of a sequence slot.
    ContinuousBatcher b(/*microBatch=*/2, /*kvBudgetTokens=*/20,
                        /*headAgeLimit=*/2);
    ServeRequest big;
    big.id = 1;
    big.prompt.assign(20, 1);
    big.maxNewTokens = 10;  // demand 30 > 20: never admits
    b.enqueue(std::move(big));

    // Zero free slots, any number of times: the head was never in
    // play, so it earns no age.
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(b.admit(/*freeSlots=*/0, 0).empty());
    EXPECT_FALSE(b.headAged());

    // Rounds with slots that plan over the head and pass it by DO
    // age it — including zero-free-budget rounds, where that aging is
    // what eventually drives the engine to preempt for the head.
    EXPECT_TRUE(b.admit(/*freeSlots=*/2, /*kvTokensInUse=*/20).empty());
    EXPECT_FALSE(b.headAged()) << "one deferral of limit 2";
    EXPECT_TRUE(b.admit(2, 20).empty());
    EXPECT_TRUE(b.headAged());
    // More slotless rounds still age nothing further: the aged flag
    // simply holds until capacity appears.
    EXPECT_TRUE(b.admit(0, 0).empty());
    EXPECT_TRUE(b.headAged());
}

TEST(ContinuousBatcher, HeadAgeResetsOnAdmissionAndRemoval)
{
    ContinuousBatcher b(/*microBatch=*/2, /*kvBudgetTokens=*/20,
                        /*headAgeLimit=*/2);
    ServeRequest big;
    big.id = 1;
    big.prompt.assign(20, 1);
    big.maxNewTokens = 10;  // demand 30: over budget, never admits
    b.enqueue(std::move(big));
    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(b.admit(2, 0).empty());
    EXPECT_TRUE(b.headAged());

    // Removing the starved head (cancel/timeout) hands the front to
    // a request that has earned no age of its own.
    std::vector<ServeRequest> gone = b.removeIf(
        [](const ServeRequest &r) { return r.id == 1; });
    ASSERT_EQ(gone.size(), 1u);
    EXPECT_FALSE(b.headAged());

    ServeRequest ok;
    ok.id = 2;
    ok.prompt.assign(4, 1);
    ok.maxNewTokens = 4;  // demand 8: fits
    b.enqueue(ok);
    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(b.admit(2, /*kvTokensInUse=*/20).empty());
    EXPECT_TRUE(b.headAged());
    // Admission resets the age for the next head.
    ASSERT_EQ(b.admit(2, 0).size(), 1u);
    EXPECT_FALSE(b.headAged());
}

TEST(ContinuousBatcher, DemandOracleOverridesDefaultDemand)
{
    // A prefix-aware oracle reports net demand (novel tail only);
    // the batcher must budget on it instead of the full prompt, or
    // prefix hits would be deferred as if they were cold.
    ContinuousBatcher b(/*microBatch=*/2, /*kvBudgetTokens=*/16);
    ServeRequest r;
    r.id = 7;
    r.prompt.assign(20, 1);
    r.maxNewTokens = 4;  // cold demand 24 > 16: deferred
    b.enqueue(r);
    EXPECT_TRUE(b.admit(2, 0).empty());
    // 16 of the prompt cached: net demand (4 + 4 = 8) fits.
    b.setDemandOracle([](const ServeRequest &req) {
        return servingKvDemandNet(req, /*cachedTokens=*/16);
    });
    std::vector<ServeRequest> got = b.admit(2, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, 7);
}

TEST(Serving, KvDemandNetChargesNovelTailPlusBudget)
{
    // Exact tokens: the KV store meters tokens, so no page rounding.
    ServeRequest r;
    r.prompt.assign(10, 1);
    r.maxNewTokens = 4;
    EXPECT_EQ(servingKvDemand(r), 14u);
    EXPECT_EQ(servingKvDemandNet(r, 0), servingKvDemand(r))
        << "cold = full";
    EXPECT_EQ(servingKvDemandNet(r, 8), 6u) << "2 novel + 4 gen";
    // A "match" covering the whole prompt is a contract violation:
    // the cache caps matches one token short of the prompt.
    EXPECT_THROW(servingKvDemandNet(r, 10), PanicError);
}

TEST(ContinuousBatcher, HeadOfLineAdmittedWhenItFitsTotalBudget)
{
    // microBatch=1 with 8 free slots splits the budget 8 ways, which
    // would defer a request needing half the total forever; the
    // head-of-line fallback admits it alone instead.
    ContinuousBatcher b(/*microBatch=*/1, /*kvBudgetTokens=*/80);
    ServeRequest big;
    big.id = 42;
    big.prompt.assign(30, 1);
    big.maxNewTokens = 10;  // demand 40 > 80/8 but <= 80
    b.enqueue(std::move(big));
    std::vector<ServeRequest> round = b.admit(/*freeSlots=*/8, 0);
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].id, 42);
    EXPECT_EQ(b.pending(), 0u);
}

TEST(Serving, AdmissionReservesCommittedDemandNoMidflightOverflow)
{
    // Admission must budget each active request's *committed* demand
    // (prompt + full generation budget), not its current usage:
    // tight pool (100 request tokens), two requests of demand 60
    // each. Budgeting current usage would admit B while A has only
    // ~11 tokens appended, then fatal mid-flight when their combined
    // growth overflows the pool. With reservation, B waits for A.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 21);
    EngineConfig ec;
    ec.kvQuant = QuantKind::Int8;  // exact token accounting
    ec.kvCapacityTokens = 400;     // / l=4 => 100 request tokens
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);

    ServeRequest a;
    a.id = 1;
    a.prompt = makePrompt(w.cfg, 10, 1);
    a.maxNewTokens = 50;
    eng.submit(a);
    auto out = eng.step();  // admit A
    EXPECT_TRUE(out.empty());
    ServeRequest b = a;
    b.id = 2;
    b.prompt = makePrompt(w.cfg, 10, 2);
    eng.submit(b);
    eng.step();
    // B deferred: A's reservation leaves only 40 of 100 free.
    EXPECT_EQ(eng.pendingRequests(), 1u);
    EXPECT_EQ(eng.activeRequests(), 1u);
    // The whole trace completes without a KV-capacity fault.
    auto outs = eng.drain();
    EXPECT_EQ(outs.size(), 2u);
    for (const auto &o : outs)
        EXPECT_EQ(o.tokens.size(), 50u);
}

TEST(Serving, OversizedRequestRejectedAtSubmit)
{
    // A request whose KV demand can never fit the engine's whole
    // budget is rejected at submit() with a diagnosis — it must not
    // queue, drain to the front, and then fault from inside a
    // pipeline worker with the slot already occupied.
    ModelConfig cfg = tinyMixtral();
    ModelWeights w = ModelWeights::random(cfg, 6);
    EngineConfig ec;
    ec.kvPageTokens = 4;
    ec.kvCapacityTokens = 64;  // tiny pool: 16 request tokens
    ec.kvQuant = QuantKind::Int8;
    PipelinedEngine eng(w, ec);
    ServeRequest r;
    r.id = 1;
    r.prompt = makePrompt(cfg, 40, 9);
    r.maxNewTokens = 4;  // demand 44 > 16
    EXPECT_THROW(eng.submit(r), FatalError);
    // The engine stays fully usable afterwards.
    ServeRequest ok;
    ok.id = 2;
    ok.prompt = makePrompt(cfg, 4, 10);
    ok.maxNewTokens = 4;  // demand 8 <= 16
    eng.submit(ok);
    std::vector<RequestOutput> out = eng.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].tokens.size(), 4u);
}

/** Serve @p reqs through @p eng and return each output's (reason,
 *  tokens) by id. */
std::map<std::int64_t, std::pair<FinishReason, std::vector<int>>>
serveOutcomes(Engine &eng, const std::vector<ServeRequest> &reqs)
{
    for (const ServeRequest &r : reqs)
        eng.submit(r);
    std::map<std::int64_t, std::pair<FinishReason, std::vector<int>>> out;
    for (RequestOutput &o : eng.drain()) {
        EXPECT_EQ(out.count(o.id), 0u) << "request " << o.id
                                       << " retired twice";
        out[o.id] = {o.finishReason, std::move(o.tokens)};
    }
    EXPECT_TRUE(eng.idle());
    return out;
}

TEST(Serving, OneTokenBudgetRetiresRightAfterPrefill)
{
    // maxNewTokens = 1: the prefill samples the only token, and the
    // request retires in the same step without ever decoding, while a
    // co-admitted request keeps generating.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 71);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 3 + static_cast<std::size_t>(i),
                              static_cast<std::uint64_t>(i) + 80);
        r.maxNewTokens = i == 2 ? 5 : 1;
        reqs.push_back(std::move(r));
    }
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    PipelinedEngine pipe(w, ec);
    ReferenceEngine ref(w);
    auto got = serveOutcomes(pipe, reqs);
    auto want = serveOutcomes(ref, reqs);
    EXPECT_EQ(got, want);
    ASSERT_EQ(got.size(), 3u);
    for (int id : {0, 1}) {
        EXPECT_EQ(got[id].first, FinishReason::Length);
        EXPECT_EQ(got[id].second.size(), 1u);
        EXPECT_EQ(got[id].second[0], referenceTokens(w, reqs[id])[0]);
    }
    EXPECT_EQ(got[2].second.size(), 5u);
    EXPECT_EQ(pipe.kvUsedPages(), 0u);

    // Alone, too: admitted, prefilled and retired in one step().
    PipelinedEngine solo(w, ec);
    solo.submit(reqs[0]);
    std::vector<RequestOutput> first = solo.step();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].tokens, got[0].second);
    EXPECT_TRUE(solo.idle());
}

TEST(Serving, StopOnFirstSampledToken)
{
    // A stop token that is the very first sampled token ends the
    // request at prefill with exactly that token and reason Stop.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 72);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 5, static_cast<std::uint64_t>(i) + 90);
        r.maxNewTokens = 6;
        reqs.push_back(std::move(r));
    }
    std::vector<int> full0 = referenceTokens(w, reqs[0]);
    std::vector<int> full1 = referenceTokens(w, reqs[1]);
    reqs[0].stopTokens = {full0[0]};
    // A stop token that never comes leaves the request at Length.
    for (int t = 0; t < static_cast<int>(w.cfg.vocab); ++t)
        if (std::find(full1.begin(), full1.end(), t) == full1.end()) {
            reqs[1].stopTokens = {t};
            break;
        }
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    PipelinedEngine pipe(w, ec);
    ReferenceEngine ref(w);
    auto got = serveOutcomes(pipe, reqs);
    auto want = serveOutcomes(ref, reqs);
    EXPECT_EQ(got, want);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].first, FinishReason::Stop);
    EXPECT_EQ(got[0].second, std::vector<int>{full0[0]});
    EXPECT_EQ(got[1].first, FinishReason::Length);
    EXPECT_EQ(got[1].second, full1);
    EXPECT_EQ(got[2].first, FinishReason::Length);
    EXPECT_EQ(pipe.kvUsedPages(), 0u);
}

} // namespace
} // namespace moelight
