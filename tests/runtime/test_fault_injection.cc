/**
 * Fault-tolerance tests: the deterministic FaultInjector itself
 * (count and seeded-rate modes), and the engines' containment
 * contract under injected faults at every instrumented site
 * (kv.alloc, weights.load, exec.task) across float / int8 / int4 KV
 * modes — the faulted request (or, for round-scope executor and
 * weight-stream faults, the faulted round's co-batch) retires with
 * FinishReason::Error and a diagnostic, every surviving request's
 * tokens stay bit-identical to an uncontended ReferenceEngine run,
 * all KV pages return to the pool, and the engine keeps serving fresh
 * requests afterwards. Also covers the request lifecycle (cancel,
 * deadline) on both engines and KV-pressure preemption with
 * bit-identical recompute.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/fault_injection.hh"
#include "runtime/reference_engine.hh"
#include "runtime/serving.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

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

/** Oracle: serve one request alone through a fresh ReferenceEngine
 *  (the injector must be disarmed when this runs). */
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

// ---------------------------------------------------------------------
// Injector unit tests.
// ---------------------------------------------------------------------

TEST(FaultInjector, CountModeFiresOnceOnNthCheck)
{
    ScopedFault f("unit.count", 3);
    EXPECT_NO_THROW(FaultInjector::check("unit.count"));
    EXPECT_NO_THROW(FaultInjector::check("unit.count"));
    try {
        FaultInjector::check("unit.count");
        FAIL() << "third check should have thrown";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::FaultInjected);
        EXPECT_EQ(e.site(), "unit.count");
        EXPECT_NE(std::string(e.what()).find("injected fault"),
                  std::string::npos);
    }
    // One-shot: the site disarmed itself after firing.
    EXPECT_NO_THROW(FaultInjector::check("unit.count"));
    EXPECT_EQ(f.hits(), 1u);
}

TEST(FaultInjector, SitesAreIndependent)
{
    ScopedFault f("unit.a", 1);
    EXPECT_NO_THROW(FaultInjector::check("unit.b"));
    EXPECT_THROW(FaultInjector::check("unit.a"), EngineError);
}

TEST(FaultInjector, RateModeIsDeterministicPerSeed)
{
    auto trips = [](std::uint64_t seed) {
        FaultInjector::instance().armRate("unit.rate", 0.3, seed);
        std::vector<int> fired;
        for (int i = 0; i < 200; ++i) {
            try {
                FaultInjector::check("unit.rate");
            } catch (const EngineError &) {
                fired.push_back(i);
            }
        }
        FaultInjector::instance().disarmAll();
        return fired;
    };
    std::vector<int> a = trips(7), b = trips(7), c = trips(8);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    EXPECT_LT(a.size(), 200u);
    EXPECT_NE(a, c);  // different seed, different schedule
}

TEST(FaultInjector, DisarmAllMakesChecksFree)
{
    FaultInjector::instance().armCount("unit.gone", 1);
    FaultInjector::instance().disarmAll();
    EXPECT_NO_THROW(FaultInjector::check("unit.gone"));
}

TEST(FaultInjector, EngineErrorCarriesCodeAndSite)
{
    EngineError e(ErrorCode::KvExhausted, "kv.alloc", "pool dry");
    EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
    EXPECT_EQ(e.site(), "kv.alloc");
    std::string msg = e.what();
    EXPECT_NE(msg.find("KvExhausted"), std::string::npos);
    EXPECT_NE(msg.find("kv.alloc"), std::string::npos);
    EXPECT_NE(msg.find("pool dry"), std::string::npos);
}

// ---------------------------------------------------------------------
// Containment matrix: every site x float/int8/int4 KV.
// ---------------------------------------------------------------------

struct FaultCase
{
    const char *site;
    std::optional<QuantKind> quant;
    std::uint64_t nth;  ///< check count that trips mid-flight
    const char *tag;
    std::size_t experts = 4;  ///< ne of the tinyMixtral variant
    /** When nonzero, the fault lands in a round of exactly this many
     *  rows and must retire all of them (round scope). */
    std::size_t roundRows = 0;
};

class FaultContainment : public ::testing::TestWithParam<FaultCase>
{
};

TEST_P(FaultContainment, FaultedRetiresErrorSurvivorsBitIdentical)
{
    const FaultCase fc = GetParam();
    ModelConfig mc = tinyMixtral();
    mc.ne = fc.experts;
    ModelWeights w = ModelWeights::random(mc, 99);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    ec.kvQuant = fc.quant;

    std::vector<ServeRequest> wave1, wave2;
    for (int i = 0; i < 4; ++i) {
        ServeRequest r;
        r.id = 10 + i;
        r.prompt = makePrompt(w.cfg, 4 + static_cast<std::size_t>(i),
                              static_cast<std::uint64_t>(i) + 5);
        r.maxNewTokens = 5 + i;
        wave1.push_back(std::move(r));
    }
    for (int i = 0; i < 2; ++i) {
        ServeRequest r;
        r.id = 20 + i;
        r.prompt = makePrompt(w.cfg, 5, static_cast<std::uint64_t>(i) + 40);
        r.maxNewTokens = 6;
        wave2.push_back(std::move(r));
    }

    // Oracle tokens with the injector disarmed.
    std::map<std::int64_t, std::vector<int>> want;
    for (const auto &r : wave1)
        want[r.id] =
            referenceTokens(w, r, fc.quant, ec.kvPageTokens);
    for (const auto &r : wave2)
        want[r.id] =
            referenceTokens(w, r, fc.quant, ec.kvPageTokens);

    PipelinedEngine eng(w, ec);
    for (const auto &r : wave1)
        eng.submit(r);

    std::vector<RequestOutput> outs;
    {
        ScopedFault fault(fc.site, fc.nth);
        outs = eng.drain();
        // The fault must actually have fired mid-flight, or this test
        // proves nothing (tune nth if a pipeline change shifts check
        // counts).
        EXPECT_EQ(fault.hits(), 1u) << "site " << fc.site;
    }
    ASSERT_EQ(outs.size(), wave1.size());
    EXPECT_EQ(eng.kvUsedPages(), 0u)
        << "faulted requests must release their KV pages";

    std::size_t errored = 0;
    for (const auto &o : outs) {
        if (o.finishReason == FinishReason::Error) {
            ++errored;
            EXPECT_FALSE(o.errorMessage.empty());
            // No token of the faulted round escapes, prefill rounds
            // included: what comes back was sampled by clean rounds.
            ASSERT_LE(o.tokens.size(), want[o.id].size());
            EXPECT_TRUE(std::equal(o.tokens.begin(), o.tokens.end(),
                                   want[o.id].begin()))
                << "errored " << o.id << " reports a faulted token";
            continue;
        }
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        EXPECT_TRUE(o.errorMessage.empty());
        EXPECT_EQ(o.tokens, want[o.id])
            << "survivor " << o.id << " diverged from the oracle";
    }
    EXPECT_GE(errored, 1u);
    EXPECT_LT(errored, wave1.size() + 1);
    if (fc.roundRows != 0) {
        EXPECT_EQ(errored, fc.roundRows)
            << "a round-scope fault retires its whole co-batch";
    }
    if (std::string(fc.site) == "kv.alloc") {
        EXPECT_EQ(errored, 1u)
            << "a KV append fault is request scope: only its sequence "
               "retires";
    }

    // The engine keeps serving: a fresh wave after the fault is
    // clean and bit-identical.
    for (const auto &r : wave2)
        eng.submit(r);
    std::vector<RequestOutput> outs2 = eng.drain();
    ASSERT_EQ(outs2.size(), wave2.size());
    for (const auto &o : outs2) {
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        EXPECT_EQ(o.tokens, want[o.id]) << "post-fault request " << o.id;
    }
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, FaultContainment,
    ::testing::Values(
        // kv.alloc checks fire once per KV append, whatever the
        // codec; weights.load per streamed page; exec.task per
        // executor task. nth is picked to land after wave 1 is
        // mid-flight but well before it drains.
        //
        // kv.alloc: wave 1 is admitted in one round and prefilled
        // layer by layer, each layer appending the four prompts
        // (4 + 5 + 6 + 7 = 22 tokens) in admission order. Layers 0
        // and 1 take checks 1-44; in layer 2, requests 10, 11 and 12
        // take checks 45-59, so check 60 is request 13's first
        // layer-2 append. Request scope: only request 13 retires, and
        // the three survivors and wave 2 stay bit-identical. Appends
        // do not depend on the codec, so all three codecs share it.
        FaultCase{"kv.alloc", std::nullopt, 60, "kv_float"},
        FaultCase{"kv.alloc", QuantKind::Int8, 60, "kv_int8"},
        FaultCase{"kv.alloc", QuantKind::Int4, 60, "kv_int4"},
        // The same fault in a decode round, where the DtoH queue
        // appends (the prefill cases above never reach it). The
        // prefill takes checks 1-88; decode round 1 (four rows, two
        // micro-batches) takes 89-104, four per layer in micro-batch
        // order: Algorithm 2 puts requests 12 and 11 in the first
        // micro-batch and 13 and 10 in the second. Check 99 is layer
        // 2's third append, request 13's; it retires alone.
        FaultCase{"kv.alloc", std::nullopt, 99, "kv_decode_float"},
        FaultCase{"kv.alloc", QuantKind::Int8, 99, "kv_decode_int8"},
        FaultCase{"weights.load", std::nullopt, 30, "weights_float"},
        FaultCase{"weights.load", QuantKind::Int8, 30, "weights_int8"},
        FaultCase{"weights.load", QuantKind::Int4, 30, "weights_int4"},
        FaultCase{"exec.task", std::nullopt, 80, "exec_float"},
        FaultCase{"exec.task", QuantKind::Int8, 80, "exec_int8"},
        FaultCase{"exec.task", QuantKind::Int4, 80, "exec_int4"},
        // Top-2-of-8 routing: with microBatch 2, wave 1's budgets
        // (5..8 tokens) leave 4, 4, 4, 4, 3 rows (two micro-batches,
        // whole layers of 31 pages) for decode rounds 1-5, then two
        // rows in one micro-batch: round 6 runs its MoE FFN on the
        // CPU and streams only dense pages (7 per layer). Only pages
        // a slot does not already hold are copied and checked. The
        // prefill copies 4 x 31 = 124 pages, then its wrap-around node
        // copies layer 0's 7 dense pages into slot 0 (which held layer
        // 2): 131. Round 1's layer-0 preload copies the 24 expert
        // pages the wrap-around left out, then layers 1, 2, 3 and
        // (wrap-around) 0: 24 + 4 x 31 = 148. Rounds 2-5 find layer 0
        // resident and copy 4 x 31 = 124 each: 131 + 148 + 4 x 124 =
        // 775 checks, the same count as before the prefill streamed
        // layer 0's dense pages, because those 7 loads only moved from
        // round 1 into the prefill. In round 6, layer 0 is wholly
        // resident, and layer 0 streams layer 1's dense pages into
        // slot 1 (which holds layer 3) in checks 776-782. Check 777 is
        // that chunk's wq page (its first page, attn_norm, is all ones
        // in every layer, so a stale copy of it would go unseen).
        // Both rows of that round retire; wave 2 (two rows) is served
        // by CPU-FFN rounds afterwards.
        FaultCase{"weights.load", std::nullopt, 777, "weights_cpu_ffn",
                  8, 2},
        // Same schedule: round 5 (3 rows) copies layers 1, 2 and 3 in
        // checks 652-744, so checks 745-775 are its wrap-around chunk,
        // which streams round 6's layer 0. Check 746 is that chunk's
        // wq page. The fault is round scope for round 5: its three
        // rows retire (the fourth request finished in round 4), and
        // wave 2 is bit-identical because the failed page, left
        // non-resident, is copied again.
        FaultCase{"weights.load", std::nullopt, 746, "weights_wrap",
                  8, 3},
        // exec.task checks once per task as it starts, and every task
        // of a round, plus the four fences of its sync() (one per
        // queue), starts before the next round. The prefill runs 10
        // tasks (4 x (Weights + Prefill), the wrap-around Weights
        // node, Sample) and each two-micro-batch round 49 (a layer-0
        // load, then per layer and micro-batch A Q B H C and one
        // weight chunk): 14 + 5 x 53 = 279 before round 6. In round
        // 6, the tasks that start before layer 0's CpuFfn are exactly
        // its dependency chain and what the FIFO queues put ahead of
        // it: W(L0) A Q B W(L1) H R D, so check 288 is CpuFfn(L0).
        // Both rows retire, and the engine serves wave 2 clean.
        FaultCase{"exec.task", std::nullopt, 288, "exec_cpu_ffn", 8,
                  2}),
    [](const ::testing::TestParamInfo<FaultCase> &info) {
        return info.param.tag;
    });

TEST(FaultContainmentRef, ReferenceEngineContainsQuantKvFault)
{
    // The oracle itself must honor the contract: a KV fault in one
    // request's decode retires it with Error while co-active
    // requests finish clean.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 3);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 4, static_cast<std::uint64_t>(i) + 9);
        r.maxNewTokens = 6;
        reqs.push_back(std::move(r));
    }
    std::map<std::int64_t, std::vector<int>> want;
    for (const auto &r : reqs)
        want[r.id] = referenceTokens(w, r, QuantKind::Int8, 4);

    ReferenceEngine ref(w, QuantKind::Int8, 4);
    for (const auto &r : reqs)
        ref.submit(r);
    std::vector<RequestOutput> outs;
    {
        // Mid-decode: past the 3 prefills (3 reqs x 4 tokens x 4
        // layers = 48 appends) but before the ~72 decode appends run
        // out.
        ScopedFault fault("kv.alloc", 60);
        outs = ref.drain();
        EXPECT_EQ(fault.hits(), 1u);
    }
    ASSERT_EQ(outs.size(), reqs.size());
    std::size_t errored = 0;
    for (const auto &o : outs) {
        if (o.finishReason == FinishReason::Error) {
            ++errored;
            EXPECT_FALSE(o.errorMessage.empty());
        } else {
            EXPECT_EQ(o.finishReason, FinishReason::Length);
            EXPECT_EQ(o.tokens, want[o.id]);
        }
    }
    EXPECT_EQ(errored, 1u) << "exactly the faulted request retires";
    EXPECT_TRUE(ref.idle());
}

// ---------------------------------------------------------------------
// Request lifecycle: cancel and deadline, both engines.
// ---------------------------------------------------------------------

template <typename MakeEngine>
void
runCancelLifecycle(const ModelWeights &w, MakeEngine makeEngine)
{
    auto eng = makeEngine();
    ServeRequest a, b;
    a.id = 1;
    a.prompt = makePrompt(w.cfg, 4, 11);
    a.maxNewTokens = 50;
    b.id = 2;
    b.prompt = makePrompt(w.cfg, 4, 12);
    b.maxNewTokens = 3;
    eng->submit(a);
    eng->submit(b);

    EXPECT_FALSE(eng->cancel(999)) << "unknown id";
    EXPECT_TRUE(eng->cancel(1)) << "queued request is cancellable";

    std::vector<RequestOutput> outs = eng->drain();
    ASSERT_EQ(outs.size(), 2u);
    std::map<std::int64_t, RequestOutput> byId;
    for (auto &o : outs)
        byId[o.id] = std::move(o);
    EXPECT_EQ(byId[1].finishReason, FinishReason::Cancelled);
    EXPECT_EQ(byId[2].finishReason, FinishReason::Length);
    EXPECT_EQ(byId[2].tokens, referenceTokens(w, b));
    EXPECT_FALSE(eng->cancel(1)) << "already retired";

    // Cancel mid-generation: partial tokens come back and they are a
    // prefix of the uncontended run.
    ServeRequest c;
    c.id = 3;
    c.prompt = makePrompt(w.cfg, 4, 13);
    c.maxNewTokens = 50;
    eng->submit(c);
    std::vector<RequestOutput> mid = eng->step();  // admit + 1 round
    EXPECT_TRUE(mid.empty());
    EXPECT_TRUE(eng->cancel(3));
    std::vector<RequestOutput> rest = eng->drain();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].finishReason, FinishReason::Cancelled);
    EXPECT_FALSE(rest[0].tokens.empty());
    std::vector<int> full = referenceTokens(w, c);
    ASSERT_LE(rest[0].tokens.size(), full.size());
    EXPECT_TRUE(std::equal(rest[0].tokens.begin(),
                           rest[0].tokens.end(), full.begin()))
        << "partial tokens must be a prefix of the full generation";
}

TEST(Lifecycle, CancelOnPipelinedEngine)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 21);
    runCancelLifecycle(w, [&] {
        EngineConfig ec;
        ec.microBatch = 2;
        ec.kvPageTokens = 4;
        auto e = std::make_unique<PipelinedEngine>(w, ec);
        return e;
    });
}

TEST(Lifecycle, CancelOnReferenceEngine)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 21);
    runCancelLifecycle(
        w, [&] { return std::make_unique<ReferenceEngine>(w); });
}

void
runDeadlineLifecycle(const ModelWeights &w, Engine &eng)
{
    ServeRequest slow, fast;
    slow.id = 1;
    slow.prompt = makePrompt(w.cfg, 4, 31);
    slow.maxNewTokens = 50;
    slow.deadlineMs = 0.01;  // expires essentially immediately
    fast.id = 2;
    fast.prompt = makePrompt(w.cfg, 4, 32);
    fast.maxNewTokens = 3;   // no deadline
    eng.submit(slow);
    eng.submit(fast);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::vector<RequestOutput> outs = eng.drain();
    ASSERT_EQ(outs.size(), 2u);
    std::map<std::int64_t, RequestOutput> byId;
    for (auto &o : outs)
        byId[o.id] = std::move(o);
    EXPECT_EQ(byId[1].finishReason, FinishReason::TimedOut);
    EXPECT_EQ(byId[2].finishReason, FinishReason::Length);
    EXPECT_EQ(byId[2].tokens, referenceTokens(w, fast));
    EXPECT_TRUE(eng.idle());
}

TEST(Lifecycle, DeadlineOnPipelinedEngine)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 22);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    runDeadlineLifecycle(w, eng);
    // And the serving engine's pages are provably back.
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

TEST(Lifecycle, DeadlineOnReferenceEngine)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 22);
    ReferenceEngine eng(w);
    runDeadlineLifecycle(w, eng);
}

TEST(Lifecycle, CancelReleasesKvPagesImmediately)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 23);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    ServeRequest r;
    r.id = 5;
    r.prompt = makePrompt(w.cfg, 8, 41);
    r.maxNewTokens = 50;
    eng.submit(r);
    (void)eng.step();  // admit + first decode round: KV now in use
    EXPECT_GT(eng.kvUsedPages(), 0u);
    EXPECT_TRUE(eng.cancel(5));
    std::vector<RequestOutput> outs = eng.step();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].finishReason, FinishReason::Cancelled);
    EXPECT_EQ(eng.kvUsedPages(), 0u)
        << "cancellation must free pages in the same step";
}

// ---------------------------------------------------------------------
// KV-pressure preemption.
// ---------------------------------------------------------------------

TEST(Preemption, AgedHeadPreemptsYoungestAndRecomputesBitIdentical)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 77);
    EngineConfig ec;
    ec.microBatch = 2;
    // Slots stay available (4 > 2 actives) so the starvation below is
    // purely KV-pressure: budget of 24 request tokens
    // (kvCapacityTokens / 4 layers), and two 12-token requests pin it
    // completely, so the third starves until the engine preempts one
    // of them.
    ec.maxConcurrency = 4;
    ec.kvPageTokens = 4;
    ec.kvCapacityTokens = 96;
    ec.headAgeLimit = 2;
    PipelinedEngine eng(w, ec);

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 2; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 4, static_cast<std::uint64_t>(i) + 61);
        r.maxNewTokens = 8;  // demand 12 of the 24-token budget
        reqs.push_back(std::move(r));
    }
    ServeRequest late;
    late.id = 2;
    late.prompt = makePrompt(w.cfg, 4, 63);
    late.maxNewTokens = 4;  // demand 8: needs a preemption to fit
    reqs.push_back(late);

    std::map<std::int64_t, std::vector<int>> want;
    for (const auto &r : reqs)
        want[r.id] = referenceTokens(w, r);

    eng.submit(reqs[0]);
    eng.submit(reqs[1]);
    (void)eng.step();  // both admitted; budget fully reserved
    eng.submit(late);
    std::vector<RequestOutput> outs = eng.drain();

    ASSERT_EQ(outs.size(), 3u);
    EXPECT_GE(eng.preemptions(), 1u)
        << "the aged head must trigger a preemption";
    int preemptedOutputs = 0;
    for (const auto &o : outs) {
        EXPECT_EQ(o.finishReason, FinishReason::Length);
        EXPECT_EQ(o.tokens, want[o.id])
            << "request " << o.id
            << " (preempted " << o.preemptions
            << "x) must be bit-identical to an uncontended run";
        preemptedOutputs += o.preemptions > 0 ? 1 : 0;
    }
    EXPECT_GE(preemptedOutputs, 1);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

TEST(Preemption, VictimCancelledWhileQueuedKeepsItsSavedTokens)
{
    // The preempted request waits in the queue with its progress in
    // the resume map; cancelling it there must return the tokens it
    // had generated before the preemption.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 78);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.maxConcurrency = 4;
    ec.kvPageTokens = 4;
    ec.kvCapacityTokens = 96;  // 24 request tokens: two 12s pin it
    ec.headAgeLimit = 2;
    PipelinedEngine eng(w, ec);

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = makePrompt(w.cfg, 4, static_cast<std::uint64_t>(i) + 64);
        r.maxNewTokens = i < 2 ? 8 : 4;
        reqs.push_back(std::move(r));
    }
    std::map<std::int64_t, std::vector<int>> want;
    for (const auto &r : reqs)
        want[r.id] = referenceTokens(w, r);

    eng.submit(reqs[0]);
    eng.submit(reqs[1]);
    std::vector<RequestOutput> outs = eng.step();
    eng.submit(reqs[2]);
    while (eng.preemptions() == 0) {
        ASSERT_FALSE(eng.idle()) << "drained without a preemption";
        std::vector<RequestOutput> round = eng.step();
        outs.insert(outs.end(), round.begin(), round.end());
    }
    ASSERT_TRUE(outs.empty()) << "nothing finishes before the preemption";
    // The aged head took the victim's place; the victim is queued.
    ASSERT_EQ(eng.pendingRequests(), 1u);
    EXPECT_TRUE(eng.cancel(0));
    EXPECT_TRUE(eng.cancel(1));
    outs = eng.drain();

    ASSERT_EQ(outs.size(), 3u);
    std::map<std::int64_t, RequestOutput> byId;
    for (auto &o : outs)
        byId[o.id] = std::move(o);
    int victims = 0;
    for (std::int64_t id : {0, 1}) {
        const RequestOutput &o = byId[id];
        EXPECT_EQ(o.finishReason, FinishReason::Cancelled);
        ASSERT_LE(o.tokens.size(), want[id].size());
        EXPECT_TRUE(std::equal(o.tokens.begin(), o.tokens.end(),
                               want[id].begin()))
            << "request " << id << " tokens must prefix its full run";
        if (o.preemptions == 1) {
            ++victims;
            EXPECT_FALSE(o.tokens.empty())
                << "the victim's pre-preemption tokens come back";
        } else {
            EXPECT_EQ(o.preemptions, 0);
        }
    }
    EXPECT_EQ(victims, 1);
    EXPECT_EQ(byId[2].finishReason, FinishReason::Length);
    EXPECT_EQ(byId[2].tokens, want[2]);
    EXPECT_EQ(eng.preemptions(), 1u);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_TRUE(eng.idle());
}

} // namespace
} // namespace moelight
