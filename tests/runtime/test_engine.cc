#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

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

TEST(ReferenceEngine, DeterministicGeneration)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 1);
    ReferenceEngine a(w), b(w);
    auto prompts = makePrompts(w.cfg, 2, 3, 6, 2);
    auto ra = serveAll(a, prompts, 5);
    auto rb = serveAll(b, prompts, 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t s = 0; s < ra.size(); ++s)
        EXPECT_EQ(ra[s], rb[s]);
}

TEST(ReferenceEngine, GeneratesRequestedLength)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 2);
    ReferenceEngine eng(w);
    auto prompts = makePrompts(w.cfg, 3, 2, 8, 3);
    auto out = serveAll(eng, prompts, 7);
    for (const auto &r : out) {
        EXPECT_EQ(r.size(), 7u);
        for (int t : r) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, static_cast<int>(w.cfg.vocab));
        }
    }
}

/**
 * The headline correctness test: the CGOPipe pipelined engine must
 * produce exactly the reference engine's greedy tokens — pipelining,
 * paging and offloading must not change results.
 */
class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(EngineEquivalence, PipelinedMatchesReference)
{
    auto [num_seqs, gen_len, micro_batch] = GetParam();
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);

    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, static_cast<std::size_t>(num_seqs),
                               2, 10, 7);
    auto expect = serveAll(ref, prompts, gen_len);

    EngineConfig ec;
    ec.microBatch = static_cast<std::size_t>(micro_batch);
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, gen_len);

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalence,
    ::testing::Values(std::make_tuple(1, 4, 1),
                      std::make_tuple(2, 6, 1),
                      std::make_tuple(4, 6, 2),
                      std::make_tuple(6, 5, 2),
                      std::make_tuple(8, 8, 2),
                      std::make_tuple(8, 4, 4),
                      std::make_tuple(5, 6, 2),   // ragged last ub
                      std::make_tuple(9, 3, 4))); // ragged last ub

TEST(PipelinedEngine, MultiThreadedCpuAttentionMatches)
{
    // The attention thread pool must not change results (per-token
    // scratch, disjoint outputs).
    ModelWeights w = ModelWeights::random(tinyMixtral(), 21);
    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, 6, 3, 9, 31);
    auto expect = serveAll(ref, prompts, 6);
    EngineConfig ec;
    ec.microBatch = 3;
    ec.cpuAttnThreads = 3;
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, 6);
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
}

TEST(PipelinedEngine, ThrottledLinkStillCorrect)
{
    // Bandwidth throttling (real sleeps on the transfer paths)
    // stresses the pipeline's event ordering without changing
    // results.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 22);
    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, 4, 2, 5, 33);
    auto expect = serveAll(ref, prompts, 4);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.throttleBw = 200.0 * 1e6;  // 200 MB/s simulated link
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, 4);
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
}

TEST(PipelinedEngine, SingleTokenGeneration)
{
    // genLen=1: prefill-only path.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 5);
    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, 3, 2, 6, 11);
    auto expect = serveAll(ref, prompts, 1);
    PipelinedEngine eng(w, {});
    auto got = serveAll(eng, prompts, 1);
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]);
}

TEST(PipelinedEngine, MoreMicroBatchesThanWeightPagesMatchReference)
{
    // microBatch=1 with many active sequences gives more decode
    // micro-batches than a layer has weight pages, so some chunks of
    // the interleaved weight stream are empty — the slot-retired
    // ordering must then ride on the first *non-empty* chunk, or the
    // incoming layer's pages overwrite a weight slot still being
    // read (torn weights => wrong tokens).
    ModelWeights w = ModelWeights::random(tinyMixtral(), 31);
    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, 22, 2, 6, 19);
    auto expect = serveAll(ref, prompts, 4);
    EngineConfig ec;
    ec.microBatch = 1;
    ec.maxConcurrency = 24;
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, 4);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
}

TEST(PipelinedEngine, AdmissionWavesMatchReference)
{
    // More prompts than sequence slots: the continuous batcher admits
    // in waves as slots retire and free up, which must not change any
    // request's tokens.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 23);
    ReferenceEngine ref(w);
    auto prompts = makePrompts(w.cfg, 7, 2, 9, 17);
    auto expect = serveAll(ref, prompts, 5);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.maxConcurrency = 3;
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, 5);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;
}

TEST(PipelinedEngine, TransfersAccountedForWeightsAndActivations)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 6);
    PipelinedEngine eng(w, {});
    auto prompts = makePrompts(w.cfg, 4, 3, 5, 13);
    serveAll(eng, prompts, 4);
    TransferStats s = eng.transferStats();
    // Weights staged through pinned memory: both hops equal.
    EXPECT_GT(s.hostToPinned, 0u);
    EXPECT_EQ(s.hostToPinned, s.pinnedToGpu);
    // Decode moved QKV down and hidden back up.
    EXPECT_GT(s.gpuToHost, 0u);
    EXPECT_GT(s.hostToGpu, 0u);
    // Each decode step re-streams every layer: weights dominate.
    EXPECT_GT(s.hostToPinned, s.hostToGpu);
}

TEST(PipelinedEngine, KvCacheHeldWhileActiveFreedOnRetire)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 8);
    EngineConfig ec;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    ServeRequest req;
    req.id = 1;
    req.prompt = {1, 2, 3, 4, 5};
    req.maxNewTokens = 4;
    eng.submit(req);
    // First step admits + prefills + decodes one token: pages held.
    auto out = eng.step();
    EXPECT_TRUE(out.empty());
    EXPECT_GT(eng.kvUsedPages(), 0u);
    // Draining retires the request and releases its pages.
    auto rest = eng.drain();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].tokens.size(), 4u);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    EXPECT_GT(eng.kvPeakPages(), 0u);
}

TEST(PipelinedEngine, RejectsBadConfig)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 9);
    // Every bad field fails at construction with its own message
    // (EngineConfig::validate), not deep inside the pipeline.
    EngineConfig ec;
    ec.microBatch = 0;
    EXPECT_THROW(PipelinedEngine(w, ec), FatalError);
    ec = {};
    ec.kvPageTokens = 0;
    EXPECT_THROW(PipelinedEngine(w, ec), FatalError);
    ec = {};
    ec.kvCapacityTokens = 0;
    EXPECT_THROW(PipelinedEngine(w, ec), FatalError);
    ec = {};
    ec.maxConcurrency = 0;
    EXPECT_THROW(PipelinedEngine(w, ec), FatalError);
    ModelConfig odd = tinyMixtral();
    odd.l = 3;  // not a multiple of the weight slot count
    ModelWeights w3 = ModelWeights::random(odd, 9);
    EXPECT_THROW(PipelinedEngine(w3, {}), FatalError);
}

TEST(PipelinedEngine, RejectsBadPrompts)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 10);
    PipelinedEngine eng(w, {});
    EXPECT_THROW(serveAll(eng, {{1, 2}}, 0), FatalError);
    EXPECT_THROW(serveAll(eng, {{}}, 2), FatalError);
    EXPECT_THROW(serveAll(eng, {{99999}}, 2), FatalError);
    EXPECT_TRUE(eng.idle()) << "rejected at submit, nothing queued";
}

// ---------------------------------------------------------------------
// CPU-FFN rounds: one micro-batch whose rows * k is below ne runs its
// MoE FFN on the CPU over the host-resident experts, so only dense
// pages cross the link.
// ---------------------------------------------------------------------

/** tinyMixtral with top-2-of-8 routing: rounds of 1-3 rows run the
 *  FFN on the CPU. */
ModelConfig
top2of8()
{
    ModelConfig m = tinyMixtral();
    m.ne = 8;
    m.validate();
    return m;
}

/** Bytes of one layer's dense pages (norms, wq/wk/wv/wo, router). */
std::uint64_t
denseBytes(const LayerWeights &lw)
{
    return (lw.attnNorm.numel() + lw.wq.numel() + lw.wk.numel() +
            lw.wv.numel() + lw.wo.numel() + lw.ffnNorm.numel() +
            lw.router.numel()) *
           sizeof(float);
}

/** Bytes of expert 0's w1/w3/w2 pages (every expert is this size). */
std::uint64_t
expertBytes(const LayerWeights &lw)
{
    return (lw.w1[0].numel() + lw.w3[0].numel() + lw.w2[0].numel()) *
           sizeof(float);
}

/** Activation bytes one decode row moves per layer: Q/K/V to the
 *  host and the attention output back, and with @p cpuFfn the FFN's
 *  input rows out and its output back, h1 floats each way. */
struct ActBytes
{
    std::uint64_t toHost, toGpu;
};

ActBytes
actBytesPerRowLayer(const ModelConfig &c, bool cpuFfn)
{
    std::uint64_t q = c.nq * c.headDim, kv = c.nkv * c.headDim;
    std::uint64_t ffn = cpuFfn ? c.h1 : 0;
    return {(q + 2 * kv + ffn) * sizeof(float), (q + ffn) * sizeof(float)};
}

std::optional<QuantKind>
quantOf(int idx)
{
    if (idx == 1)
        return QuantKind::Int8;
    if (idx == 2)
        return QuantKind::Int4;
    return std::nullopt;
}

/** (active rows, KV mode: 0 float / 1 int8 / 2 int4, cpuAttnThreads,
 *  non-unit norm gains). */
class CpuFfnRounds
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>>
{
};

TEST_P(CpuFfnRounds, MatchReferenceAndStreamNoExpertPage)
{
    auto [rows, qidx, threads, gains] = GetParam();
    std::optional<QuantKind> quant = quantOf(qidx);
    ModelWeights w = ModelWeights::random(top2of8(), 51);
    if (gains)
        engine_test::randomizeNormGains(w, 56);
    auto prompts = makePrompts(w.cfg, static_cast<std::size_t>(rows), 2,
                               9, 61 + static_cast<std::uint64_t>(rows));
    const int gen = 6;
    ReferenceEngine ref(w, quant, 4);
    auto expect = serveAll(ref, prompts, gen);

    EngineConfig ec;
    ec.microBatch = 4;  // every row in one micro-batch
    ec.kvPageTokens = 4;
    ec.kvQuant = quant;
    ec.cpuAttnThreads = static_cast<std::size_t>(threads);
    PipelinedEngine eng(w, ec);
    auto got = serveAll(eng, prompts, gen);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_EQ(got[s], expect[s]) << "seq " << s;

    // The admission prefill streams every layer whole, then the next
    // round's layer-0 dense pages into slot 0. Every decode round then
    // streams layers 1 .. l - 1 and, under its last layer, the next
    // round's layer 0; its layer-0 preload finds the dense pages
    // resident. All rows decode in each of the gen - 1 rounds.
    TransferStats ts = eng.transferStats();
    const LayerWeights &lw = w.layers[0];
    std::uint64_t layers = w.cfg.l;
    std::uint64_t full =
        layers * (denseBytes(lw) + w.cfg.ne * expertBytes(lw));
    std::uint64_t rounds = gen - 1;
    std::uint64_t row_layers =
        rounds * static_cast<std::uint64_t>(rows) * layers;
    bool cpu_ffn =
        cpuFfnRound(1, static_cast<std::size_t>(rows), w.cfg.k, w.cfg.ne);
    ActBytes act = actBytesPerRowLayer(w.cfg, cpu_ffn);
    if (cpu_ffn) {
        // No expert page moves: each layer's dense pages copy (the
        // slots alternate layers, so a slot always holds another
        // layer's) and nothing else.
        EXPECT_EQ(ts.pinnedToGpu,
                  full + (rounds * layers + 1) * denseBytes(lw));
    } else {
        // 4 rows cover all 8 experts: every round streams l layers;
        // round 1's layer-0 preload adds the experts the prefill's
        // wrap-around left out, one layer in all.
        EXPECT_EQ(ts.pinnedToGpu, gen * full + full / layers);
    }
    EXPECT_EQ(ts.gpuToHost, row_layers * act.toHost);
    EXPECT_EQ(ts.hostToGpu, row_layers * act.toGpu);
}

std::string
cpuFfnCaseName(
    const ::testing::TestParamInfo<std::tuple<int, int, int, bool>> &info)
{
    static const char *kModes[] = {"float", "int8", "int4"};
    auto [rows, qidx, threads, gains] = info.param;
    return "rows" + std::to_string(rows) + "_" + kModes[qidx] + "_attn" +
           std::to_string(threads) + (gains ? "_norm_gains" : "");
}

INSTANTIATE_TEST_SUITE_P(
    RowsByKvMode, CpuFfnRounds,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 1, 2), ::testing::Values(0, 2),
                       ::testing::Bool()),
    cpuFfnCaseName);

TEST(CpuFfnRounds, LoneDecodeRoundStreamsOnlyDensePages)
{
    ModelWeights w = ModelWeights::random(top2of8(), 52);
    EngineConfig ec;
    ec.kvPageTokens = 4;
    PipelinedEngine eng(w, ec);
    ServeRequest req;
    req.id = 1;
    req.prompt = {3, 1, 4, 1, 5};
    req.maxNewTokens = 4;
    eng.submit(req);
    ASSERT_TRUE(eng.step().empty());  // admission prefill + a round
    TransferStats before = eng.transferStats();
    ASSERT_TRUE(eng.step().empty());  // one decode round
    TransferStats after = eng.transferStats();
    // The previous round's last layer streamed this round's layer-0
    // dense pages, so the preload copies nothing; this round streams
    // layers 1 .. l - 1 and the next round's layer 0: l layers of
    // dense pages and not one expert page.
    const LayerWeights &lw = w.layers[0];
    EXPECT_EQ(after.pinnedToGpu - before.pinnedToGpu,
              w.cfg.l * denseBytes(lw));
    ActBytes act = actBytesPerRowLayer(w.cfg, true);
    EXPECT_EQ(after.gpuToHost - before.gpuToHost, w.cfg.l * act.toHost);
    EXPECT_EQ(after.hostToGpu - before.hostToGpu, w.cfg.l * act.toGpu);
    auto rest = eng.drain();
    ASSERT_EQ(rest.size(), 1u);
    ReferenceEngine ref(w);
    ref.submit(req);
    EXPECT_EQ(rest[0].tokens, ref.drain()[0].tokens);
}

std::string
kvModeName(const ::testing::TestParamInfo<int> &info)
{
    static const char *kModes[] = {"float", "int8", "int4"};
    return kModes[info.param];
}

/** (KV mode: 0 float / 1 int8 / 2 int4, non-unit norm gains). */
class ShapeTransitions
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(ShapeTransitions, MatchReferenceAndSteadyFullRoundsStreamLLayers)
{
    // Multi-micro-batch rounds, then CPU-FFN rounds once only
    // the long request is left, then an admission, then full rounds
    // again: whatever each shape left in the weight slots, tokens stay
    // bit-identical, and a full round that follows a full round
    // streams exactly l layers (the previous round streamed its
    // layer 0). With non-unit norm gains, applying the wrong norm (or
    // none) anywhere in the shared layer math changes tokens.
    auto [qidx, gains] = GetParam();
    std::optional<QuantKind> quant = quantOf(qidx);
    ModelWeights w = ModelWeights::random(top2of8(), 54);
    if (gains)
        engine_test::randomizeNormGains(w, 55);
    EngineConfig ec;
    ec.microBatch = 2;  // 3+ rows: several micro-batches
    ec.kvPageTokens = 4;
    ec.kvQuant = quant;
    PipelinedEngine eng(w, ec);
    ReferenceEngine ref(w, quant, 4);
    auto prompts = makePrompts(w.cfg, 9, 3, 9, 81);
    auto serve = [&](std::size_t i, int maxNew) {
        ServeRequest req;
        req.id = static_cast<std::int64_t>(i);
        req.prompt = prompts[i];
        req.maxNewTokens = maxNew;
        eng.submit(req);
        ref.submit(req);
    };
    // Wave 1: one long request and four that retire after 2 rounds.
    serve(0, 9);
    for (std::size_t i = 1; i < 5; ++i)
        serve(i, 3);

    const LayerWeights &lw = w.layers[0];
    std::uint64_t full_round =
        w.cfg.l * (denseBytes(lw) + w.cfg.ne * expertBytes(lw));
    std::map<std::int64_t, std::vector<int>> got;
    std::size_t cpu_ffn_rounds = 0, steady_full_rounds = 0;
    bool wave2 = false, prev_full = false;
    while (eng.pendingRequests() + eng.activeRequests() > 0) {
        if (!wave2 && cpu_ffn_rounds == 2) {
            // Wave 2: an admission into a CPU-FFN round's slot state.
            for (std::size_t i = 5; i < prompts.size(); ++i)
                serve(i, 4);
            wave2 = true;
        }
        bool admits = eng.pendingRequests() > 0;
        std::uint64_t before = eng.transferStats().pinnedToGpu;
        std::vector<RequestOutput> outs = eng.step();
        std::uint64_t delta = eng.transferStats().pinnedToGpu - before;
        // Every request decodes in the round of the step that admits
        // it (maxNewTokens >= 3), so the round's rows are the
        // survivors plus the step's retirees.
        std::size_t rows = eng.activeRequests() + outs.size();
        for (RequestOutput &out : outs)
            got[out.id] = std::move(out.tokens);
        bool cpu_ffn =
            cpuFfnRound((rows + ec.microBatch - 1) / ec.microBatch, rows,
                        w.cfg.k, w.cfg.ne);
        if (cpu_ffn) {
            ++cpu_ffn_rounds;
        } else if (prev_full && !admits) {
            ++steady_full_rounds;
            EXPECT_EQ(delta, full_round) << rows << " rows";
        }
        prev_full = !cpu_ffn;
    }
    EXPECT_TRUE(wave2);
    EXPECT_GE(steady_full_rounds, 3u);
    auto expect = ref.drain();
    ASSERT_EQ(got.size(), expect.size());
    for (const RequestOutput &e : expect)
        EXPECT_EQ(got[e.id], e.tokens) << "request " << e.id;
}

std::string
shapeCaseName(const ::testing::TestParamInfo<std::tuple<int, bool>> &info)
{
    static const char *kModes[] = {"float", "int8", "int4"};
    return std::string(kModes[std::get<0>(info.param)]) +
           (std::get<1>(info.param) ? "_norm_gains" : "");
}

INSTANTIATE_TEST_SUITE_P(KvModes, ShapeTransitions,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool()),
                         shapeCaseName);

// ---------------------------------------------------------------------
// The Gpu-queue kernel pool: sized from the host's cores, bit-identical
// to the serial kernels.
// ---------------------------------------------------------------------

TEST(GpuPoolWorkers, CoresLeftAfterGpuQueueAndAttentionThreads)
{
    EXPECT_EQ(gpuPoolWorkers(0, 0), 0u) << "unknown core count = 1";
    EXPECT_EQ(gpuPoolWorkers(1, 0), 0u);
    EXPECT_EQ(gpuPoolWorkers(4, 0), 3u);
    EXPECT_EQ(gpuPoolWorkers(4, 3), 0u);
    EXPECT_EQ(gpuPoolWorkers(4, 8), 0u) << "no unsigned underflow";
}

/** KV mode: 0 float / 1 int8 / 2 int4. */
class BothPoolsLive : public ::testing::TestWithParam<int>
{
};

TEST_P(BothPoolsLive, MatchReference)
{
    // cpuAttnThreads = 1 leaves gpuPoolWorkers(cores, 1) >= 1 on a
    // host of 3 or more cores, so the attention pool (Cpu queue) and
    // the kernel pool (Gpu queue) dispatch concurrently.
    if (std::thread::hardware_concurrency() < 3)
        GTEST_SKIP() << "needs 3 cores for both pools";
    std::optional<QuantKind> quant = quantOf(GetParam());
    ModelWeights w = ModelWeights::random(top2of8(), 53);
    // 16+ token prompts take the row-split prefill GEMMs and the
    // pooled MoE FFN; 10 rows decode as 3 micro-batches until the
    // short requests retire, then the long one decodes alone in
    // CPU-FFN rounds (1 * k < ne).
    auto prompts = makePrompts(w.cfg, 10, 16, 24, 71);
    EngineConfig ec;
    ec.microBatch = 4;
    ec.kvPageTokens = 4;
    ec.kvQuant = quant;
    ec.cpuAttnThreads = 1;
    PipelinedEngine eng(w, ec);
    ReferenceEngine ref(w, quant, 4);
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        ServeRequest req;
        req.id = static_cast<std::int64_t>(i);
        req.prompt = prompts[i];
        req.maxNewTokens = i == 0 ? 8 : 4;
        eng.submit(req);
        ref.submit(req);
    }
    const LayerWeights &lw = w.layers[0];
    std::uint64_t full_round =
        w.cfg.l * (denseBytes(lw) + w.cfg.ne * expertBytes(lw));
    std::map<std::int64_t, std::vector<int>> got;
    std::size_t cpu_ffn_rounds = 0;
    while (eng.pendingRequests() + eng.activeRequests() > 0) {
        bool lone = eng.pendingRequests() == 0 &&
                    eng.activeRequests() == 1;
        std::uint64_t before = eng.transferStats().pinnedToGpu;
        for (RequestOutput &out : eng.step())
            got[out.id] = std::move(out.tokens);
        if (lone && eng.transferStats().pinnedToGpu - before < full_round)
            ++cpu_ffn_rounds;
    }
    EXPECT_GE(cpu_ffn_rounds, 1u);
    auto expect = ref.drain();
    ASSERT_EQ(got.size(), expect.size());
    for (const RequestOutput &e : expect)
        EXPECT_EQ(got[e.id], e.tokens) << "request " << e.id;
}

INSTANTIATE_TEST_SUITE_P(KvModes, BothPoolsLive,
                         ::testing::Values(0, 1, 2), kvModeName);

} // namespace
} // namespace moelight
