/**
 * @file
 * Quickstart: build a tiny synthetic Mixtral-style model, serve
 * requests through the CGOPipe pipelined engine's request-level API
 * (submit / step / drain — continuous batching with per-request
 * generation budgets), and cross-check every output against the
 * sequential reference engine. (Stop tokens are exercised in
 * tests/runtime/test_serving.cc.)
 *
 * Section 6 demos the fault-tolerant request lifecycle:
 * cancellation, per-request deadlines, and an injected mid-flight
 * fault that retires one request with FinishReason::Error while the
 * engine keeps serving the rest (docs/error_model.md). Section 7
 * demos prefix caching: requests sharing a system prompt attach its
 * cached KV pages and prefill only their novel tails, bit-identical
 * to a cold run (docs/kv_cache.md).
 *
 *   $ ./quickstart
 */

#include <chrono>
#include <iostream>
#include <map>

#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/fault_injection.hh"
#include "runtime/reference_engine.hh"

using namespace moelight;

int
main()
{
    // 1. A model. tinyMixtral() is a 4-layer, 4-expert, top-2 MoE
    //    with real float weights (randomly initialized).
    ModelConfig cfg = tinyMixtral();
    ModelWeights weights = ModelWeights::random(cfg, /*seed=*/2024);
    std::cout << "model: " << cfg.name << " — " << cfg.l << " layers, "
              << cfg.ne << " experts (top-" << cfg.k << "), "
              << static_cast<long long>(cfg.totalParams())
              << " params\n";

    // 2. Some requests (random token prompts). Each request carries
    //    its own generation budget — no shared genLen.
    Rng rng(7);
    std::vector<ServeRequest> requests(8);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].id = static_cast<std::int64_t>(i);
        for (int t = 0; t < 6 + static_cast<int>(i); ++t)
            requests[i].prompt.push_back(static_cast<int>(
                rng.uniformInt(
                    0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        requests[i].maxNewTokens = 6 + 2 * static_cast<int>(i);
    }

    // 3. The pipelined engine: CGOPipe over 4 stream queues with
    //    paged weights and a CPU-side paged KV cache, fronted by the
    //    continuous batcher (Algorithm 2 admits queued requests into
    //    free micro-batch slots between decode rounds).
    EngineConfig ec;
    ec.microBatch = 4;
    ec.maxConcurrency = 6;  // 8 requests -> admission happens in waves
    PipelinedEngine engine(weights, ec);

    for (const ServeRequest &r : requests)
        engine.submit(r);

    // 4. Drive the engine one continuous-batching round at a time.
    //    Requests retire as soon as they hit their own budget; their
    //    KV pages return to the pool mid-flight and queued requests
    //    take over the freed slots.
    auto t0 = std::chrono::steady_clock::now();
    std::size_t total_tokens = 0;
    std::vector<RequestOutput> outputs;
    int round = 0;
    while (!engine.idle()) {
        std::vector<RequestOutput> finished = engine.step();
        ++round;
        for (RequestOutput &out : finished) {
            total_tokens += out.tokens.size();
            std::cout << "round " << round << ": request " << out.id
                      << " finished ("
                      << finishReasonName(out.finishReason)
                      << ", " << out.tokens.size()
                      << " tokens, prefill " << out.prefillSeconds
                      << "s, decode " << out.decodeSeconds
                      << "s) — kv pages now "
                      << engine.kvUsedPages() << "\n";
            outputs.push_back(std::move(out));
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    std::cout << "\nserved " << outputs.size() << " requests, "
              << total_tokens << " tokens in " << secs << " s ("
              << total_tokens / secs << " tokens/s on this host); "
              << "kv peak " << engine.kvPeakPages() << " pages, now "
              << engine.kvUsedPages() << "\n";

    TransferStats ts = engine.transferStats();
    std::cout << "\ntransfer accounting:\n"
              << "  weights CPU->pinned->GPU : " << ts.hostToPinned
              << " bytes (x2 hops)\n"
              << "  QKV offload GPU->CPU     : " << ts.gpuToHost
              << " bytes\n"
              << "  hidden load CPU->GPU     : " << ts.hostToGpu
              << " bytes\n";

    // 5. Verify every request against the sequential reference
    //    engine, which serves the same requests through the same API.
    ReferenceEngine ref(weights);
    for (const ServeRequest &r : requests)
        ref.submit(r);
    std::vector<RequestOutput> expect = ref.drain();
    // Every expected id must appear exactly once with the same
    // tokens — a dropped or duplicated request must not slip
    // through on matching counts alone.
    bool ok = expect.size() == outputs.size();
    std::map<std::int64_t, std::vector<int>> got;
    for (const RequestOutput &g : outputs)
        ok &= got.emplace(g.id, g.tokens).second;  // no duplicate ids
    for (const RequestOutput &e : expect) {
        auto it = got.find(e.id);
        ok &= it != got.end() && it->second == e.tokens;
    }
    std::cout << "\nreference check: "
              << (ok ? "PASS — pipelined output identical"
                     : "FAIL — outputs diverge")
              << "\n";

    // 6. Request lifecycle and fault tolerance. Three requests: one
    //    is cancelled mid-generation, one carries a deadline that
    //    expires, and one runs into an injected KV-allocation fault —
    //    each retires with its own finish reason while a fourth,
    //    plain request still completes and matches the reference.
    std::cout << "\nfault-tolerant lifecycle demo:\n";
    ServeRequest cancelMe, expireMe, faultMe, plain;
    for (auto *r : {&cancelMe, &expireMe, &faultMe, &plain}) {
        for (int t = 0; t < 6; ++t)
            r->prompt.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        r->maxNewTokens = 40;
    }
    cancelMe.id = 100;
    expireMe.id = 101;
    expireMe.deadlineMs = 0.01;  // expires before its first round
    faultMe.id = 102;
    plain.id = 103;
    plain.maxNewTokens = 8;

    engine.submit(cancelMe);
    engine.submit(expireMe);
    engine.submit(plain);
    (void)engine.step();           // admit; one decode round
    engine.cancel(cancelMe.id);    // partial tokens come back
    // Arm a one-shot fault on the next KV page allocation (tests use
    // the same injector via MOELIGHT_FAULT or ScopedFault).
    FaultInjector::instance().armCount("kv.alloc", 1);
    engine.submit(faultMe);
    std::vector<RequestOutput> mixed = engine.drain();
    FaultInjector::instance().disarmAll();

    bool lifecycle_ok = mixed.size() == 4;
    std::vector<int> plainSolo;
    {
        ReferenceEngine solo(weights);
        solo.submit(plain);
        plainSolo = solo.drain().at(0).tokens;
    }
    for (const RequestOutput &out : mixed) {
        std::cout << "  request " << out.id << ": "
                  << finishReasonName(out.finishReason) << ", "
                  << out.tokens.size() << " tokens";
        if (!out.errorMessage.empty())
            std::cout << " — " << out.errorMessage;
        std::cout << "\n";
        if (out.id == cancelMe.id)
            lifecycle_ok &=
                out.finishReason == FinishReason::Cancelled;
        if (out.id == expireMe.id)
            lifecycle_ok &= out.finishReason == FinishReason::TimedOut;
        if (out.id == faultMe.id)
            lifecycle_ok &= out.finishReason == FinishReason::Error &&
                            !out.errorMessage.empty();
        if (out.id == plain.id)
            lifecycle_ok &= out.finishReason == FinishReason::Length &&
                            out.tokens == plainSolo;
    }
    lifecycle_ok &= engine.kvUsedPages() == 0;
    std::cout << "  kv pages after drain: " << engine.kvUsedPages()
              << "\nlifecycle check: "
              << (lifecycle_ok ? "PASS — faults contained per request"
                               : "FAIL")
              << "\n";

    // 7. Prefix caching: requests sharing a system prompt reuse its
    //    closed KV pages instead of re-prefilling them. A fresh
    //    engine with cfg.prefixCache on serves one warmup request
    //    (populating the cache), then a batch of sharers — each
    //    attaches the cached pages read-only and prefills only its
    //    novel tail. Tokens stay bit-identical to the cold engine
    //    above (docs/kv_cache.md).
    std::cout << "\nshared-system-prompt demo (prefix cache):\n";
    EngineConfig pc = ec;
    pc.prefixCache = true;
    pc.kvPageTokens = 4;  // small pages so a short demo prompt shares
    PipelinedEngine warm(weights, pc);
    std::vector<int> sys;
    for (int t = 0; t < 13; ++t)
        sys.push_back(static_cast<int>(rng.uniformInt(
            0, static_cast<std::int64_t>(cfg.vocab) - 1)));
    std::vector<ServeRequest> chat(5);
    for (std::size_t i = 0; i < chat.size(); ++i) {
        chat[i].id = 200 + static_cast<std::int64_t>(i);
        chat[i].prompt = sys;  // shared system prompt...
        for (std::size_t t = 0; t < 2 + i; ++t)  // ...unique turn
            chat[i].prompt.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        chat[i].maxNewTokens = 6;
    }
    warm.submit(chat[0]);
    std::vector<RequestOutput> hot = warm.drain();  // caches sys pages
    for (std::size_t i = 1; i < chat.size(); ++i)
        warm.submit(chat[i]);
    for (RequestOutput &o : warm.drain())
        hot.push_back(std::move(o));
    bool prefix_ok = hot.size() == chat.size();
    for (const RequestOutput &o : hot) {
        ReferenceEngine solo(weights);
        solo.submit(chat[static_cast<std::size_t>(o.id - 200)]);
        prefix_ok &= o.tokens == solo.drain().at(0).tokens;
    }
    PrefixCacheStats pstats = warm.prefixCacheStats();
    double hit_rate =
        static_cast<double>(pstats.hits) /
        static_cast<double>(pstats.lookups ? pstats.lookups : 1);
    std::cout << "  " << pstats.hits << "/" << pstats.lookups
              << " requests hit the cache (rate "
              << hit_rate << "), " << pstats.pagesReused
              << " page attaches skipped "
              << pstats.bytesPrefillSkipped
              << " bytes of KV prefill\n  kv pages after drain: "
              << warm.kvUsedPages() << " in use, "
              << warm.kvCachedPages()
              << " held by the cache for the next sharer\n"
              << "prefix check: "
              << (prefix_ok ? "PASS — hot tokens identical to cold"
                            : "FAIL")
              << "\n";
    prefix_ok &= warm.kvUsedPages() == 0 && warm.kvCachedPages() > 0;
    return ok && lifecycle_ok && prefix_ok ? 0 : 1;
}
