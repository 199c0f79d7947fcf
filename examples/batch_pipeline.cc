/**
 * @file
 * Serving pipeline: generate an MTBench-like request mix and serve it
 * through the pipelined engine's continuous-batching API. The paper's
 * request-batching algorithm (Appendix A.2, Algorithm 2) runs inside
 * the engine's admission loop: between decode rounds it places queued
 * requests into free micro-batch slots under the KV budget, finished
 * requests retire early and their KV pages fund the next admissions —
 * the serving workflow the paper targets, without the old
 * one-static-batch-at-a-time drain.
 *
 *   $ ./batch_pipeline
 */

#include <algorithm>
#include <chrono>
#include <iostream>

#include "common/rng.hh"
#include "common/table.hh"
#include "model/workload.hh"
#include "runtime/batcher.hh"
#include "runtime/engine.hh"

using namespace moelight;

int
main()
{
    ModelConfig cfg = tinyMixtral();
    ModelWeights weights = ModelWeights::random(cfg, 11);

    // A scaled-down MTBench-flavoured mix: prompt lengths 4..40 with
    // per-request generation budgets (the request API needs no shared
    // genLen, so stagger them 4..12).
    WorkloadConfig wl{"mini-mtbench", 12.0, 40, /*genLen=*/8};
    auto shape = generateRequests(wl, 48, /*seed=*/3);
    Rng rng(5);
    std::vector<ServeRequest> requests;
    for (std::size_t i = 0; i < shape.size(); ++i) {
        ServeRequest r;
        r.id = static_cast<std::int64_t>(i);
        for (int t = 0; t < shape[i].promptLen; ++t)
            r.prompt.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        r.maxNewTokens = 4 + static_cast<int>(i % 9);
        requests.push_back(std::move(r));
    }

    // Peek at what Algorithm 2 would plan for the first admission
    // round (the engine runs the same planner internally each round).
    std::vector<Request> descr;
    for (const auto &r : requests)
        descr.push_back({static_cast<int>(r.id),
                         static_cast<int>(r.prompt.size()),
                         r.maxNewTokens});
    BatchPlan plan =
        batchRequests(std::move(descr), /*nUb=*/4, /*ubs=*/4,
                      /*cacheSize=*/400);
    Table t({"micro_batch", "requests", "prompt_tokens", "kv_tokens"});
    for (std::size_t j = 0; j < plan.microBatches.size(); ++j) {
        std::size_t toks = 0, kv = 0;
        for (const auto &r : plan.microBatches[j]) {
            toks += static_cast<std::size_t>(r.promptLen);
            kv += static_cast<std::size_t>(r.promptLen + r.genLen);
        }
        t.newRow()
            .add(j)
            .add(plan.microBatches[j].size())
            .add(toks)
            .add(kv);
    }
    t.print(std::cout, "Algorithm 2 — first admission round");
    std::cout << "deferred to later rounds: " << plan.aborted.size()
              << " requests\n\n";

    // Serve the whole queue continuously. 16 sequence slots over 48
    // requests: the engine turns slots over as requests finish.
    EngineConfig ec;
    ec.microBatch = 4;
    ec.maxConcurrency = 16;
    // Multi-core host attention (the paper's 24-core MKL kernel):
    // tokens of a micro-batch fan out across the pool with per-worker
    // scratch; results are identical to the single-threaded path.
    ec.cpuAttnThreads = 2;
    PipelinedEngine engine(weights, ec);
    for (const ServeRequest &r : requests)
        engine.submit(r);

    std::size_t generated = 0, rounds = 0, finished = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (!engine.idle()) {
        std::vector<RequestOutput> done = engine.step();
        ++rounds;
        finished += done.size();
        for (const RequestOutput &r : done)
            generated += r.tokens.size();
    }
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();

    std::cout << "served " << finished << " requests (" << generated
              << " tokens) in " << rounds << " rounds, " << secs
              << " s => " << generated / secs
              << " tokens/s on this host\n";
    std::cout << "kv peak " << engine.kvPeakPages()
              << " pages; all released: "
              << (engine.kvUsedPages() == 0 ? "yes" : "NO") << "\n";
    TransferStats ts = engine.transferStats();
    std::cout << "transfer bytes: weights=" << ts.hostToPinned
              << " offload_qkv=" << ts.gpuToHost
              << " hidden_load=" << ts.hostToGpu << "\n";
    return 0;
}
