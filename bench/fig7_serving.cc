/**
 * @file
 * Serving throughput under Poisson arrivals — the Fig. 7 question
 * ("tokens/s under a real request mix") asked of the *executable*
 * engine instead of the performance model: mixed-generation-length
 * MTBench-flavoured requests arrive as a Poisson process and are
 * served either by
 *
 *   - continuous batching (the engine's request API: Algorithm 2
 *     admits arrivals into free micro-batch slots between decode
 *     rounds, finished requests retire early and free their KV), or
 *   - static batching (the legacy workflow: wait until the engine
 *     drains, then run every arrived request as one uniform batch
 *     padded to the longest generation budget in the group).
 *
 * Useful tokens (each request's own budget) per wall second is the
 * score; padding tokens static batching generates beyond a request's
 * budget are waste and do not count. Emits BENCH_serving.json;
 * CI gates continuous_vs_static >= 1 — continuous batching must
 * never lose to the static baseline it replaced.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "model/workload.hh"
#include "runtime/engine.hh"
#include "runtime/fault_injection.hh"

using namespace moelight;
using namespace moelight::bench;

namespace {

constexpr std::size_t kNumRequests = 48;

EngineConfig
servingConfig()
{
    EngineConfig ec;
    ec.microBatch = 4;
    ec.maxConcurrency = 16;
    ec.kvPageTokens = 16;
    return ec;
}

struct Trace
{
    std::vector<ServeRequest> requests;
    std::vector<double> arrival;  ///< seconds from start
    std::size_t usefulTokens = 0;
};

/** Mixed-genLen MTBench-flavoured mix with Poisson arrivals whose
 *  mean inter-arrival is @p meanGapSec. */
Trace
makeTrace(const ModelConfig &cfg, double meanGapSec)
{
    // Prompt lengths from the scaled-down MTBench shape; generation
    // budgets cycle 4..32 so static batches pad heavily while the
    // continuous path retires short requests early.
    WorkloadConfig wl{"mini-mtbench", 12.0, 40, /*genLen=*/0};
    auto shape = generateRequests(wl, kNumRequests, /*seed=*/3);
    const int gens[] = {4, 6, 8, 12, 16, 32};
    Rng rng(17);
    Trace tr;
    double t = 0.0;
    for (std::size_t i = 0; i < shape.size(); ++i) {
        ServeRequest r;
        r.id = static_cast<std::int64_t>(i);
        for (int k = 0; k < shape[i].promptLen; ++k)
            r.prompt.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        r.maxNewTokens = gens[i % (sizeof(gens) / sizeof(gens[0]))];
        tr.usefulTokens +=
            static_cast<std::size_t>(r.maxNewTokens);
        // Exponential inter-arrival via inverse CDF (deterministic
        // seed; rejection-free).
        t += -meanGapSec * std::log(1.0 - rng.uniform());
        tr.arrival.push_back(t);
        tr.requests.push_back(std::move(r));
    }
    return tr;
}

double
elapsedSec(std::chrono::steady_clock::time_point t0)
{
    return servingSecondsSince(t0);
}

void
sleepUntil(std::chrono::steady_clock::time_point t0, double when)
{
    double now = elapsedSec(t0);
    if (when > now)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(when - now));
}

struct RunResult
{
    double makespan = 0.0;
    double meanLatency = 0.0;
};

/** Continuous batching: submit arrivals between decode rounds. */
RunResult
runContinuous(const ModelWeights &w, const Trace &tr)
{
    PipelinedEngine eng(w, servingConfig());
    std::vector<double> done(tr.requests.size(), 0.0);
    auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0, finished = 0;
    while (finished < tr.requests.size()) {
        while (next < tr.requests.size() &&
               tr.arrival[next] <= elapsedSec(t0))
            eng.submit(tr.requests[next++]);
        if (eng.idle()) {
            // Nothing in flight: wait for the next arrival.
            sleepUntil(t0, tr.arrival[next]);
            continue;
        }
        for (const RequestOutput &out : eng.step()) {
            done[static_cast<std::size_t>(out.id)] = elapsedSec(t0);
            ++finished;
        }
    }
    RunResult rr;
    rr.makespan = elapsedSec(t0);
    for (std::size_t i = 0; i < done.size(); ++i)
        rr.meanLatency += done[i] - tr.arrival[i];
    rr.meanLatency /= static_cast<double>(done.size());
    return rr;
}

/** Static batching: drain fully, then take every arrived request as
 *  one uniform batch padded to the group's largest budget. */
RunResult
runStatic(const ModelWeights &w, const Trace &tr)
{
    PipelinedEngine eng(w, servingConfig());
    std::vector<double> done(tr.requests.size(), 0.0);
    auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0;
    while (next < tr.requests.size()) {
        sleepUntil(t0, tr.arrival[next]);
        std::vector<std::size_t> batch;
        while (next < tr.requests.size() &&
               tr.arrival[next] <= elapsedSec(t0))
            batch.push_back(next++);
        int gen_len = 0;
        for (std::size_t i : batch)
            gen_len = std::max(gen_len, tr.requests[i].maxNewTokens);
        for (std::size_t i : batch) {
            ServeRequest r = tr.requests[i];
            r.maxNewTokens = gen_len;  // pads every request
            eng.submit(std::move(r));
        }
        eng.drain();
        double now = elapsedSec(t0);
        for (std::size_t i : batch)
            done[i] = now;
    }
    RunResult rr;
    rr.makespan = elapsedSec(t0);
    for (std::size_t i = 0; i < done.size(); ++i)
        rr.meanLatency += done[i] - tr.arrival[i];
    rr.meanLatency /= static_cast<double>(done.size());
    return rr;
}

struct StormResult
{
    double makespan = 0.0;
    std::size_t goodTokens = 0;  ///< tokens of Length/Stop finishes
    std::size_t completed = 0;
    std::size_t errored = 0;
};

/** Fault storm: serve the whole trace back-to-back while executor
 *  task bodies fail at @p rate (seeded, deterministic schedule).
 *  Goodput counts only tokens of requests that finished naturally —
 *  Error retirements are wasted work, the robustness tax. */
StormResult
runStorm(const ModelWeights &w, const Trace &tr, double rate)
{
    PipelinedEngine eng(w, servingConfig());
    if (rate > 0.0)
        FaultInjector::instance().armRate("exec.task", rate, 2024);
    auto t0 = std::chrono::steady_clock::now();
    for (const ServeRequest &r : tr.requests)
        eng.submit(r);
    StormResult sr;
    for (const RequestOutput &out : eng.drain()) {
        if (out.finishReason == FinishReason::Length ||
            out.finishReason == FinishReason::Stop) {
            sr.goodTokens += out.tokens.size();
            ++sr.completed;
        } else {
            ++sr.errored;
        }
    }
    sr.makespan = elapsedSec(t0);
    FaultInjector::instance().disarmAll();
    if (eng.kvUsedPages() != 0) {
        std::cerr << "fault storm leaked " << eng.kvUsedPages()
                  << " KV pages\n";
        std::exit(1);
    }
    return sr;
}

// ---------------------------------------------------------------------
// Shared-system-prompt workload (the prefix-cache half of the figure).
// ---------------------------------------------------------------------

constexpr std::size_t kPrefixRequests = 32;
constexpr std::size_t kSysPromptLen = 96;  // 6 x 16-token pages

struct PrefixTrace
{
    std::vector<ServeRequest> requests;
    std::size_t usefulTokens = 0;
};

/** Chat-style mix: a @p skew fraction of requests opens with the
 *  shared system prompt @p sys; the rest carry a private prompt of
 *  the same length, so every request costs the same cold prefill and
 *  skew varies only how much of it is shareable. */
PrefixTrace
makePrefixTrace(const ModelConfig &cfg, const std::vector<int> &sys,
                double skew, std::uint64_t seed)
{
    Rng rng(seed);
    const int gens[] = {4, 6, 8, 12};
    PrefixTrace tr;
    for (std::size_t i = 0; i < kPrefixRequests; ++i) {
        ServeRequest r;
        r.id = static_cast<std::int64_t>(i);
        bool sharer =
            static_cast<double>(i % 8) < skew * 8.0 - 1e-9;
        for (std::size_t k = 0; k < sys.size(); ++k)
            r.prompt.push_back(
                sharer ? sys[k]
                       : static_cast<int>(rng.uniformInt(
                             0,
                             static_cast<std::int64_t>(cfg.vocab) -
                                 1)));
        // Per-request user turn: a short unique tail.
        for (std::size_t k = 0; k < 3 + i % 6; ++k)
            r.prompt.push_back(static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
        r.maxNewTokens = gens[i % (sizeof(gens) / sizeof(gens[0]))];
        tr.usefulTokens += static_cast<std::size_t>(r.maxNewTokens);
        tr.requests.push_back(std::move(r));
    }
    return tr;
}

struct PrefixRun
{
    double tput = 0.0;      ///< useful tokens / makespan
    double meanTtft = 0.0;  ///< mean prefill wall seconds
    PrefixCacheStats stats;
    std::size_t cachedPages = 0;
};

/** Serve the trace back-to-back with the prefix cache on (@p hot) or
 *  off. Both runs first serve one bare-sys warmup request — the hot
 *  run caches the system prompt from it, the cold run does the same
 *  work so the scored requests see identical engine state. */
PrefixRun
runPrefix(const ModelWeights &w, const std::vector<int> &sys,
          const PrefixTrace &tr, bool hot)
{
    EngineConfig ec = servingConfig();
    ec.prefixCache = hot;
    PipelinedEngine eng(w, ec);
    ServeRequest warmup;
    warmup.id = 1000;
    warmup.prompt = sys;
    warmup.maxNewTokens = 1;
    eng.submit(warmup);
    eng.drain();

    auto t0 = std::chrono::steady_clock::now();
    for (const ServeRequest &r : tr.requests)
        eng.submit(r);
    PrefixRun pr;
    std::size_t finished = 0;
    for (const RequestOutput &out : eng.drain()) {
        pr.meanTtft += out.prefillSeconds;
        ++finished;
    }
    double makespan = elapsedSec(t0);
    pr.tput = static_cast<double>(tr.usefulTokens) / makespan;
    pr.meanTtft /= static_cast<double>(finished);
    pr.stats = eng.prefixCacheStats();
    pr.cachedPages = eng.kvCachedPages();
    if (eng.kvUsedPages() != 0) {
        std::cerr << "prefix workload leaked " << eng.kvUsedPages()
                  << " KV pages\n";
        std::exit(1);
    }
    return pr;
}

} // namespace

int
main()
{
    ModelConfig cfg = tinyMixtral();
    ModelWeights weights = ModelWeights::random(cfg, 2024);

    // Calibrate the arrival rate to the host: serve the whole trace
    // back-to-back (no gaps) once, then set the Poisson rate to that
    // service rate — a saturating but drainable load on any machine,
    // so the comparison exercises queueing rather than idling.
    Trace warm = makeTrace(cfg, 0.0);
    PipelinedEngine calib(weights, servingConfig());
    auto c0 = std::chrono::steady_clock::now();
    for (const ServeRequest &r : warm.requests)
        calib.submit(r);
    calib.drain();
    double serviceSec = elapsedSec(c0);
    double meanGap = serviceSec / static_cast<double>(kNumRequests);

    Trace tr = makeTrace(cfg, meanGap);
    RunResult stat = runStatic(weights, tr);
    RunResult cont = runContinuous(weights, tr);

    double cont_tput =
        static_cast<double>(tr.usefulTokens) / cont.makespan;
    double stat_tput =
        static_cast<double>(tr.usefulTokens) / stat.makespan;

    Table t({"policy", "useful_tok_s", "makespan_s",
             "mean_latency_s"});
    t.newRow()
        .add("static-batching")
        .add(stat_tput, 1)
        .add(stat.makespan, 3)
        .add(stat.meanLatency, 3);
    t.newRow()
        .add("continuous-batching")
        .add(cont_tput, 1)
        .add(cont.makespan, 3)
        .add(cont.meanLatency, 3);
    t.print(std::cout,
            "Serving throughput — Poisson arrivals, mixed genLen (" +
                std::to_string(kNumRequests) + " requests, " +
                std::to_string(tr.usefulTokens) + " useful tokens)");
    std::cout << "continuous vs static: "
              << cont_tput / stat_tput << "x throughput, "
              << stat.meanLatency / cont.meanLatency
              << "x lower mean latency\n";

    BenchJson json;
    recordSimdBackend(json);
    // Fault storm (the robustness half of the figure): same trace,
    // back-to-back, with executor task bodies dying at a seeded rate.
    // The engine must drain (no deadlock, no leaked pages) and keep
    // most of its goodput — faults cost only the co-batch rounds they
    // hit, not the server.
    constexpr double kStormRate = 5e-4;
    StormResult clean = runStorm(weights, tr, 0.0);
    StormResult storm = runStorm(weights, tr, kStormRate);
    double clean_goodput =
        static_cast<double>(clean.goodTokens) / clean.makespan;
    double storm_goodput =
        static_cast<double>(storm.goodTokens) / storm.makespan;
    double token_ratio = static_cast<double>(storm.goodTokens) /
                         static_cast<double>(clean.goodTokens);

    Table ts({"fault_rate", "goodput_tok_s", "completed", "errored"});
    ts.newRow()
        .add("0")
        .add(clean_goodput, 1)
        .add(static_cast<double>(clean.completed), 0)
        .add(static_cast<double>(clean.errored), 0);
    ts.newRow()
        .add(std::to_string(kStormRate))
        .add(storm_goodput, 1)
        .add(static_cast<double>(storm.completed), 0)
        .add(static_cast<double>(storm.errored), 0);
    ts.print(std::cout,
             "Fault storm — injected exec.task failures, goodput = "
             "naturally-finished tokens / makespan");
    std::cout << "goodput retained under storm: " << token_ratio
              << "x of clean tokens (" << storm.errored
              << " requests retired with error)\n";

    json.record("serving_mtbench")
        .field("requests", static_cast<double>(kNumRequests))
        .field("useful_tokens",
               static_cast<double>(tr.usefulTokens))
        .field("continuous_tok_s", cont_tput)
        .field("static_tok_s", stat_tput)
        .field("continuous_vs_static", cont_tput / stat_tput)
        .field("mean_latency_continuous_s", cont.meanLatency)
        .field("mean_latency_static_s", stat.meanLatency);
    // Shared-system-prompt workload: identical requests served with
    // the prefix cache off (cold) and on (hot) at two prefix skews.
    // Tokens are bit-identical either way (tested in
    // tests/runtime/test_prefix_cache.cc); the cache only converts
    // shared-prefix prefill work into page refcount bumps, so the
    // figure is pure speedup: useful tokens/s and time-to-first-token.
    std::vector<int> sys;
    {
        Rng sysRng(4040);
        for (std::size_t k = 0; k < kSysPromptLen; ++k)
            sys.push_back(static_cast<int>(sysRng.uniformInt(
                0, static_cast<std::int64_t>(cfg.vocab) - 1)));
    }
    Table tp({"prefix_skew", "cache", "useful_tok_s", "mean_ttft_ms",
              "hit_rate", "cached_pages"});
    double hi_speedup = 0.0, hi_hit_rate = 0.0;
    PrefixRun hi_hot{}, hi_cold{};
    for (double skew : {0.5, 1.0}) {
        PrefixTrace ptr = makePrefixTrace(cfg, sys, skew, 909);
        PrefixRun cold = runPrefix(weights, sys, ptr, false);
        PrefixRun hot = runPrefix(weights, sys, ptr, true);
        double hit_rate =
            hot.stats.lookups == 0
                ? 0.0
                : static_cast<double>(hot.stats.hits) /
                      static_cast<double>(hot.stats.lookups);
        tp.newRow()
            .add(skew, 2)
            .add("cold")
            .add(cold.tput, 1)
            .add(cold.meanTtft * 1e3, 2)
            .add(0.0, 2)
            .add(0.0, 0);
        tp.newRow()
            .add(skew, 2)
            .add("hot")
            .add(hot.tput, 1)
            .add(hot.meanTtft * 1e3, 2)
            .add(hit_rate, 2)
            .add(static_cast<double>(hot.cachedPages), 0);
        if (skew == 1.0) {
            hi_speedup = hot.tput / cold.tput;
            hi_hit_rate = hit_rate;
            hi_hot = hot;
            hi_cold = cold;
        }
    }
    tp.print(std::cout,
             "Prefix cache — shared system prompt (" +
                 std::to_string(kPrefixRequests) + " requests, " +
                 std::to_string(kSysPromptLen) +
                 "-token system prompt)");
    std::cout << "high-skew hot vs cold: " << hi_speedup
              << "x useful tokens/s, "
              << hi_cold.meanTtft / hi_hot.meanTtft
              << "x lower TTFT; cache skipped "
              << hi_hot.stats.bytesPrefillSkipped
              << " KV bytes of prefill ("
              << hi_hot.stats.pagesReused << " page attaches, "
              << hi_hot.stats.pagesEvicted << " evictions)\n";

    json.record("serving_fault_storm")
        .field("fault_rate", kStormRate)
        .field("clean_goodput_tok_s", clean_goodput)
        .field("storm_goodput_tok_s", storm_goodput)
        .field("storm_token_ratio", token_ratio)
        .field("storm_completed",
               static_cast<double>(storm.completed))
        .field("storm_errored", static_cast<double>(storm.errored));
    json.record("serving_prefix")
        .field("requests", static_cast<double>(kPrefixRequests))
        .field("sys_prompt_tokens",
               static_cast<double>(kSysPromptLen))
        .field("hit_rate", hi_hit_rate)
        .field("hot_tok_s", hi_hot.tput)
        .field("cold_tok_s", hi_cold.tput)
        .field("hit_tokens_per_s_vs_cold", hi_speedup)
        .field("mean_ttft_hot_s", hi_hot.meanTtft)
        .field("mean_ttft_cold_s", hi_cold.meanTtft)
        .field("bytes_prefill_skipped",
               static_cast<double>(hi_hot.stats.bytesPrefillSkipped))
        .field("cached_pages",
               static_cast<double>(hi_hot.cachedPages));
    json.write("BENCH_serving.json");
    std::cout << "wrote BENCH_serving.json\n";
    return 0;
}
