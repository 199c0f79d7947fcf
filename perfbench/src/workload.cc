#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hh"

namespace perfbench {

using namespace moelight;

ModelConfig
benchModel()
{
    ModelConfig m;
    m.name = "bench-moe";
    m.l = 4;
    m.h1 = 256;
    m.h2 = 512;
    m.nq = 4;
    m.nkv = 1;
    m.headDim = 64;
    m.ne = 8;
    m.k = 2;
    m.vocab = 1024;
    m.dtWeight = DataType::F32;
    m.dtKv = DataType::F32;
    m.validate();
    return m;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> v;

        // The paper's headline setting: a closed batch of unshared
        // prompts with long generations, float KV, ample capacity.
        WorkloadSpec decode;
        decode.name = "offline_decode";
        decode.loop = Loop::Closed;
        decode.passRequests = 128;
        decode.passSeconds = 10.0;
        decode.novelMin = 24;
        decode.novelMax = 40;
        decode.genMin = 64;
        decode.genMax = 64;
        v.push_back(decode);  // every prefix lookup misses, no preemption

        // The memory-constrained regime: int8 KV and MTBench-like mixed
        // lengths under a KV budget that, not the 32 slots, bounds the
        // batch, so admission defers and preemption recurs.
        WorkloadSpec tight;
        tight.name = "offline_kv_int8_tight";
        tight.loop = Loop::Closed;
        tight.passRequests = 100;
        tight.passSeconds = 10.0;
        tight.novelMin = 16;
        tight.novelMax = 128;
        tight.genMin = 8;
        tight.genMax = 128;
        tight.kvQuant = QuantKind::Int8;
        tight.kvCapacityTokens = 32000;
        tight.expectPreemptions = true;
        // Resumed requests may hit their own cached prompt pages.
        tight.maxHitRate = 1.0;
        v.push_back(tight);

        // Chat traffic: a shared 12-page system prompt plus a unique
        // user turn, arriving as a Poisson process at a fixed rate.
        WorkloadSpec chat;
        chat.name = "chat_prefix_open";
        chat.loop = Loop::Open;
        chat.ratePerSec = 4.0;
        chat.sharedPrefix = 192;
        chat.novelMin = 24;
        chat.novelMax = 40;
        chat.genMin = 8;
        chat.genMax = 24;
        chat.minHitRate = 0.9;
        chat.maxHitRate = 1.0;
        chat.expectIdle = true;
        v.push_back(chat);
        return v;
    }();
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

EngineConfig
engineConfigFor(const WorkloadSpec &w)
{
    EngineConfig ec;
    ec.microBatch = 8;
    ec.maxConcurrency = 32;
    ec.kvPageTokens = 16;
    ec.prefixCache = true;
    ec.cpuAttnThreads = 0;
    ec.kvQuant = w.kvQuant;
    ec.kvCapacityTokens = w.kvCapacityTokens;
    return ec;
}

namespace {

/** Consecutive requests whose lengths are stratified together; in the
 *  open loop also the arrivals per slot of the trace. */
constexpr std::size_t kBlock = 10;
/** Stream of the open loop's arrival trace, the same for every seed. */
constexpr std::uint64_t kArrivalTraceSeed = 0xa771;

/** SplitMix64 finalizer: independent streams from (seed, pass, use). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t pass, std::uint64_t use)
{
    return mix(mix(mix(seed) ^ pass) ^ use);
}

void
appendTokens(std::vector<int> &out, std::size_t n, Rng &rng,
             std::size_t vocab)
{
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(static_cast<int>(
            rng.uniformInt(0, static_cast<std::int64_t>(vocab) - 1)));
}

/**
 * @p n lengths covering [lo, hi] evenly, in seeded order: the midpoints
 * of n equal slices of the range, so every seed gets the same lengths.
 * They are dealt out so that each block of kBlock consecutive requests
 * holds one length from each of kBlock strata (the shortest tenth, the
 * next tenth, ...). The seed picks which length of a stratum goes to
 * which block and the order within a block, so neither the work of a
 * run nor where in the queue the short and long requests sit varies
 * much with the seed.
 */
std::vector<std::int64_t>
stratified(std::size_t n, std::int64_t lo, std::int64_t hi, Rng &rng)
{
    const double width = static_cast<double>(hi - lo + 1);
    std::vector<std::vector<std::int64_t>> blocks((n + kBlock - 1) / kBlock);
    for (std::size_t s = 0; s < kBlock; ++s) {
        std::vector<std::int64_t> stratum;
        for (std::size_t i = s * n / kBlock; i < (s + 1) * n / kBlock; ++i) {
            double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
            stratum.push_back(
                std::min(hi, lo + static_cast<std::int64_t>(u * width)));
        }
        std::shuffle(stratum.begin(), stratum.end(), rng.engine());
        for (std::size_t b = 0; b < stratum.size(); ++b)
            blocks[b].push_back(stratum[b]);
    }
    std::vector<std::int64_t> v;
    for (std::vector<std::int64_t> &b : blocks) {
        std::shuffle(b.begin(), b.end(), rng.engine());
        v.insert(v.end(), b.begin(), b.end());
    }
    return v;
}

} // namespace

Plan
makePlan(const WorkloadSpec &w, std::uint64_t seed, std::size_t pass,
         double windowSec, std::int64_t firstId)
{
    const std::size_t vocab = benchModel().vocab;
    // The system prompt is one per run (pass-independent), so every
    // pass of a run shares it.
    std::vector<int> sys;
    Rng sysRng(streamSeed(seed, 0, 1));
    appendTokens(sys, w.sharedPrefix, sysRng, vocab);

    // A fixed count (not a fixed window) so every seed serves the same
    // number of requests.
    const std::size_t count =
        w.loop == Loop::Closed
            ? w.passRequests
            : static_cast<std::size_t>(std::llround(w.ratePerSec * windowSec));
    Rng rng(streamSeed(seed, pass, 2));
    const std::vector<std::int64_t> novel =
        stratified(count, static_cast<std::int64_t>(w.novelMin),
                   static_cast<std::int64_t>(w.novelMax), rng);
    const std::vector<std::int64_t> gen =
        stratified(count, w.genMin, w.genMax, rng);

    Plan plan;
    plan.due.assign(count, 0.0);
    if (w.loop == Loop::Open && count > 0) {
        // The window is cut into slots of kBlock arrivals
        // each; within a slot the arrivals are a Poisson process
        // conditioned on that count (cumulative exponential gaps,
        // scaled so one more arrival would land at the slot's end).
        // The trace is drawn from a fixed stream, not from @p seed:
        // like the closed loop's t=0, the arrival schedule is part of
        // the workload, and the seed varies what arrives (prompts and
        // the order of lengths). A p90 over a few hundred requests
        // otherwise moves ~10% with the burstiness of each seed's
        // trace, more than the host noise it is meant to expose.
        Rng arrivals(streamSeed(kArrivalTraceSeed, pass, 4));
        const std::size_t slots =
            std::max<std::size_t>(1, count / kBlock);
        const double slotSec = windowSec / static_cast<double>(slots);
        for (std::size_t k = 0; k < slots; ++k) {
            const std::size_t lo = k * count / slots;
            const std::size_t hi = (k + 1) * count / slots;
            double t = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                t += -std::log(1.0 - arrivals.uniform());
                plan.due[i] = t;
            }
            t += -std::log(1.0 - arrivals.uniform());
            for (std::size_t i = lo; i < hi; ++i)
                plan.due[i] = slotSec * (static_cast<double>(k) +
                                         plan.due[i] / t);
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        ServeRequest r;
        r.id = firstId + static_cast<std::int64_t>(i);
        r.prompt = sys;
        appendTokens(r.prompt, static_cast<std::size_t>(novel[i]), rng,
                     vocab);
        r.maxNewTokens = static_cast<int>(gen[i]);
        plan.requests.push_back(std::move(r));
    }
    return plan;
}

std::vector<ServeRequest>
warmupRequests(std::size_t count, std::int64_t firstId)
{
    const std::size_t vocab = benchModel().vocab;
    Rng rng(streamSeed(0x3a7e, 0, 3));
    std::vector<ServeRequest> out;
    for (std::size_t i = 0; i < count; ++i) {
        ServeRequest r;
        r.id = firstId + static_cast<std::int64_t>(i);
        appendTokens(r.prompt, 24 + i % 9, rng, vocab);
        r.maxNewTokens = 4;
        out.push_back(std::move(r));
    }
    return out;
}

std::string
planBytes(const Plan &plan)
{
    std::string out;
    auto put = [&out](const void *p, std::size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
        const ServeRequest &r = plan.requests[i];
        std::uint64_t n = r.prompt.size();
        put(&r.id, sizeof(r.id));
        put(&n, sizeof(n));
        put(r.prompt.data(), n * sizeof(int));
        put(&r.maxNewTokens, sizeof(r.maxNewTokens));
        put(&plan.due[i], sizeof(double));
    }
    return out;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
