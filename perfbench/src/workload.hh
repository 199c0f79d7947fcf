/**
 * @file
 * The benchmark's model, engine configuration and seeded request
 * generator. The engine only ever sees the ServeRequests built here;
 * everything about a workload (prompt shapes, generation budgets,
 * arrival times) is a deterministic function of the command-line seed.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernels/quant.hh"
#include "model/model_config.hh"
#include "runtime/engine.hh"
#include "runtime/serving.hh"

namespace perfbench {

/** Seed of ModelWeights::random for bench-moe (the model's identity;
 *  the workload seed varies only the requests). */
inline constexpr std::uint64_t kWeightSeed = 0xbe9c;

/**
 * bench-moe: Mixtral's GQA group of 4 and top-2-of-8 routing at a
 * scale one host core serves in seconds, with 64-wide heads so the
 * SIMD attention kernels run full vectors. F32 weights and KV.
 */
moelight::ModelConfig benchModel();

enum class Loop
{
    Closed,  ///< every request of a pass is due at the pass start
    Open,    ///< Poisson arrivals at a fixed rate, independent of service
};

/** One named workload: a traffic shape plus its engine overrides. */
struct WorkloadSpec
{
    std::string name;
    Loop loop = Loop::Closed;
    /** Requests per closed pass (closed loop only). */
    std::size_t passRequests = 0;
    /** Nominal seconds per pass: a closed run serves
     *  round(--seconds / passSeconds) passes, at least one. The work
     *  is fixed for a given --seconds, so counts repeat exactly and a
     *  faster build finishes sooner. */
    double passSeconds = 0.0;
    /** Arrival rate in requests/s (open loop only). Fixed, never
     *  re-calibrated to the host, so every build sees the same load. */
    double ratePerSec = 0.0;
    /** Tokens of a system prompt every request opens with (0 = none);
     *  a whole number of KV pages so the prefix cache can share it. */
    std::size_t sharedPrefix = 0;
    /** Inclusive range of each request's own (unshared) prompt tokens. */
    std::size_t novelMin = 0, novelMax = 0;
    /** Inclusive range of generation budgets. */
    int genMin = 0, genMax = 0;
    std::optional<moelight::QuantKind> kvQuant{};
    std::size_t kvCapacityTokens = 1u << 16;

    // What defines the workload, checked and reported on every run.
    bool expectPreemptions = false;  ///< > 0 preemptions, else none
    double minHitRate = 0.0;         ///< prefix-cache hit-rate range
    double maxHitRate = 0.0;
    bool expectIdle = false;  ///< the driver idles: load below capacity
};

/** The benchmark's workloads, in the order they are documented. */
const std::vector<WorkloadSpec> &workloads();

/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The one engine configuration, with @p w's KV overrides applied. */
moelight::EngineConfig engineConfigFor(const WorkloadSpec &w);

/** The requests of one pass and the second each is due, counted from
 *  the pass start. */
struct Plan
{
    std::vector<moelight::ServeRequest> requests;
    std::vector<double> due;
};

/**
 * Generate pass @p pass of workload @p w for @p seed. Closed loop:
 * passRequests requests, all due at 0. Open loop: rate * @p windowSec
 * requests (rounded) over [0, windowSec), Poisson within consecutive
 * slots of ten arrivals each, on a trace that is the same for every
 * seed. Prompt and generation lengths are stratified over their ranges
 * in blocks of ten requests; the seed orders them within a block and
 * picks the tokens. Request ids start at @p firstId.
 * Same (seed, pass, windowSec) gives a byte-identical plan.
 */
Plan makePlan(const WorkloadSpec &w, std::uint64_t seed, std::size_t pass,
              double windowSec, std::int64_t firstId);

/** Short requests served during set-up to warm the engine; they share
 *  nothing with any workload's prompts. */
std::vector<moelight::ServeRequest> warmupRequests(std::size_t count,
                                                   std::int64_t firstId);

/** A plan's ids, prompts, budgets and due times as raw bytes, for
 *  determinism checks and the printed digest. */
std::string planBytes(const Plan &plan);

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
