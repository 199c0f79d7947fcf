/**
 * @file
 * The CGOPipe round as data (paper §4.1, Algorithm 1): an ordered
 * list of nodes, each one task on one of the four queues, with its
 * dependencies. The list order is the submission order.
 * PipelinedEngine submits plans through one loop, binding one body per
 * stage; buildSchedule() gives the same nodes PerfModel durations.
 *
 * Decode round. Per layer i and micro-batch j: PreAttn → OffloadQkv
 * (which also appends the new K/V) → CpuAttn → LoadH → PostAttn (the
 * last layer also samples). Chain (i, j) waits on layer i's weights
 * and on PostAttn (i - 1, j); chains are launched kLookahead ahead of
 * the PostAttn being queued (Algorithm 1 lines 2-7).
 *
 * Weight stream. Layer t streams into slot t % kWeightSlots. A round
 * first loads layer 0, which moves nothing when the prior round's
 * wrap-around chunk streamed it (loads skip resident pages). Each
 * layer i then streams layer i + 1 in `chunks` Weights nodes spread
 * over its micro-batches; the last layer streams layer `layers`, the
 * next round's layer 0, so the link never idles at the round
 * boundary. A layer's readiness is its last chunk (the HtoD FIFO
 * retires the earlier ones first). The first chunk that moves pages
 * waits on layer t - 2's last PostAttn, so the slot's previous
 * occupant has retired; with more micro-batches than pages the first
 * chunks are empty.
 *
 * CPU-FFN rounds (cpuFfnRound). One micro-batch that cannot touch
 * every expert runs its MoE FFN on the CPU (the policy's F_g = CPU,
 * §4.2) over the host-resident experts, so no expert page crosses
 * the link: each layer streams only its dense pages ahead, and its
 * PostAttn splits into Route (O projection, residual, ffn_norm,
 * router, top-k), OffloadFfn (the normed rows and their routing to
 * the host), CpuFfn, LoadFfn (the FFN output back) and Ffn (the
 * residual add). The dense chunk is queued ahead of LoadH, so it
 * streams under the attention; Route is the layer's last reader of
 * its slot. The same kernel reads the same floats, so tokens do not
 * change.
 *
 * Prefill round (the zigzag of §4): per layer, a Weights node for the
 * whole layer (waiting on layer t - 2's Prefill), then a Prefill node
 * over every admitted prompt; a final Sample node draws each prompt's
 * first token. A wrap-around Weights node streams layer 0's dense
 * pages into slot 0 once layer l - 2's Prefill retired, so the decode
 * round that follows finds them resident.
 */

#ifndef MOELIGHT_SCHED_ROUND_PLAN_HH
#define MOELIGHT_SCHED_ROUND_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/strong_types.hh"
#include "sim/task_graph.hh"  // ResourceKind

namespace moelight {

/** Algorithm 1's CPU-attention lead, in micro-batches. */
constexpr std::size_t kLookahead = 2;

/** Weight slots of the double buffer. */
constexpr std::size_t kWeightSlots = 2;

/** True when a decode round of @p ubs micro-batches over @p rows rows,
 *  each routed to @p k of @p ne experts, runs its MoE FFN on the CPU:
 *  one micro-batch with rows * k < ne. */
bool cpuFfnRound(std::size_t ubs, std::size_t rows, std::size_t k,
                 std::size_t ne);

/** What a node does; the letter starts its label, then its queue. */
enum class Stage : std::uint8_t
{
    Weights,       ///< W, HtoD: pages [pageLo, pageHi) of a layer
    PreAttn,       ///< A, Gpu: attn_norm, Q/K/V projections
    OffloadQkv,    ///< Q, DtoH: Q/K/V to host, K/V appended
    CpuAttn,       ///< B, Cpu: decode attention
    LoadH,         ///< H, HtoD: attention output back
    PostAttn,      ///< C, Gpu: Route, then the MoE FFN and residual
    Route,         ///< R, Gpu: O projection, residual, router, top-k
    OffloadFfn,    ///< D, DtoH: the normed rows and routing to host
    CpuFfn,        ///< F, Cpu: MoE FFN over the host-resident experts
    LoadFfn,       ///< Y, HtoD: the FFN output back
    Ffn,           ///< E, Gpu: residual add of the CPU FFN's output
    Prefill,       ///< P, Gpu: one layer of every admitted prompt
    Sample,        ///< S, Gpu: each admitted prompt's first token
};

/** Index of a node within its plan. */
using NodeId = std::uint32_t;

/** One task of a round. */
struct PlanNode
{
    Stage stage = Stage::Weights;
    /** Computed on or, for Weights, streamed; a decode round's
     *  wrap-around chunks stream layer `layers`. */
    LayerIdx layer;
    std::size_t ub = 0;        ///< micro-batch (a chunk's: its carrier)
    std::vector<NodeId> deps;  ///< may name a later node
    std::size_t pageLo = 0, pageHi = 0;  ///< Weights only

    ResourceKind queue() const;
};

/** A round in submission order. */
using RoundPlan = std::vector<PlanNode>;

/** Everything a decode round's schedule depends on. */
struct RoundShape
{
    std::size_t layers = 0;
    std::size_t ubs = 0;            ///< micro-batches
    std::size_t chunks = 0;         ///< Weights nodes per streamed layer
    std::size_t pagesPerLayer = 0;  ///< pages a full layer streams
    std::size_t densePages = 0;     ///< pages a CPU-FFN layer streams
    bool cpuFfn = false;            ///< cpuFfnRound()

    bool operator==(const RoundShape &) const = default;
};

RoundPlan planDecodeRound(const RoundShape &shape);
RoundPlan planPrefillRound(std::size_t layers, std::size_t pages,
                           std::size_t densePages);

/** "A(L3,U1)"; a Weights node adds its pages: "W(L4,U0,p0:7)". */
std::string label(const PlanNode &n);

} // namespace moelight

#endif // MOELIGHT_SCHED_ROUND_PLAN_HH
