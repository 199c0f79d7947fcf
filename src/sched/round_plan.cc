#include "sched/round_plan.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.hh"

namespace moelight {

namespace {

/** A dependency on layer t's readiness, which the lookahead needs
 *  before the layer's last chunk is in the plan, is recorded as
 *  kReadyRef + t and resolved once the round is built. */
constexpr NodeId kReadyRef = NodeId(1) << 31;

NodeId
add(RoundPlan &plan, Stage stage, std::size_t layer, std::size_t ub,
    std::vector<NodeId> deps, std::size_t lo = 0, std::size_t hi = 0)
{
    plan.push_back({stage, LayerIdx(layer), ub, std::move(deps), lo, hi});
    return static_cast<NodeId>(plan.size() - 1);
}

} // namespace

bool
cpuFfnRound(std::size_t ubs, std::size_t rows, std::size_t k,
            std::size_t ne)
{
    return ubs == 1 && rows * k < ne;
}

ResourceKind
PlanNode::queue() const
{
    using R = ResourceKind;
    static constexpr R kQueues[] = {R::HtoD, R::Gpu,  R::DtoH, R::Cpu,
                                    R::HtoD, R::Gpu,  R::Gpu,  R::DtoH,
                                    R::Cpu,  R::HtoD, R::Gpu,  R::Gpu,
                                    R::Gpu};
    return kQueues[static_cast<std::size_t>(stage)];
}

std::string
label(const PlanNode &n)
{
    std::string s = {"WAQBHCRDFYEPS"[static_cast<std::size_t>(n.stage)]};
    s += "(L" + std::to_string(n.layer.value()) + ",U" +
         std::to_string(n.ub);
    if (n.stage == Stage::Weights)
        s += ",p" + std::to_string(n.pageLo) + ":" +
             std::to_string(n.pageHi);
    return s + ")";
}

RoundPlan
planDecodeRound(const RoundShape &s)
{
    panicIf(s.layers == 0 || s.ubs == 0 || s.chunks == 0,
            "a decode round needs layers, micro-batches and chunks");
    panicIf(s.cpuFfn && s.ubs != 1,
            "a CPU-FFN round has one micro-batch");
    const std::size_t ubs = s.ubs, total = s.layers * ubs;
    const std::size_t pages = s.cpuFfn ? s.densePages : s.pagesPerLayer;
    RoundPlan plan;
    std::vector<NodeId> ready(s.layers + 1);  ///< last chunk per layer
    std::vector<NodeId> attn(total), post(ubs);
    /** Last weight reader of the layer each slot holds. */
    std::array<std::optional<NodeId>, kWeightSlots> slot_busy;

    ready[0] = add(plan, Stage::Weights, 0, 0, {}, 0, pages);

    std::size_t next_chain = 0;
    auto pump = [&](std::size_t up_to) {
        for (; next_chain < total && next_chain <= up_to; ++next_chain) {
            std::size_t i = next_chain / ubs, j = next_chain % ubs;
            std::vector<NodeId> deps{kReadyRef + static_cast<NodeId>(i)};
            if (i > 0)
                deps.push_back(post[j]);
            NodeId pre = add(plan, Stage::PreAttn, i, j, std::move(deps));
            NodeId off = add(plan, Stage::OffloadQkv, i, j, {pre});
            attn[next_chain] = add(plan, Stage::CpuAttn, i, j, {off});
        }
    };
    // Micro-batch j of layer i carries chunks [chunks*j/ubs,
    // chunks*(j+1)/ubs) of layer i + 1, each an equal share of pages.
    auto stream = [&](std::size_t i, std::size_t j) {
        std::size_t t = i + 1;
        for (std::size_t c = s.chunks * j / ubs;
             c < s.chunks * (j + 1) / ubs; ++c) {
            std::size_t lo = pages * c / s.chunks;
            std::size_t hi = pages * (c + 1) / s.chunks;
            std::vector<NodeId> deps;
            if (lo == 0 && hi > 0 && slot_busy[t % kWeightSlots])
                deps.push_back(*slot_busy[t % kWeightSlots]);
            ready[t] = add(plan, Stage::Weights, t, j, std::move(deps),
                           lo, hi);
        }
    };

    std::size_t la = std::min(kLookahead, ubs);
    pump(la - 1);
    for (std::size_t m = 0; m < total; ++m) {
        std::size_t i = m / ubs, j = m % ubs;
        NodeId weights = kReadyRef + static_cast<NodeId>(i);
        if (s.cpuFfn)
            stream(i, j);
        NodeId loadh = add(plan, Stage::LoadH, i, j, {attn[m]});
        NodeId reader;
        if (s.cpuFfn) {
            reader = add(plan, Stage::Route, i, j, {loadh, weights});
            NodeId off = add(plan, Stage::OffloadFfn, i, j, {reader});
            NodeId ffn = add(plan, Stage::CpuFfn, i, j, {off});
            NodeId back = add(plan, Stage::LoadFfn, i, j, {ffn});
            post[j] = add(plan, Stage::Ffn, i, j, {back});
        } else {
            stream(i, j);
            reader = post[j] =
                add(plan, Stage::PostAttn, i, j, {loadh, weights});
        }
        if (j + 1 == ubs)
            slot_busy[i % kWeightSlots] = reader;
        pump(m + la);
    }

    for (PlanNode &n : plan)
        for (NodeId &d : n.deps)
            if (d >= kReadyRef)
                d = ready[d - kReadyRef];
    return plan;
}

RoundPlan
planPrefillRound(std::size_t layers, std::size_t pages,
                 std::size_t densePages)
{
    panicIf(layers < kWeightSlots,
            "a prefill round needs a layer per weight slot");
    RoundPlan plan;
    std::vector<NodeId> done;
    for (std::size_t li = 0; li < layers; ++li) {
        std::vector<NodeId> load_deps;
        if (li >= kWeightSlots)
            load_deps.push_back(done[li - kWeightSlots]);
        NodeId loaded = add(plan, Stage::Weights, li, 0,
                            std::move(load_deps), 0, pages);
        std::vector<NodeId> deps{loaded};
        if (li > 0)
            deps.push_back(done[li - 1]);
        done.push_back(add(plan, Stage::Prefill, li, 0, std::move(deps)));
    }
    // Layer `layers` is the next round's layer 0, in slot 0 after
    // layer l - 2.
    add(plan, Stage::Weights, layers, 0, {done[layers - kWeightSlots]}, 0,
        densePages);
    add(plan, Stage::Sample, layers - 1, 0, {done.back()});
    return plan;
}

} // namespace moelight
