/**
 * The round plan is plain data, so the schedule's guarantees are
 * checked here without threads: the engine's submission order per
 * queue (pinned against recordings), the pages a round streams, and
 * the double buffer's safety as a predicate over the plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sched/round_plan.hh"

#include "round_plan_recorded.hh"

namespace moelight {
namespace {

/** @p tasks (one "<queue> <label> <- <deps>" line per task) split by
 *  queue, each in submission order. */
std::map<std::string, std::vector<std::string>>
byQueue(const std::string &tasks)
{
    std::map<std::string, std::vector<std::string>> out;
    std::istringstream in(tasks);
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            out[line.substr(0, line.find(' '))].push_back(line);
    return out;
}

/** @p plan in the recordings' format. */
std::string
render(const RoundPlan &plan)
{
    std::string out;
    for (const PlanNode &n : plan) {
        out += resourceName(n.queue()) + " " + label(n);
        if (!n.deps.empty())
            out += " <-";
        for (NodeId d : n.deps)
            out += " " + label(plan[d]);
        out += "\n";
    }
    return out;
}

RoundShape
recordedShape(const recorded::DecodeRound &r)
{
    return {.layers = r.layers,
            .ubs = r.ubs,
            .chunks = r.ubs,
            .pagesPerLayer = recorded::kPages,
            .densePages = recorded::kDensePages,
            .cpuFfn = r.cpuFfn};
}

RoundShape
fullShape(std::size_t layers, std::size_t ubs, std::size_t pages = 13)
{
    return {.layers = layers,
            .ubs = ubs,
            .chunks = ubs,
            .pagesPerLayer = pages,
            .densePages = 7,
            .cpuFfn = false};
}

// ---------------------------------------------------------------------
// (a) Every queue receives the recorded tasks in the recorded order.
// ---------------------------------------------------------------------

TEST(RoundPlan, DecodeMatchesRecordedSubmissionOrder)
{
    for (const recorded::DecodeRound &r : recorded::kDecodeRounds) {
        SCOPED_TRACE(r.name);
        auto want = byQueue(r.tasks);
        auto got = byQueue(render(planDecodeRound(recordedShape(r))));
        EXPECT_EQ(got, want);
    }
}

TEST(RoundPlan, PrefillMatchesRecordedSubmissionOrder)
{
    for (const recorded::PrefillRound &r : recorded::kPrefillRounds) {
        SCOPED_TRACE(r.layers);
        EXPECT_EQ(byQueue(render(planPrefillRound(
                      r.layers, recorded::kPages, recorded::kDensePages))),
                  byQueue(r.tasks));
    }
}

TEST(RoundPlan, LabelsNameStageLayerMicroBatchAndPages)
{
    RoundPlan plan = planDecodeRound(fullShape(4, 2));
    EXPECT_EQ(label(plan[0]), "W(L0,U0,p0:13)");
    EXPECT_EQ(label(plan[1]), "A(L0,U0)");
}

// ---------------------------------------------------------------------
// (b) The pages a round streams.
// ---------------------------------------------------------------------

/** [layer][page] -> how many Weights nodes stream it. */
std::vector<std::vector<int>>
pageCounts(const RoundPlan &plan, std::size_t layers, std::size_t pages)
{
    std::vector<std::vector<int>> count(layers, std::vector<int>(pages));
    for (const PlanNode &n : plan) {
        if (n.stage != Stage::Weights)
            continue;
        EXPECT_LT(n.layer.value(), layers) << label(n);
        EXPECT_LE(n.pageLo, n.pageHi) << label(n);
        EXPECT_LE(n.pageHi, pages) << label(n);
        for (std::size_t p = n.pageLo; p < n.pageHi; ++p)
            ++count[n.layer.value()][p];
    }
    return count;
}

std::size_t
countStage(const RoundPlan &plan, Stage s)
{
    std::size_t n = 0;
    for (const PlanNode &node : plan)
        n += node.stage == s;
    return n;
}

TEST(RoundPlan, FullRoundStreamsEveryPageOfEveryLayerOnce)
{
    // Layer 0 is the round's first load; layers 1..l-1 stream under
    // the previous layer, and layer l is the next round's layer 0.
    for (std::size_t layers : {4u, 8u})
        for (std::size_t ubs : {1u, 2u, 3u, 8u, 14u, 31u}) {
            SCOPED_TRACE(::testing::Message() << layers << "x" << ubs);
            RoundPlan plan = planDecodeRound(fullShape(layers, ubs));
            auto count = pageCounts(plan, layers + 1, 13);
            for (const auto &layer : count)
                EXPECT_EQ(layer, std::vector<int>(13, 1));
            EXPECT_EQ(countStage(plan, Stage::CpuFfn), 0u);
            EXPECT_EQ(countStage(plan, Stage::PostAttn), layers * ubs);
        }
}

/** The one dependency of @p n, which must be a node of stage @p s. */
const PlanNode &
onlyDep(const RoundPlan &plan, const PlanNode &n, Stage s)
{
    EXPECT_EQ(n.deps.size(), 1u) << label(n);
    const PlanNode &d = plan[n.deps.at(0)];
    EXPECT_EQ(d.stage, s) << label(n) << " <- " << label(d);
    EXPECT_EQ(d.layer, n.layer) << label(n) << " <- " << label(d);
    return d;
}

TEST(RoundPlan, CpuFfnRoundStreamsNoExpertPage)
{
    for (std::size_t layers : {4u, 8u}) {
        RoundShape s = fullShape(layers, 1);
        s.cpuFfn = true;
        RoundPlan plan = planDecodeRound(s);
        // Only dense pages cross the link, one copy per layer.
        auto count = pageCounts(plan, layers + 1, 13);
        std::vector<int> dense(13, 0);
        std::fill(dense.begin(), dense.begin() + 7, 1);
        for (const auto &layer : count)
            EXPECT_EQ(layer, dense);
        EXPECT_EQ(countStage(plan, Stage::PostAttn), 0u);
        // Per layer: LoadH -> Route -> OffloadFfn -> CpuFfn ->
        // LoadFfn -> Ffn, each on the one before it; the next layer's
        // PreAttn waits on this layer's Ffn.
        for (Stage st : {Stage::Route, Stage::OffloadFfn, Stage::CpuFfn,
                         Stage::LoadFfn, Stage::Ffn})
            EXPECT_EQ(countStage(plan, st), layers);
        for (const PlanNode &n : plan) {
            if (n.stage == Stage::Ffn) {
                const PlanNode &load = onlyDep(plan, n, Stage::LoadFfn);
                const PlanNode &ffn = onlyDep(plan, load, Stage::CpuFfn);
                const PlanNode &off =
                    onlyDep(plan, ffn, Stage::OffloadFfn);
                const PlanNode &route = onlyDep(plan, off, Stage::Route);
                EXPECT_EQ(plan[route.deps.at(0)].stage, Stage::LoadH);
            }
            if (n.stage == Stage::PreAttn && n.layer.value() > 0) {
                ASSERT_EQ(n.deps.size(), 2u) << label(n);
                EXPECT_EQ(label(plan[n.deps[1]]),
                          "E(L" + std::to_string(n.layer.value() - 1) +
                              ",U0)");
            }
        }
    }
}

TEST(RoundPlan, PrefillStreamsEveryPageOfEveryLayerOnce)
{
    for (std::size_t layers : {2u, 4u, 8u}) {
        RoundPlan plan = planPrefillRound(layers, 13, 7);
        auto count = pageCounts(plan, layers + 1, 13);
        for (std::size_t li = 0; li < layers; ++li)
            EXPECT_EQ(count[li], std::vector<int>(13, 1));
        // The wrap-around node streams the next round's layer 0 dense
        // pages.
        std::vector<int> dense(13, 0);
        std::fill(dense.begin(), dense.begin() + 7, 1);
        EXPECT_EQ(count[layers], dense);
        EXPECT_EQ(countStage(plan, Stage::Prefill), layers);
        EXPECT_EQ(countStage(plan, Stage::Sample), 1u);
    }
}

// ---------------------------------------------------------------------
// (c) Double-buffer safety, as a predicate over the plan.
// ---------------------------------------------------------------------

/**
 * before[a][b]: node a retires before node b starts. A task waits on
 * its dependencies and, on its FIFO queue, on the task queued ahead
 * of it.
 */
std::vector<std::vector<bool>>
happensBefore(const RoundPlan &plan)
{
    std::size_t n = plan.size();
    std::vector<std::vector<NodeId>> preds(n);
    std::map<ResourceKind, NodeId> last;
    for (std::size_t i = 0; i < n; ++i) {
        preds[i] = plan[i].deps;
        auto it = last.find(plan[i].queue());
        if (it != last.end())
            preds[i].push_back(it->second);
        last[plan[i].queue()] = static_cast<NodeId>(i);
    }
    std::vector<std::vector<bool>> before(n, std::vector<bool>(n));
    std::vector<int> state(n, 0);  // 0 new, 1 in progress, 2 done
    auto visit = [&](auto &&self, std::size_t b) -> void {
        if (state[b] == 2)
            return;
        ASSERT_EQ(state[b], 0) << "dependency cycle at " << label(plan[b]);
        state[b] = 1;
        for (NodeId a : preds[b]) {
            self(self, a);
            before[a][b] = true;
            for (std::size_t x = 0; x < n; ++x)
                if (before[x][a])
                    before[x][b] = true;
        }
        state[b] = 2;
    };
    for (std::size_t b = 0; b < n; ++b)
        visit(visit, b);
    return before;
}

/** The page classes a node reads or writes: bit 0 dense pages
 *  [0, 7), bit 1 expert pages. 0 when it touches no weight page (a
 *  CPU-FFN round's FFN reads host-resident experts). */
int
weightPages(const PlanNode &n)
{
    constexpr std::size_t kDense = 7;
    switch (n.stage) {
      case Stage::Weights:
        return (n.pageLo < std::min(n.pageHi, kDense) ? 1 : 0) |
               (n.pageHi > std::max(n.pageLo, kDense) ? 2 : 0);
      case Stage::PreAttn:
      case Stage::Route:
        return 1;
      case Stage::PostAttn:
      case Stage::Prefill:
        return 3;
      default:
        return 0;
    }
}

bool
writes(const PlanNode &n)
{
    return n.stage == Stage::Weights;
}

/**
 * Every node that writes layer t's slot (t % 2) retires after every
 * reader of layer t - 2, the slot's previous occupant; and every
 * reader of layer t starts after every write of the pages it reads.
 */
void
expectDoubleBufferSafe(const RoundPlan &plan)
{
    auto before = happensBefore(plan);
    for (std::size_t w = 0; w < plan.size(); ++w) {
        if (!writes(plan[w]) || weightPages(plan[w]) == 0)
            continue;
        std::size_t t = plan[w].layer.value();
        for (std::size_t r = 0; r < plan.size(); ++r) {
            if (writes(plan[r]) || weightPages(plan[r]) == 0)
                continue;
            std::size_t read = plan[r].layer.value();
            if (read + kWeightSlots == t) {
                EXPECT_TRUE(before[r][w])
                    << label(plan[w]) << " may overwrite "
                    << label(plan[r]) << "'s weights";
            }
            if (read == t && (weightPages(plan[r]) & weightPages(plan[w]))) {
                EXPECT_TRUE(before[w][r])
                    << label(plan[r]) << " may read before "
                    << label(plan[w]) << " landed";
            }
        }
    }
}

TEST(RoundPlan, DecodeDoubleBufferIsSafe)
{
    for (std::size_t layers : {4u, 8u})
        for (std::size_t ubs : {1u, 2u, 3u, 14u}) {
            SCOPED_TRACE(::testing::Message() << layers << "x" << ubs);
            expectDoubleBufferSafe(planDecodeRound(fullShape(layers, ubs)));
        }
}

TEST(RoundPlan, DoubleBufferIsSafeWhenFirstChunksAreEmpty)
{
    // 14 micro-batches over 13 pages: chunk 0 moves no pages, so the
    // slot dependency rides on chunk 1.
    RoundPlan plan = planDecodeRound(fullShape(4, 14));
    std::map<std::string, const PlanNode *> by_label;
    for (const PlanNode &n : plan)
        by_label[label(n)] = &n;
    ASSERT_TRUE(by_label.count("W(L2,U0,p0:0)"));
    EXPECT_TRUE(by_label["W(L2,U0,p0:0)"]->deps.empty());
    const PlanNode *first = by_label.at("W(L2,U1,p0:1)");
    ASSERT_EQ(first->deps.size(), 1u);
    EXPECT_EQ(label(plan[first->deps[0]]), "C(L0,U13)");
    expectDoubleBufferSafe(plan);
    // 3 micro-batches over 2 pages: chunk 0 is empty too.
    expectDoubleBufferSafe(planDecodeRound(fullShape(4, 3, 2)));
}

TEST(RoundPlan, CpuFfnDoubleBufferIsSafe)
{
    for (std::size_t layers : {4u, 8u}) {
        RoundShape s = fullShape(layers, 1);
        s.cpuFfn = true;
        expectDoubleBufferSafe(planDecodeRound(s));
    }
}

TEST(RoundPlan, PrefillDoubleBufferIsSafe)
{
    for (std::size_t layers : {2u, 4u, 8u})
        expectDoubleBufferSafe(planPrefillRound(layers, 13, 7));
}

TEST(RoundPlan, CpuFfnRoundNeedsOneMicroBatchShortOfEveryExpert)
{
    EXPECT_TRUE(cpuFfnRound(1, 1, 2, 8));
    EXPECT_TRUE(cpuFfnRound(1, 3, 2, 8));
    EXPECT_FALSE(cpuFfnRound(1, 4, 2, 8));   // rows * k reaches ne
    EXPECT_FALSE(cpuFfnRound(2, 2, 2, 8));   // two micro-batches
    RoundShape s = fullShape(4, 2);
    s.cpuFfn = true;
    EXPECT_THROW(planDecodeRound(s), PanicError);
}

} // namespace
} // namespace moelight
