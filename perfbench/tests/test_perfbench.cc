/**
 * @file
 * Tests of the benchmark's own machinery: the seeded generator, the
 * percentile rule, round classification and the minimum-sample guard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "runner.hh"
#include "stats.hh"
#include "workload.hh"

using namespace perfbench;

TEST(Generator, SameSeedGivesByteIdenticalPlan)
{
    for (const WorkloadSpec &w : workloads()) {
        Plan a = makePlan(w, 42, 3, 15.0, 100);
        Plan b = makePlan(w, 42, 3, 15.0, 100);
        ASSERT_FALSE(a.requests.empty()) << w.name;
        EXPECT_EQ(planBytes(a), planBytes(b)) << w.name;
        EXPECT_NE(planBytes(a), planBytes(makePlan(w, 43, 3, 15.0, 100)))
            << w.name;
        EXPECT_NE(planBytes(a), planBytes(makePlan(w, 42, 4, 15.0, 100)))
            << w.name;
    }
}

TEST(Generator, RequestsFollowTheWorkloadShape)
{
    const std::size_t vocab = benchModel().vocab;
    for (const WorkloadSpec &w : workloads()) {
        Plan p = makePlan(w, 7, 0, 15.0, 0);
        ASSERT_EQ(p.requests.size(), p.due.size());
        for (std::size_t i = 0; i < p.requests.size(); ++i) {
            const auto &r = p.requests[i];
            EXPECT_EQ(r.id, static_cast<std::int64_t>(i));
            std::size_t novel = r.prompt.size() - w.sharedPrefix;
            EXPECT_GE(novel, w.novelMin);
            EXPECT_LE(novel, w.novelMax);
            EXPECT_GE(r.maxNewTokens, w.genMin);
            EXPECT_LE(r.maxNewTokens, w.genMax);
            for (int t : r.prompt)
                EXPECT_LT(static_cast<std::size_t>(t), vocab);
            if (w.loop == Loop::Closed) {
                EXPECT_EQ(p.due[i], 0.0);
            } else if (i > 0) {
                EXPECT_GE(p.due[i], p.due[i - 1]);
            }
        }
    }
}

TEST(Generator, ChatPromptsShareTheSystemPrompt)
{
    const WorkloadSpec *w = findWorkload("chat_prefix_open");
    ASSERT_NE(w, nullptr);
    // A window of ten slots, each of ten arrivals at the fixed rate.
    const double slotSec = 10.0 / w->ratePerSec;
    const double window = 10 * slotSec;
    Plan p = makePlan(*w, 5, 0, window, 0);
    ASSERT_EQ(p.requests.size(), 100u);
    for (const auto &r : p.requests)
        EXPECT_TRUE(std::equal(r.prompt.begin(),
                               r.prompt.begin() + 192,
                               p.requests.front().prompt.begin()));
    std::vector<int> perSlot(10, 0);
    for (double d : p.due) {
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, window);
        ++perSlot[static_cast<std::size_t>(d / slotSec)];
    }
    for (int n : perSlot)
        EXPECT_EQ(n, 10);
}

TEST(Generator, SeedsShareTheArrivalTraceAndLengths)
{
    // The seed orders the lengths and picks the tokens; the arrival
    // trace and the multiset of lengths are the workload's own.
    for (const WorkloadSpec &w : workloads()) {
        Plan a = makePlan(w, 1, 0, 15.0, 0);
        Plan b = makePlan(w, 2, 0, 15.0, 0);
        EXPECT_EQ(a.due, b.due) << w.name;
        auto lengths = [](const Plan &p) {
            std::vector<std::size_t> prompts;
            std::vector<int> gens;
            for (const auto &r : p.requests) {
                prompts.push_back(r.prompt.size());
                gens.push_back(r.maxNewTokens);
            }
            std::sort(prompts.begin(), prompts.end());
            std::sort(gens.begin(), gens.end());
            return std::make_pair(prompts, gens);
        };
        EXPECT_EQ(lengths(a), lengths(b)) << w.name;
    }
}

TEST(Percentile, P90NeedsTenSamplesBeyondIt)
{
    std::vector<double> v(99);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_FALSE(percentile(v, 0.9).has_value());
    v.push_back(100.0);
    ASSERT_TRUE(percentile(v, 0.9).has_value());
    EXPECT_EQ(*percentile(v, 0.9), 90.0);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(*percentile(v, 0.5), 50.0);
}

TEST(Percentile, MedianNeedsTenSamplesBeyondIt)
{
    std::vector<double> v(19, 1.0);
    EXPECT_FALSE(percentile(v, 0.5).has_value());
    v.push_back(1.0);
    EXPECT_TRUE(percentile(v, 0.5).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Rounds, ScriptedTraceIsClassified)
{
    // pendingBefore, submitted, pendingAfter, preempted
    struct Case
    {
        RoundObservation obs;
        bool admit;
        std::size_t admitted;
    };
    const Case script[] = {
        {{0, 10, 2, 0}, true, 8},   // closed batch: 8 of 10 admitted
        {{2, 0, 2, 0}, false, 0},   // nothing freed: decode round
        {{2, 0, 0, 0}, true, 2},    // the rest admitted
        {{0, 1, 1, 0}, false, 0},   // an arrival that waits
        {{1, 0, 1, 1}, true, 1},    // a preempted request re-queued,
                                    // the waiting head admitted
        {{1, 0, 2, 1}, false, 0},   // a preemption alone
        {{0, 0, 0, 0}, false, 0},   // idle decode
    };
    for (const Case &c : script) {
        EXPECT_EQ(isAdmitRound(c.obs), c.admit);
        EXPECT_EQ(admittedIn(c.obs), c.admitted);
    }
}

TEST(Run, FewerThanHundredCompletedRequestsFails)
{
    // One second of the open loop is a handful of requests.
    RunOptions opt;
    opt.seed = 1;
    opt.seconds = 1.0;
    RunReport rep = runWorkload(*findWorkload("chat_prefix_open"), opt);
    EXPECT_FALSE(rep.correct);
    EXPECT_EQ(rep.failed, 0u);
    bool said = false;
    for (const std::string &n : rep.notes)
        said |= n.find("completed") != std::string::npos;
    EXPECT_TRUE(said);
}
