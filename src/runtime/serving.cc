#include "runtime/serving.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/batcher.hh"

namespace moelight {

std::vector<RequestOutput>
Engine::drain()
{
    std::vector<RequestOutput> out;
    while (!idle()) {
        std::vector<RequestOutput> round = step();
        out.insert(out.end(),
                   std::make_move_iterator(round.begin()),
                   std::make_move_iterator(round.end()));
    }
    return out;
}

ContinuousBatcher::ContinuousBatcher(std::size_t microBatch,
                                     std::size_t kvBudgetTokens,
                                     std::size_t headAgeLimit)
    : microBatch_(microBatch),
      kvBudgetTokens_(kvBudgetTokens),
      headAgeLimit_(headAgeLimit)
{
    fatalIf(microBatch_ == 0, "micro-batch must be positive");
    fatalIf(headAgeLimit_ == 0,
            "head age limit must be >= 1 (rounds the queue head may "
            "be passed over)");
}

std::size_t
ContinuousBatcher::kvDemand(const ServeRequest &req) const
{
    return demandOracle_ ? demandOracle_(req) : servingKvDemand(req);
}

void
ContinuousBatcher::enqueue(ServeRequest req)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    queue_.push_back(std::move(req));
}

std::vector<ServeRequest>
ContinuousBatcher::admit(std::size_t freeSlots,
                         std::size_t kvTokensInUse)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    // Rounds that never consider the head — nothing queued, or no
    // free sequence slot for anyone — must not advance its age: the
    // deferral count measures rounds that looked at the head and
    // admitted past (or instead of) it, because it gates starvation
    // control (held-back younger arrivals, engine preemption). Aging
    // it on no-capacity rounds would trigger preemption storms while
    // the engine is merely full of slots, not starving the head.
    if (queue_.empty() || freeSlots == 0)
        return {};

    // Free micro-batch partitions Algorithm 2 may fill this round.
    // Capacity nUb * ubs never exceeds freeSlots; a remainder smaller
    // than a partition simply waits for the next round.
    std::size_t n_ub = std::max<std::size_t>(1, freeSlots / microBatch_);
    std::size_t ubs = std::min(microBatch_, freeSlots);

    // Remaining KV budget, split evenly across the free partitions
    // (Algorithm 2's cacheSize is per partition). 0 = unlimited.
    constexpr std::size_t kUnlimited = std::size_t(-1) / 4;
    std::size_t free_budget =
        kvBudgetTokens_ == 0
            ? kUnlimited
            : (kvBudgetTokens_ > kvTokensInUse
                   ? kvBudgetTokens_ - kvTokensInUse
                   : 0);
    std::size_t per_partition = free_budget / n_ub;

    // Aged head of line: after headAgeLimit passed-over rounds,
    // stop admitting younger requests and wait for capacity to drain
    // to the oldest one. Active sequences only retire from here on,
    // so free_budget grows monotonically until the head fits — or
    // the engine idles and force-admits it via admitOne().
    if (headDeferrals_ >= headAgeLimit_) {
        std::vector<ServeRequest> only;
        if (kvDemand(queue_.front()) <= free_budget) {
            headDeferrals_ = 0;
            only.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        return only;
    }

    // Describe the front window of the queue for the planner; ids are
    // dense queue indices and come back unchanged, so placements map
    // straight onto queue_ without re-sorting. promptLen + genLen is
    // the request's exact KV demand in tokens, so Algorithm 2's
    // budget term is what admission reserves. Bounding the window
    // keeps planning O(window log window) per round instead of
    // re-sorting a deep backlog to admit at most freeSlots requests;
    // a few times the admittable count still gives Algorithm 2 slack
    // to balance and to skip over-budget requests.
    std::size_t window = std::min(
        queue_.size(),
        std::max<std::size_t>(4 * freeSlots, 4 * microBatch_));
    std::vector<Request> descr;
    descr.reserve(window);
    for (std::size_t i = 0; i < window; ++i) {
        // With a prefix-aware oracle the demand can be smaller than
        // the full prompt (the cached prefix is not private demand);
        // clamp the prompt term to the demand so genLen (the rest of
        // it) never underflows and promptLen + genLen stays exact.
        std::size_t demand = kvDemand(queue_[i]);
        std::size_t pl = std::min(queue_[i].prompt.size(), demand);
        descr.push_back({static_cast<int>(i), static_cast<int>(pl),
                         static_cast<int>(demand - pl)});
    }
    BatchPlan plan =
        batchRequests(std::move(descr), n_ub, ubs, per_partition);

    std::vector<bool> taken(window, false);
    std::vector<ServeRequest> admitted;
    for (const auto &mb : plan.microBatches)
        for (const Request &r : mb) {
            std::size_t qi = static_cast<std::size_t>(r.id);
            taken[qi] = true;
            admitted.push_back(std::move(queue_[qi]));
        }
    bool headAdmitted = !admitted.empty() && taken[0];
    if (admitted.empty()) {
        // The per-partition split deferred everything. If the oldest
        // request alone fits the *whole* remaining budget, send it
        // through by itself: otherwise a large-but-fitting request
        // could wait forever behind the split while smaller later
        // arrivals keep the engine busy.
        if (kvDemand(queue_.front()) <= free_budget) {
            headAdmitted = true;
            admitted.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
    } else {
        // Deferred requests keep their arrival order; the tail beyond
        // the planning window was never touched.
        std::deque<ServeRequest> rest;
        for (std::size_t i = 0; i < window; ++i)
            if (!taken[i])
                rest.push_back(std::move(queue_[i]));
        for (std::size_t i = window; i < queue_.size(); ++i)
            rest.push_back(std::move(queue_[i]));
        queue_ = std::move(rest);
    }
    // The single aging site: every path through here planned over a
    // window containing the head, so by now it was either admitted
    // (age resets for the next head) or considered and passed over
    // (age advances). The early returns above — empty queue, no free
    // slots, the aged-head hold — deliberately bypass this.
    headDeferrals_ = headAdmitted ? 0 : headDeferrals_ + 1;
    return admitted;
}

void
ContinuousBatcher::requeue(ServeRequest req)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    if (queue_.empty())
        queue_.push_front(std::move(req));
    else
        queue_.insert(queue_.begin() + 1, std::move(req));
}

std::vector<ServeRequest>
ContinuousBatcher::removeIf(
    const std::function<bool(const ServeRequest &)> &pred)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    std::vector<ServeRequest> removed;
    std::deque<ServeRequest> kept;
    bool headRemoved = !queue_.empty() && pred(queue_.front());
    for (ServeRequest &r : queue_) {
        if (pred(r))
            removed.push_back(std::move(r));
        else
            kept.push_back(std::move(r));
    }
    queue_ = std::move(kept);
    // The head's accumulated age belonged to the removed request; the
    // new head starts earning its own.
    if (headRemoved)
        headDeferrals_ = 0;
    return removed;
}

bool
ContinuousBatcher::contains(std::int64_t id) const
{
    for (const ServeRequest &r : queue_)
        if (r.id == id)
            return true;
    return false;
}

ServeRequest
ContinuousBatcher::admitOne()
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    panicIf(queue_.empty(), "admitOne() on an empty queue");
    headDeferrals_ = 0;
    ServeRequest req = std::move(queue_.front());
    queue_.pop_front();
    return req;
}

} // namespace moelight
