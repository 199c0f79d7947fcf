#include "runtime/serving.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "runtime/batcher.hh"

namespace moelight {

namespace {

/** True when the last generated token is one of @p req's stop
 *  tokens. */
bool
stopHit(const ServeRequest &req, const std::vector<int> &tokens)
{
    return !tokens.empty() &&
           std::find(req.stopTokens.begin(), req.stopTokens.end(),
                     tokens.back()) != req.stopTokens.end();
}

/** True when @p req has passed its deadline. */
bool
deadlineExpired(const ServeRequest &req)
{
    return req.deadlineMs > 0.0 &&
           servingSecondsSince(req.submittedAt) * 1000.0 >
               req.deadlineMs;
}

} // namespace

Engine::Engine(Limits limits)
    : limits_(limits),
      batcher_(limits.microBatch, limits.kvBudgetTokens,
               limits.headAgeLimit),
      slots_(limits.slots),
      slotError_(limits.slots)
{
    freeSlots_.resize(limits_.slots);
    for (std::size_t i = 0; i < limits_.slots; ++i)
        freeSlots_[i] = limits_.slots - 1 - i;  // back = slot 0
    // Admission charges a request only the novel tail of a cached
    // prompt: the shared pages are budgeted once, globally (see
    // kvTokensInUse()).
    MutexLock lk(frontMu_);  // object not yet shared; analysis
    batcher_.setDemandOracle([this](const ServeRequest &r) {
        return servingKvDemandNet(r, peekPrefix(r));
    });
}

Engine::~Engine() = default;

void
Engine::submit(ServeRequest req)
{
    fatalIf(req.prompt.empty(), "empty prompt");
    for (int tok : req.prompt)
        fatalIf(tok < 0 || static_cast<std::size_t>(tok) >= limits_.vocab,
                "prompt token out of vocabulary");
    fatalIf(req.maxNewTokens <= 0,
            "generation length must be positive");
    // A request that can never fit the whole KV budget must fail
    // here with a diagnosis, not later from inside a round once the
    // queue drains to it. Every request accepted here is eventually
    // admittable (aged head-of-line included).
    std::size_t demand = servingKvDemand(req);
    fatalIf(limits_.kvBudgetTokens != 0 && demand > limits_.kvBudgetTokens,
            "request ", req.id, " needs ", demand,
            " KV tokens (prompt ", req.prompt.size(),
            " + generation budget ", req.maxNewTokens,
            ") but the engine's KV capacity is ", limits_.kvBudgetTokens,
            " request tokens (kvCapacityTokens / layer count)");
    // The deadline epoch; a caller may pre-stamp it.
    if (req.submittedAt == std::chrono::steady_clock::time_point{})
        req.submittedAt = std::chrono::steady_clock::now();
    MutexLock lk(frontMu_);
    batcher_.enqueue(std::move(req));
}

bool
Engine::cancel(std::int64_t id)
{
    MutexLock lk(frontMu_);
    // activeIds_ mirrors the driver-owned slots_ so this probe never
    // races a round. Found ids stay in flight until the next step(),
    // which retires them as Cancelled and releases their pages.
    bool found = batcher_.contains(id) || activeIds_.count(id) != 0;
    if (found)
        cancelled_.insert(id);
    return found;
}

std::size_t
Engine::pendingRequests() const
{
    MutexLock lk(frontMu_);
    return batcher_.pending();
}

std::size_t
Engine::activeRequests() const
{
    MutexLock lk(frontMu_);
    return activeIds_.size();
}

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

std::vector<RequestOutput>
Engine::step()
{
    std::vector<RequestOutput> done;
    // Lifecycle first: cancellations and expired deadlines retire
    // (and release pages) before admission, so freed capacity is
    // available to this very round's admission decision.
    processLifecycle(done);
    std::vector<SlotIdx> fresh = admit();
    if (!fresh.empty())
        runRound(fresh, /*isPrefill=*/true, done);
    std::vector<SlotIdx> live;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot)
        if (slots_[slot])
            live.push_back(SlotIdx(slot));
    if (!live.empty())
        runRound(live, /*isPrefill=*/false, done);
#ifndef NDEBUG
    checkInvariants();
#endif
    return done;
}

void
Engine::noteSlotFault(SlotIdx slot, const char *what)
{
    MutexLock lk(faultMu_);
    if (slotError_[slot.value()].empty())
        slotError_[slot.value()] = what;
}

bool
Engine::slotFaulted(SlotIdx slot) const
{
    MutexLock lk(faultMu_);
    return !slotError_[slot.value()].empty();
}

std::size_t
Engine::kvTokensInUse() const
{
    // Reserved demand of every active request, in the request-token
    // units Algorithm 2 budgets with. Budgeting *current* usage
    // instead would over-admit — an admitted sequence keeps growing
    // toward its budget, and the later appends would overflow the
    // pool mid-flight, killing every in-flight request. Early
    // (stop-token) retirement just hands reserved capacity back
    // sooner.
    //
    // With a prefix cache, each slot reserves only its private
    // (novel-tail) demand and the shared cached pages are charged
    // once, globally (sharedKvTokens()). Private streams never
    // outgrow their net reservation, so the sum bounds physical
    // residency.
    std::size_t reserved = 0;
    for (const auto &s : slots_)
        if (s)
            reserved += s->reservedTokens;
    return reserved + sharedKvTokens();
}

RequestOutput
Engine::output(std::int64_t id, Progress &&progress, FinishReason why,
               std::string error)
{
    RequestOutput r;
    r.id = id;
    r.tokens = std::move(progress.saved);
    r.finishReason = why;
    r.errorMessage = std::move(error);
    r.preemptions = progress.preemptions;
    r.prefillSeconds = progress.prefillSeconds;
    r.decodeSeconds = progress.decodeSeconds;
    return r;
}

void
Engine::retire(SlotIdx slot, FinishReason why, std::string error,
               std::vector<RequestOutput> &done)
{
    Slot &s = *slots_[slot.value()];
    // The reported tokens span the whole original request:
    // pre-preemption tokens first.
    s.progress.saved.insert(s.progress.saved.end(), s.seq.tokens.begin(),
                            s.seq.tokens.end());
    RequestOutput r = output(s.seq.req.id, std::move(s.progress), why,
                             std::move(error));
    {
        MutexLock lk(frontMu_);
        activeIds_.erase(r.id);
    }
    // The pages go back to the pool *now*, while the co-batch keeps
    // decoding, so the freed slot can take the next queued request at
    // the following round's admission.
    releaseSlot(slot);
    done.push_back(std::move(r));
}

void
Engine::releaseSlot(SlotIdx slot)
{
    releaseKv(slot);
    slots_[slot.value()].reset();
    freeSlots_.insert(
        std::lower_bound(freeSlots_.begin(), freeSlots_.end(),
                         slot.value(), std::greater<std::size_t>()),
        slot.value());
    MutexLock lk(faultMu_);
    slotError_[slot.value()].clear();
}

void
Engine::runRound(const std::vector<SlotIdx> &round, bool isPrefill,
                 std::vector<RequestOutput> &done)
{
    // Token counts before the round: a slot retired on a fault must
    // not report a token the round may still have sampled for it.
    std::vector<std::size_t> tokBefore;
    tokBefore.reserve(round.size());
    for (SlotIdx slot : round)
        tokBefore.push_back(active(slot).tokens.size());

    // Round-scope fault capture: a throw (a weight-stream or task-body
    // fault surfacing at the executor's sync) leaves the round's
    // shared state unreliable for every participant, so the whole
    // round retires with Error; the engine itself stays serviceable.
    // Faults a hook notes per slot stay request-scope.
    auto t0 = std::chrono::steady_clock::now();
    std::string roundError;
    try {
        if (isPrefill)
            prefill(round);
        else
            decode(round);
    } catch (const std::exception &e) {
        roundError = e.what();
    }
    double secs = servingSecondsSince(t0);
    for (SlotIdx slot : round) {
        Progress &p = slots_[slot.value()]->progress;
        (isPrefill ? p.prefillSeconds : p.decodeSeconds) += secs;
    }

    for (std::size_t i = 0; i < round.size(); ++i) {
        SlotIdx slot = round[i];
        ActiveSeq &a = active(slot);
        std::string error;
        {
            MutexLock lk(faultMu_);
            error = slotError_[slot.value()];
        }
        if (error.empty())
            error = roundError;
        if (!error.empty()) {
            a.tokens.resize(tokBefore[i]);
            retire(slot, FinishReason::Error, std::move(error), done);
        } else if (stopHit(a.req, a.tokens)) {
            // A stop token landing exactly on the budget counts as
            // Stop: it would have ended the request regardless.
            retire(slot, FinishReason::Stop, "", done);
        } else if (a.tokens.size() >=
                   static_cast<std::size_t>(a.req.maxNewTokens)) {
            retire(slot, FinishReason::Length, "", done);
        }
    }
}

void
Engine::processLifecycle(std::vector<RequestOutput> &done)
{
    // Snapshot the cancellation set: ids cancelled after this point
    // are handled by the next round, and operating on a local copy
    // keeps the driver lock-free below (retire() takes its own brief
    // front-end lock; holding frontMu_ across it would self-deadlock).
    std::unordered_set<std::int64_t> cancelled;
    std::vector<ServeRequest> removed;
    {
        MutexLock lk(frontMu_);
        cancelled.swap(cancelled_);
        // Queued requests (including preempted ones awaiting
        // re-admission): cancellation and deadlines must not wait for
        // admission.
        if (batcher_.pending() > 0)
            removed = batcher_.removeIf([&](const ServeRequest &r) {
                return cancelled.count(r.id) != 0 || deadlineExpired(r);
            });
    }
    for (ServeRequest &r : removed) {
        FinishReason why = cancelled.erase(r.id) != 0
                               ? FinishReason::Cancelled
                               : FinishReason::TimedOut;
        Progress p;
        auto it = resume_.find(r.id);
        if (it != resume_.end()) {
            p = std::move(it->second);
            resume_.erase(it);
        }
        done.push_back(output(r.id, std::move(p), why, ""));
    }
    // Active sequences: retire and release pages immediately.
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!slots_[slot])
            continue;
        const ServeRequest &req = slots_[slot]->seq.req;
        if (cancelled.erase(req.id) != 0)
            retire(SlotIdx(slot), FinishReason::Cancelled, "", done);
        else if (deadlineExpired(req))
            retire(SlotIdx(slot), FinishReason::TimedOut, "", done);
    }
    // Anything left in the snapshot was stale by the time this round
    // ran (the request had already finished); cancel() only accepts
    // known ids, so the leftovers just drop with the local set.
}

std::vector<ServeRequest>
Engine::plan(bool force)
{
    MutexLock lk(frontMu_);
    std::vector<ServeRequest> admitted;
    if (force)
        admitted.push_back(batcher_.admitOne());
    else if (limits_.slots == 0)
        // No slot limit and no budget: the whole queue, in arrival
        // order.
        admitted = batcher_.removeIf([](const ServeRequest &) {
            return true;
        });
    else
        admitted = batcher_.admit(freeSlots_.size(), kvTokensInUse());
    // Registered in the critical section that dequeues them, so a
    // concurrent cancel() always finds the id on one side.
    for (const ServeRequest &r : admitted)
        activeIds_.insert(r.id);
    return admitted;
}

std::vector<SlotIdx>
Engine::admit()
{
    if (pendingRequests() == 0)
        return {};
    std::vector<ServeRequest> admitted = plan(false);
    // The planner deferred everything. With sequences still
    // generating that's usually back-pressure — retry next round. But
    // once the queue head has aged past the limit, waiting on natural
    // retirement alone can starve it indefinitely behind long-budget
    // actives: preempt the youngest active sequences (their work is
    // recomputed, not lost) until the head fits.
    auto headAged = [this] {
        MutexLock lk(frontMu_);
        return batcher_.headAged();
    };
    while (admitted.empty() && headAged() && activeRequests() > 0) {
        preemptYoungest();
        admitted = plan(false);
    }
    // With the engine idle, deferral would be permanent starvation (a
    // lone request bigger than the whole planner budget): force the
    // oldest through and let the KV pool diagnose a true overflow.
    if (admitted.empty() && activeRequests() == 0)
        admitted = plan(true);

    std::vector<SlotIdx> fresh;
    fresh.reserve(admitted.size());
    for (ServeRequest &req : admitted) {
        std::size_t slot = slots_.size();
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            panicIf(limits_.slots != 0,
                    "admission exceeded free sequence slots");
            slots_.emplace_back();
            MutexLock lk(faultMu_);
            slotError_.emplace_back();
        }
        Slot &s = slots_[slot].emplace();
        s.seq.req = std::move(req);
        s.admitStamp = ++admitCounter_;
        // A preempted request re-entering: restore what it had
        // already produced and the wall time it had accumulated.
        auto it = resume_.find(s.seq.req.id);
        if (it != resume_.end()) {
            s.progress = std::move(it->second);
            resume_.erase(it);
        }
        // The reservation freezes the private (novel-tail) demand
        // now: a preempted or retired sharer later releases exactly
        // this, never the shared pages.
        s.seq.prefixLen = attachPrefix(SlotIdx(slot));
        s.reservedTokens = servingKvDemandNet(s.seq.req, s.seq.prefixLen);
        fresh.push_back(SlotIdx(slot));
    }
    return fresh;
}

void
Engine::preemptYoungest()
{
    // Victim: the youngest admission (highest stamp) — it has the
    // least decode progress to recompute.
    std::size_t victim = slots_.size();
    std::uint64_t best = 0;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot)
        if (slots_[slot] &&
            (victim == slots_.size() || slots_[slot]->admitStamp > best)) {
            victim = slot;
            best = slots_[slot]->admitStamp;
        }
    panicIf(victim == slots_.size(),
            "preemption requested with no active sequences");

    Slot &s = *slots_[victim];
    Progress p = std::move(s.progress);
    const std::vector<int> &tokens = s.seq.tokens;
    p.saved.insert(p.saved.end(), tokens.begin(), tokens.end());
    ++p.preemptions;

    // Rebuild the request for prefill-recompute: the prompt absorbs
    // every token generated so far and the budget shrinks by the same
    // count, so total KV demand (and the admission accounting) is
    // unchanged. Re-prefilling prompt+generated replays the exact
    // per-position arithmetic of the interrupted decode — the prefill
    // bootstrap then re-samples the next token from the same hidden
    // state the decode round would have used, which is what makes the
    // resumed token stream bit-identical to an uncontended run.
    ServeRequest req = std::move(s.seq.req);
    req.prompt.insert(req.prompt.end(), tokens.begin(), tokens.end());
    req.maxNewTokens -= static_cast<int>(tokens.size());
    panicIf(req.maxNewTokens <= 0,
            "preempting a request that should have retired");

    releaseSlot(SlotIdx(victim));
    resume_[req.id] = std::move(p);
    ++preemptions_;
    {
        // One critical section for the active→queued hand-off, so a
        // concurrent cancel() finds the id on one side or the other.
        MutexLock lk(frontMu_);
        activeIds_.erase(req.id);
        batcher_.requeue(std::move(req));
    }
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
