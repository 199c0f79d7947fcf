/**
 * @file
 * Request-level serving API and the serving core. The paper's
 * pipeline (§4.1, Appendix A.2) exists to serve many concurrent
 * requests, so the public surface is request-centric: callers
 * submit() individual ServeRequests (each with its own generation
 * budget and stop tokens), drive the engine with step() — one decode
 * round per call, with admission of queued requests and retirement of
 * finished ones happening between rounds — and receive RequestOutputs
 * as sequences finish, Orca/vLLM-style continuous batching rather
 * than a single blocking batch call.
 *
 * Engine is that lifecycle, written once: the front-end lock, the
 * Algorithm 2 admission queue, sequence slots, preemption, the
 * cancel/deadline pass and retirement. ReferenceEngine (the
 * single-threaded oracle) and PipelinedEngine (the CGOPipe pipeline)
 * derive from it and differ only in compute. For identical weights
 * and KV geometry the two emit identical greedy tokens per request
 * regardless of how admissions interleave, because every sequence's
 * KV stream and per-row arithmetic are independent of its co-batch.
 */

#ifndef MOELIGHT_RUNTIME_SERVING_HH
#define MOELIGHT_RUNTIME_SERVING_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strong_types.hh"
#include "common/sync.hh"

namespace moelight {

/** One generation request, submitted to an Engine. */
struct ServeRequest
{
    /** Caller-chosen id, echoed in the RequestOutput. Outputs are
     *  keyed by it, so ids of in-flight requests should be unique. */
    std::int64_t id = 0;
    /** Prompt token ids; must be non-empty and < vocab. */
    std::vector<int> prompt;
    /** Generation budget for *this* request (>= 1). */
    int maxNewTokens = 0;
    /** Optional: finish early (FinishReason::Stop) when any of these
     *  tokens is sampled. The stop token is included in the output. */
    std::vector<int> stopTokens;
    /** Optional wall-clock deadline in milliseconds, measured from
     *  submit(); 0 = none. An expired request — queued or mid-
     *  generation — retires with FinishReason::TimedOut at the next
     *  step(), its pages released immediately. */
    double deadlineMs = 0.0;
    /** Stamped by Engine::submit(); the deadline epoch. Callers may
     *  pre-stamp it (e.g. when requeueing a preempted request) —
     *  submit() only stamps when unset. */
    std::chrono::steady_clock::time_point submittedAt{};
};

/** Why a request finished. */
enum class FinishReason
{
    Length,     ///< generated maxNewTokens tokens
    Stop,       ///< sampled one of the request's stop tokens
    Cancelled,  ///< Engine::cancel(id) before completion
    TimedOut,   ///< deadlineMs expired before completion
    Error,      ///< a runtime fault retired this request (see
                ///< RequestOutput::errorMessage)
};

/** Stable display name for a finish reason. */
inline const char *
finishReasonName(FinishReason r)
{
    switch (r) {
      case FinishReason::Length:    return "length";
      case FinishReason::Stop:      return "stop";
      case FinishReason::Cancelled: return "cancelled";
      case FinishReason::TimedOut:  return "timed_out";
      case FinishReason::Error:     return "error";
    }
    return "unknown";
}

/** Completed request, returned by Engine::step() / drain(). */
struct RequestOutput
{
    std::int64_t id = 0;
    std::vector<int> tokens;  ///< generated token ids (greedy);
                              ///< partial for non-Length/Stop reasons
    FinishReason finishReason = FinishReason::Length;
    /** Diagnostic for FinishReason::Error (empty otherwise). */
    std::string errorMessage;
    /** Times this request was preempted under KV pressure and
     *  recomputed; its tokens are unaffected (bit-identical to an
     *  uncontended run). */
    int preemptions = 0;
    /** Wall seconds of the prefill round that admitted this request
     *  (shared by every request admitted in the same round). */
    double prefillSeconds = 0.0;
    /** Wall seconds summed over the decode rounds this request was
     *  active in (shared by the round's co-batch). */
    double decodeSeconds = 0.0;
};

/** Wall seconds since @p t0 — the timing unit of RequestOutput. */
inline double
servingSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * A request's KV reservation in request tokens: prompt + full
 * generation budget, exactly (the KV store meters tokens, not pages).
 * The single source of truth for both halves of admission control —
 * the batcher's budget check and the engine's reserved-usage report
 * must agree or admission over-commits the pool.
 */
inline std::size_t
servingKvDemand(const ServeRequest &req)
{
    return req.prompt.size() + static_cast<std::size_t>(req.maxNewTokens);
}

/**
 * A request's KV reservation *net of a shared prefix*: only the novel
 * prompt tail plus the generation budget is private demand — the
 * @p cachedTokens the prefix cache will attach read-only are already
 * resident and budgeted once, globally (PageTable::pinnedTokens).
 * With cachedTokens == 0 this is exactly servingKvDemand(). Both
 * halves of admission control (the batcher's oracle and the engine's
 * reserved-usage report) must use the same matched length or
 * admission over-commits the pool.
 */
inline std::size_t
servingKvDemandNet(const ServeRequest &req, std::size_t cachedTokens)
{
    panicIf(cachedTokens >= req.prompt.size() && !req.prompt.empty(),
            "prefix match must leave at least one novel prompt token");
    return servingKvDemand(req) - cachedTokens;
}

/**
 * Continuous-batching admission control: a FIFO of submitted requests
 * plus the Algorithm 2 (Appendix A.2) planner deciding, between
 * decode rounds, which of them fit the currently free micro-batch
 * slots and KV budget. Balanced placement and budget-driven deferral
 * come from batchRequests(); deferred requests keep their arrival
 * order and are retried every round, so nothing is dropped.
 *
 * Single-threaded-by-contract: the batcher has no internal locking.
 * It IS touched from several threads — the engine's front-end calls
 * enqueue() from submitters while the driver admits — but every
 * access is serialized externally (Engine::frontMu_).
 * Builds without NDEBUG (the default Release build too) assert the
 * serialization on every mutating call.
 */
class ContinuousBatcher
{
  public:
    /**
     * @param microBatch     Sequences per micro-batch partition.
     * @param kvBudgetTokens Total KV token budget (prompt + generated
     *                       per request summed); 0 = unlimited.
     * @param headAgeLimit   Rounds the queue head may be passed over
     *                       before younger requests are held back on
     *                       its behalf (and the engine may preempt
     *                       active sequences for it); must be >= 1.
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): budget tuple
    // (batch size, token budget, age limit) — all counts;
    // test_serving pins the argument order.
    ContinuousBatcher(std::size_t microBatch,
                      std::size_t kvBudgetTokens,
                      std::size_t headAgeLimit = kHeadAgeLimit);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    /** Enqueue in arrival order. */
    void enqueue(ServeRequest req);

    /**
     * Plan one admission round: up to @p freeSlots requests whose
     * prompt + generation budget fits the remaining KV budget
     * (@p kvTokensInUse already spoken for), placed by Algorithm 2
     * and returned in its balanced partition order. Admitted requests
     * leave the queue; deferred ones stay, in arrival order.
     *
     * Starvation control for the head of the line: if the planner
     * defers everything but the oldest request alone fits the whole
     * remaining budget, it is admitted by itself; and once the
     * oldest request has been passed over kHeadAgeLimit rounds,
     * younger requests stop being admitted until capacity has
     * drained enough for it (or, if it exceeds the engine's whole
     * budget, until the engine idles and force-admits it via
     * admitOne()).
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): (slots free,
    // KV tokens in use) are counts in different units; the admission
    // tests fail on any transposition.
    std::vector<ServeRequest> admit(std::size_t freeSlots,
                                    std::size_t kvTokensInUse);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    /** Force-admit the oldest request (caller checked pending() > 0):
     *  the escape hatch when the planner defers everything while the
     *  engine is idle, so an oversized request faults in the KV pool
     *  with a real diagnostic instead of starving forever. */
    ServeRequest admitOne();

    std::size_t
    pending() const
    {
        return queue_.size();
    }

    /** True when the queue head has been passed over headAgeLimit
     *  rounds — the engine's trigger for KV-pressure preemption:
     *  waiting for natural retirement alone would starve the head
     *  behind long-running active sequences. */
    bool
    headAged() const
    {
        return !queue_.empty() && headDeferrals_ >= headAgeLimit_;
    }

    /** Requeue a preempted request just behind the current head (at
     *  the front when the queue is empty). It keeps priority over
     *  later arrivals — it already earned admission once — but does
     *  not displace the aged head whose starvation triggered the
     *  preemption, which would livelock the two. */
    void requeue(ServeRequest req);

    /** Remove every queued request matching @p pred (in order) and
     *  return them — the cancellation/deadline hook. Resets the
     *  head's age when the head itself is removed. */
    std::vector<ServeRequest>
    removeIf(const std::function<bool(const ServeRequest &)> &pred);

    /** True when a queued request has id @p id. */
    bool contains(std::int64_t id) const;

    /**
     * Install a per-request demand oracle consulted instead of the
     * default prompt+budget demand — the engine's hook for prefix-
     * aware admission, where a request whose prompt prefix is cached
     * only demands its novel tail (servingKvDemandNet against the
     * current cache contents). Pass an empty function to restore the
     * default.
     */
    void setDemandOracle(
        std::function<std::size_t(const ServeRequest &)> oracle)
    {
        MOELIGHT_ASSERT_SERIAL(gate_);
        demandOracle_ = std::move(oracle);
    }

    /** Default for headAgeLimit (EngineConfig::headAgeLimit). */
    static constexpr std::size_t kHeadAgeLimit = 8;

  private:
    std::size_t kvDemand(const ServeRequest &req) const;

    std::size_t microBatch_;
    std::size_t kvBudgetTokens_;
    std::size_t headAgeLimit_;
    std::size_t headDeferrals_ = 0;
    std::function<std::size_t(const ServeRequest &)> demandOracle_;
    std::deque<ServeRequest> queue_;
    mutable DebugSerialGate gate_;  ///< caller-serialization check
};

/**
 * The serving core: the request lifecycle both engines share, around
 * the compute each one supplies (paper Algorithm 2, Appendix A.2, with
 * Orca-style iteration-level scheduling).
 *
 * Contract: submit() validates and enqueues; step() performs one
 * serving round — retire cancelled and expired requests, admit
 * pending ones into free sequence slots (capacity permitting),
 * prefill them, run one decode iteration for every active sequence,
 * retire finished ones (releasing their KV immediately) — and returns
 * the requests that finished in that round.
 *
 * Guarantee: every submitted request retires exactly once, with one
 * RequestOutput, and its slot and KV are released before that output
 * is returned. The core owns every path that builds an output, so
 * the guarantee is stated (and tested) once for both engines.
 *
 * Threading: submit(), cancel(), pendingRequests(), activeRequests()
 * and idle() may be called from any thread, concurrently with a
 * step() in flight. step() / drain() belong to exactly
 * one driver thread at a time — two concurrent step() calls are a
 * contract violation (detected in builds without NDEBUG). See
 * docs/concurrency.md for the locking model behind this split.
 *
 * A subclass supplies only compute, through the protected hooks:
 * prefill() and decode() over slots, releaseKv() of one slot, and the
 * prefix-cache hooks admission consults.
 */
class Engine
{
  public:
    virtual ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Enqueue @p req. Fatal on empty prompt, out-of-vocab token,
     *  non-positive maxNewTokens, or a KV demand larger than the
     *  engine's whole budget. */
    void submit(ServeRequest req);

    /** One serving round; returns requests that finished in it. */
    std::vector<RequestOutput> step();

    /**
     * Request cancellation of the in-flight request @p id (queued or
     * generating). Returns true when the id was found; its
     * RequestOutput (FinishReason::Cancelled, partial tokens) is
     * returned by the next step(), which also releases its KV pages.
     * False when the id is unknown or already finished. Callable from
     * any thread, including concurrently with step().
     */
    bool cancel(std::int64_t id);

    /** Requests submitted but not yet admitted. */
    std::size_t pendingRequests() const;
    /** Requests admitted and still generating. */
    std::size_t activeRequests() const;

    /** No queued and no in-flight work. */
    bool
    idle() const
    {
        return pendingRequests() == 0 && activeRequests() == 0;
    }

    /** step() until idle; returns all outputs in finish order. */
    std::vector<RequestOutput> drain();

    /** Times the engine preempted an active sequence under KV
     *  pressure (freed its pages and requeued it for prefill
     *  recompute) over the engine's life. */
    std::size_t preemptions() const { return preemptions_; }

  protected:
    /** What admission may fill. */
    struct Limits
    {
        std::size_t vocab = 0;  ///< submit() validates prompts against it
        /** Sequence slots; 0 = unbounded, and every queued request is
         *  admitted at the next step(). */
        std::size_t slots = 0;
        std::size_t microBatch = 1;  ///< Algorithm 2 partition size
        /** Admission budget in request tokens; 0 = unlimited. */
        std::size_t kvBudgetTokens = 0;
        std::size_t headAgeLimit = ContinuousBatcher::kHeadAgeLimit;
    };

    /** One admitted, still-generating request in a sequence slot. */
    struct ActiveSeq
    {
        /** After a preemption the prompt carries the tokens generated
         *  before it (recomputed at re-admission) and the budget is
         *  net of them. */
        ServeRequest req;
        std::vector<int> tokens;  ///< generated since (re)admission
        /** Prompt tokens attached from the prefix cache at admission
         *  (0 = cold): prefill starts at this position. */
        std::size_t prefixLen = 0;
    };

    explicit Engine(Limits limits);

    /** Prefill @p fresh slots' prompts from their prefixLen on and
     *  append each one's first sampled token. A fault confined to one
     *  slot is noted with noteSlotFault(); a throw faults the whole
     *  round. */
    virtual void prefill(const std::vector<SlotIdx> &fresh) = 0;
    /** Decode one token for each of @p live slots, feeding back its
     *  last token; same fault rules as prefill(). */
    virtual void decode(const std::vector<SlotIdx> &live) = 0;
    /** Free @p slot's KV. It may hold none: a request that faulted
     *  before its first append. */
    virtual void releaseKv(SlotIdx slot) = 0;
    /** Admission: attach cached prefix pages to the newly occupied
     *  @p slot; returns the prompt tokens attached. */
    virtual std::size_t attachPrefix(SlotIdx) { return 0; }
    /** Prompt tokens attachPrefix() would attach for @p req now:
     *  admission charges a request only its novel tail. */
    virtual std::size_t peekPrefix(const ServeRequest &) const { return 0; }
    /** Request tokens of shared cached pages, charged once on top of
     *  every slot's private reservation. */
    virtual std::size_t sharedKvTokens() const { return 0; }
    /** Builds without NDEBUG (the default Release build too) run this
     *  at the end of every step(). */
    virtual void checkInvariants() const {}

    /** The request in occupied @p slot (driver and round tasks). */
    ActiveSeq &active(SlotIdx slot) { return slots_[slot.value()]->seq; }
    const ActiveSeq &
    active(SlotIdx slot) const
    {
        return slots_[slot.value()]->seq;
    }
    /** The slot->sequence identity map: slot i owns KV sequence i.
     *  The ONLY place a SlotIdx becomes a SeqId (see
     *  docs/index_domains.md). */
    static SeqId seqOf(SlotIdx slot) { return SeqId(slot.value()); }
    /** Record a request-scope fault for @p slot from any thread
     *  during a round; first message wins. */
    void noteSlotFault(SlotIdx slot, const char *what);
    bool slotFaulted(SlotIdx slot) const;

  private:
    /** What a request has produced so far; carried across
     *  preemption while it waits to be re-admitted. */
    struct Progress
    {
        std::vector<int> saved;  ///< tokens generated before preemptions
        int preemptions = 0;
        double prefillSeconds = 0.0;
        double decodeSeconds = 0.0;
    };
    struct Slot
    {
        ActiveSeq seq;
        Progress progress;
        /** Monotonic admission stamp; the preemption victim is the
         *  slot with the highest one (youngest loses least work). */
        std::uint64_t admitStamp = 0;
        /** Private KV reservation (net of the shared prefix), frozen
         *  at admission so later cache eviction can't skew the
         *  accounting. */
        std::size_t reservedTokens = 0;
    };

    void processLifecycle(std::vector<RequestOutput> &done);
    std::vector<SlotIdx> admit();
    /** Take the planned (or, with @p force, the oldest) requests off
     *  the queue and register them active, in one critical section. */
    std::vector<ServeRequest> plan(bool force);
    void preemptYoungest();
    /** Run one prefill or decode round over @p round and settle it. */
    void runRound(const std::vector<SlotIdx> &round, bool isPrefill,
                  std::vector<RequestOutput> &done);
    /** Retire @p slot: release its KV and the slot, emit its output. */
    void retire(SlotIdx slot, FinishReason why, std::string error,
                std::vector<RequestOutput> &done);
    void releaseSlot(SlotIdx slot);
    /** The one place a RequestOutput is built. */
    static RequestOutput output(std::int64_t id, Progress &&progress,
                                FinishReason why, std::string error);
    std::size_t kvTokensInUse() const;

    const Limits limits_;
    /** Front-end lock: guards the admission queue, the cancellation
     *  set and the id index of occupied slots; every other member is
     *  driver-owned. Lock-ordering leaf: never held while taking
     *  another lock. */
    mutable Mutex frontMu_;
    ContinuousBatcher batcher_ GUARDED_BY(frontMu_);
    std::unordered_set<std::int64_t> cancelled_
        GUARDED_BY(frontMu_);  ///< ids to cancel at the next step()
    /** Ids of admitted requests, maintained at admission and
     *  retirement so cancel() can probe active requests without
     *  touching the driver-owned slots_. */
    std::unordered_set<std::int64_t> activeIds_ GUARDED_BY(frontMu_);

    std::vector<std::optional<Slot>> slots_;
    std::vector<std::size_t> freeSlots_;  ///< descending; back = min
    /** Preempted requests waiting in the queue, by id. */
    std::unordered_map<std::int64_t, Progress> resume_;
    std::uint64_t admitCounter_ = 0;
    std::size_t preemptions_ = 0;
    /** Per-slot fault messages recorded by round tasks (empty =
     *  healthy); guarded because several queue threads record
     *  concurrently. Lock-ordering leaf. */
    mutable Mutex faultMu_;
    std::vector<std::string> slotError_ GUARDED_BY(faultMu_);
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_SERVING_HH
