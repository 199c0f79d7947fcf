/**
 * @file
 * Request-level serving API. The paper's pipeline (§4.1, Appendix
 * A.2) exists to serve many concurrent requests, so the public
 * surface is request-centric: callers submit() individual
 * ServeRequests (each with its own generation budget and stop
 * tokens), drive the engine with step() — one decode round per call,
 * with admission of queued requests and retirement of finished ones
 * happening between rounds — and receive RequestOutputs as sequences
 * finish, Orca/vLLM-style continuous batching rather than a single
 * blocking batch call.
 *
 * Implemented by both ReferenceEngine (the single-threaded oracle)
 * and PipelinedEngine (the CGOPipe pipeline); for identical weights
 * and KV geometry the two emit identical greedy tokens per request
 * regardless of how admissions interleave, because every sequence's
 * KV stream and per-row arithmetic are independent of its co-batch.
 */

#ifndef MOELIGHT_RUNTIME_SERVING_HH
#define MOELIGHT_RUNTIME_SERVING_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
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

/** True when the last generated token is one of @p req's stop
 *  tokens. Shared by both engines so finish semantics cannot
 *  drift. */
inline bool
servingStopHit(const ServeRequest &req, const std::vector<int> &tokens)
{
    return !tokens.empty() &&
           std::find(req.stopTokens.begin(), req.stopTokens.end(),
                     tokens.back()) != req.stopTokens.end();
}

/** True when @p req is finished given @p tokens generated so far. */
inline bool
servingReachedEnd(const ServeRequest &req,
                  const std::vector<int> &tokens)
{
    return tokens.size() >=
               static_cast<std::size_t>(req.maxNewTokens) ||
           servingStopHit(req, tokens);
}

/** Finish reason for a request that servingReachedEnd(). A stop
 *  token landing exactly on the budget counts as Stop — it would
 *  have ended the request regardless. */
inline FinishReason
servingFinishReason(const ServeRequest &req,
                    const std::vector<int> &tokens)
{
    return servingStopHit(req, tokens) ? FinishReason::Stop
                                       : FinishReason::Length;
}

/** Submit-time request validation, shared by every Engine
 *  implementation so the oracle and the pipeline accept exactly the
 *  same request set. */
inline void
servingValidateRequest(const ServeRequest &req, std::size_t vocab)
{
    fatalIf(req.prompt.empty(), "empty prompt");
    for (int tok : req.prompt)
        fatalIf(tok < 0 || static_cast<std::size_t>(tok) >= vocab,
                "prompt token out of vocabulary");
    fatalIf(req.maxNewTokens <= 0,
            "generation length must be positive");
}

/** Wall seconds since @p t0 — the timing unit of RequestOutput. */
inline double
servingSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Stamp submittedAt if the caller didn't (the deadline epoch). */
inline void
servingStampSubmitted(ServeRequest &req)
{
    if (req.submittedAt == std::chrono::steady_clock::time_point{})
        req.submittedAt = std::chrono::steady_clock::now();
}

/** True when @p req carries a deadline and it has passed. */
inline bool
servingDeadlineExpired(const ServeRequest &req)
{
    return req.deadlineMs > 0.0 &&
           servingSecondsSince(req.submittedAt) * 1000.0 >
               req.deadlineMs;
}

/** Build the RequestOutput for a finished request — one place for
 *  both engines, so a new output field cannot be wired into one
 *  retirement path and forgotten in the other. */
// NOLINTBEGIN(bugprone-easily-swappable-parameters): the two
// durations are phase timings in a fixed (prefill, decode) order that
// mirrors the RequestOutput fields they fill one line later.
inline RequestOutput
servingMakeOutput(const ServeRequest &req, std::vector<int> &&tokens,
                  double prefillSeconds, double decodeSeconds)
// NOLINTEND(bugprone-easily-swappable-parameters)
{
    RequestOutput r;
    r.id = req.id;
    r.finishReason = servingFinishReason(req, tokens);
    r.tokens = std::move(tokens);
    r.prefillSeconds = prefillSeconds;
    r.decodeSeconds = decodeSeconds;
    return r;
}

/** Build the RequestOutput for a request retired on a terminal
 *  lifecycle event (Cancelled / TimedOut / Error) with whatever
 *  tokens it had generated so far — the single construction point
 *  for both engines, like servingMakeOutput for natural finishes. */
// NOLINTBEGIN(bugprone-easily-swappable-parameters): same (prefill,
// decode) timing pair as servingMakeOutput above.
inline RequestOutput
servingMakeTerminalOutput(const ServeRequest &req,
                          std::vector<int> &&tokens,
                          FinishReason reason, std::string errorMessage,
                          double prefillSeconds, double decodeSeconds)
// NOLINTEND(bugprone-easily-swappable-parameters)
{
    RequestOutput r;
    r.id = req.id;
    r.finishReason = reason;
    r.tokens = std::move(tokens);
    r.errorMessage = std::move(errorMessage);
    r.prefillSeconds = prefillSeconds;
    r.decodeSeconds = decodeSeconds;
    return r;
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
 * Abstract serving engine: the request-level interface both the
 * reference and the pipelined engine implement.
 *
 * Contract: submit() validates and enqueues; step() performs one
 * serving round — admit pending requests (capacity permitting), run
 * one decode iteration for every active sequence, retire finished
 * ones (releasing their KV immediately) — and returns the requests
 * that finished in that round.
 *
 * Threading: submit(), cancel(), pendingRequests(), activeRequests()
 * and idle() may be called from any thread, concurrently with a
 * step() in flight. step() / drain() belong to exactly
 * one driver thread at a time — two concurrent step() calls are a
 * contract violation (detected in debug builds). See
 * docs/concurrency.md for the locking model behind this split.
 */
class Engine
{
  public:
    virtual ~Engine() = default;

    /** Enqueue @p req. Fatal on empty prompt, out-of-vocab token, or
     *  non-positive maxNewTokens. */
    virtual void submit(ServeRequest req) = 0;

    /** One serving round; returns requests that finished in it. */
    virtual std::vector<RequestOutput> step() = 0;

    /**
     * Request cancellation of the in-flight request @p id (queued or
     * generating). Returns true when the id was found; its
     * RequestOutput (FinishReason::Cancelled, partial tokens) is
     * returned by the next step(), which also releases its KV pages.
     * False when the id is unknown or already finished. Callable from
     * any thread, including concurrently with step().
     */
    virtual bool cancel(std::int64_t id) = 0;

    /** Requests submitted but not yet admitted. */
    virtual std::size_t pendingRequests() const = 0;
    /** Requests admitted and still generating. */
    virtual std::size_t activeRequests() const = 0;

    /** No queued and no in-flight work. */
    bool
    idle() const
    {
        return pendingRequests() == 0 && activeRequests() == 0;
    }

    /** step() until idle; returns all outputs in finish order. */
    std::vector<RequestOutput> drain();
};

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
 * access is serialized externally (PipelinedEngine::frontMu_).
 * Debug builds assert the serialization on every mutating call.
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

} // namespace moelight

#endif // MOELIGHT_RUNTIME_SERVING_HH
