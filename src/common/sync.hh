/**
 * @file
 * The repo's ONLY synchronization primitives: thin wrappers over
 * std::mutex / std::condition_variable carrying Clang thread-safety
 * annotations, so the locking discipline of the concurrent runtime
 * (thread pool, stream executor, engine front-end, fault injector)
 * is a compile-time contract instead of a comment. Under Clang the
 * default build promotes -Wthread-safety to an error; under GCC every
 * macro below expands to nothing and the wrappers are zero-cost
 * pass-throughs, so behaviour is identical across compilers.
 *
 * Usage pattern (see docs/concurrency.md for the repo-wide model):
 *
 *   class Worker {
 *       Mutex mu_;
 *       CondVar cv_;
 *       bool stopping_ GUARDED_BY(mu_) = false;
 *
 *       void drain() REQUIRES(mu_);   // caller must hold mu_
 *
 *       void loop() {
 *           MutexLock lk(mu_);        // SCOPED_CAPABILITY guard
 *           while (!stopping_)        // predicate inline, not a
 *               cv_.wait(lk);         // lambda: the analysis cannot
 *       }                             // see into lambdas
 *   };
 *
 * scripts/lint_invariants.py enforces that no other file in src/
 * names std::mutex / std::condition_variable directly — every lock in
 * the tree goes through these types and therefore through the
 * analysis.
 */

#ifndef MOELIGHT_COMMON_SYNC_HH
#define MOELIGHT_COMMON_SYNC_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.hh"

// ------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops elsewhere). Names
// follow the canonical mock header from the Clang documentation.
// ------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MOELIGHT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MOELIGHT_THREAD_ANNOTATION
#define MOELIGHT_THREAD_ANNOTATION(x)  // GCC / MSVC: compiled away
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define CAPABILITY(x) MOELIGHT_THREAD_ANNOTATION(capability(x))
/** Marks an RAII type that acquires in its ctor, releases in dtor. */
#define SCOPED_CAPABILITY MOELIGHT_THREAD_ANNOTATION(scoped_lockable)
/** Field may only be touched while holding the named capability. */
#define GUARDED_BY(x) MOELIGHT_THREAD_ANNOTATION(guarded_by(x))
/** Pointee may only be touched while holding the named capability. */
#define PT_GUARDED_BY(x) MOELIGHT_THREAD_ANNOTATION(pt_guarded_by(x))
/** Function requires the capability to be held by the caller. */
#define REQUIRES(...) \
    MOELIGHT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/** Function acquires the capability (and did not hold it before). */
#define ACQUIRE(...) \
    MOELIGHT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/** Function releases the capability. */
#define RELEASE(...) \
    MOELIGHT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/** Function may be called only while NOT holding the capability. */
#define EXCLUDES(...) \
    MOELIGHT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/** Function returns a reference to the named capability. */
#define RETURN_CAPABILITY(x) \
    MOELIGHT_THREAD_ANNOTATION(lock_returned(x))
/** Escape hatch: disable analysis for one function (justify it). */
#define NO_THREAD_SAFETY_ANALYSIS \
    MOELIGHT_THREAD_ANNOTATION(no_thread_safety_analysis)
/** try_lock-style function: acquired only when returning @p b. */
#define TRY_ACQUIRE(...) \
    MOELIGHT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

namespace moelight {

/**
 * Annotated std::mutex. Lock it through MutexLock wherever possible;
 * the raw lock()/unlock() exist for the rare hand-over-hand or
 * split-scope pattern and are equally visible to the analysis.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    friend class MutexLock;
    std::mutex mu_;
};

/**
 * SCOPED_CAPABILITY lock guard over a Mutex — the std::unique_lock
 * analogue the annotated CondVar waits on. Non-movable: a lock that
 * changes hands mid-scope is exactly what the analysis exists to
 * forbid.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : lk_(mu.mu_) {}
    ~MutexLock() RELEASE() {}  // the unique_lock member unlocks

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/**
 * Condition variable bound to Mutex/MutexLock. Deliberately exposes
 * only the single-shot wait: predicate loops are written inline at
 * the call site (`while (!cond) cv.wait(lk);`) so the guarded reads
 * in the predicate sit in the annotated caller, where the analysis
 * can see the held capability — a predicate lambda would be analyzed
 * as a separate, lock-less function and rejected.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p lk, sleep, re-acquire. Spurious wakeups
     *  happen; always wait in a predicate loop. */
    void wait(MutexLock &lk) { cv_.wait(lk.lk_); }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * Debug-build detector for unsynchronized concurrent entry into a
 * single-threaded-by-contract class (ContinuousBatcher, PrefixCache,
 * PageTable). Those classes ARE used from several threads — executor
 * queue workers and the driver thread take turns — but never
 * concurrently: every access is serialized by pipeline events or the
 * engine's front-end mutex. A plain thread-of-ownership assert would
 * reject that legal hand-off, so the gate checks the actual
 * invariant: at most one thread inside a mutating section at a time.
 * Same-thread reentry is allowed — PageTable::appendToken's reclaim
 * hook evicts (and unpins) from inside the append. A couple of
 * atomic ops per guarded call, fully compiled away under NDEBUG
 * (which the repo's Release flags do not define).
 */
class DebugSerialGate
{
  public:
#ifndef NDEBUG
    class Scope
    {
      public:
        explicit Scope(DebugSerialGate &g) : g_(g)
        {
            std::thread::id self = std::this_thread::get_id();
            std::thread::id open{};  // default id = gate unowned
            if (!g_.owner_.compare_exchange_strong(
                    open, self, std::memory_order_acquire))
                panicIf(open != self,
                        "concurrent entry into a single-threaded-by-"
                        "contract section: caller must serialize");
            ++g_.depth_;  // owner-only, no atomicity needed
        }
        ~Scope()
        {
            if (--g_.depth_ == 0)
                g_.owner_.store(std::thread::id{},
                                std::memory_order_release);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        DebugSerialGate &g_;
    };

  private:
    std::atomic<std::thread::id> owner_{};
    int depth_ = 0;
#else
    class Scope
    {
      public:
        explicit Scope(DebugSerialGate &) {}
    };
#endif
};

/** Guard a mutating method body of a single-threaded-by-contract
 *  class: `MOELIGHT_ASSERT_SERIAL(gate_);` as its first statement. */
#ifndef NDEBUG
#define MOELIGHT_ASSERT_SERIAL(gate) \
    ::moelight::DebugSerialGate::Scope moelight_serial_scope_(gate)
#else
#define MOELIGHT_ASSERT_SERIAL(gate) \
    do {                             \
    } while (false)
#endif

} // namespace moelight

#endif // MOELIGHT_COMMON_SYNC_HH
