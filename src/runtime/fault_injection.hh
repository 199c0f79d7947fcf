/**
 * @file
 * Deterministic fault injection for the serving runtime. Hot paths
 * that can fail in production — KV page allocation, weight-page
 * streaming, executor task bodies — call FaultInjector::check(site)
 * with a stable site name; a disarmed injector costs one relaxed
 * atomic load. Tests (and the fig7 fault-storm bench) arm sites
 * either count-addressed ("throw on the Nth check of kv.alloc" —
 * fully deterministic, the workhorse for test_fault_injection.cc) or
 * seeded-rate ("throw with probability p per check, from seed s" —
 * deterministic per seed, for storm workloads). A tripped site throws
 * EngineError(FaultInjected), which the engines contain at request or
 * round scope like any real fault.
 *
 * Site names (see docs/error_model.md):
 *   kv.alloc     — KvCache::append (once per appended token)
 *   weights.load — PagedWeightStore::loadPage
 *   exec.task    — StreamExecutor::workerLoop, before each task body
 *
 * The environment variable MOELIGHT_FAULT arms sites at process
 * startup without code changes, e.g.
 *   MOELIGHT_FAULT="kv.alloc:40"            # one-shot on 40th check
 *   MOELIGHT_FAULT="exec.task:p0.001:s7"    # rate 1e-3, seed 7
 *   MOELIGHT_FAULT="kv.alloc:40;exec.task:p0.01"
 */

#ifndef MOELIGHT_RUNTIME_FAULT_INJECTION_HH
#define MOELIGHT_RUNTIME_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/sync.hh"

namespace moelight {

/** Process-wide injector; thread-safe (checks run on queue workers). */
class FaultInjector
{
  public:
    /** The singleton; parses MOELIGHT_FAULT once on first use. */
    static FaultInjector &instance();

    /** Hook for instrumented sites. No-op (one relaxed load) unless
     *  some site is armed; throws EngineError(FaultInjected) when
     *  @p site trips. */
    static void
    check(const char *site)
    {
        FaultInjector &fi = instance();
        if (fi.enabled_.load(std::memory_order_relaxed))
            fi.checkSlow(site);
    }

    /** Arm @p site to throw on its @p nth check from now (1-based).
     *  One-shot: the site disarms after firing, so a test gets
     *  exactly one mid-flight fault. */
    void armCount(const std::string &site, std::uint64_t nth);

    /** Arm @p site to throw with probability @p rate per check,
     *  driven by a deterministic generator seeded with @p seed. */
    void armRate(const std::string &site, double rate,
                 std::uint64_t seed);

    void disarm(const std::string &site);
    void disarmAll();

    /** Times @p site has thrown since armed (for test assertions). */
    std::uint64_t hits(const std::string &site) const;

  private:
    FaultInjector() = default;

    void checkSlow(const char *site);
    void loadEnv();
    void recomputeEnabled() REQUIRES(mu_);

    struct Site
    {
        std::uint64_t calls = 0;
        std::uint64_t hitCount = 0;
        // Count mode: fire when calls reaches nth (0 = off).
        std::uint64_t nth = 0;
        // Rate mode: fire when the next draw < rate.
        bool rateArmed = false;
        double rate = 0.0;
        std::uint64_t rngState = 0;
    };

    mutable Mutex mu_;
    std::map<std::string, Site> sites_ GUARDED_BY(mu_);
    /** Fast-path flag mirroring "any site armed"; written under mu_,
     *  read lock-free in check(). A stale read only costs one extra
     *  checkSlow() round-trip or skips a check that raced disarm. */
    std::atomic<bool> enabled_{false};
};

/** RAII helper for tests: arms one site in its scope, disarms (and
 *  clears every site) on exit so injector state cannot leak across
 *  test cases. */
class ScopedFault
{
  public:
    ScopedFault(const std::string &site, std::uint64_t nth)
        : site_(site)
    {
        FaultInjector::instance().armCount(site, nth);
    }
    ~ScopedFault() { FaultInjector::instance().disarmAll(); }

    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;

    std::uint64_t
    hits() const
    {
        return FaultInjector::instance().hits(site_);
    }

  private:
    std::string site_;
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_FAULT_INJECTION_HH
