/**
 * @file
 * Sample statistics and round classification for the serving
 * benchmark. Percentiles follow the reporting rule of the benchmark:
 * a percentile is reported only when at least kMinBeyond samples lie
 * beyond it, so a p90 needs at least 100 samples.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile @p q (in (0, 1]) of @p samples, or nullopt
 * when fewer than kMinBeyond samples lie beyond the rank.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Median without the samples-beyond rule (nullopt when empty); for
 *  repeated timings of one fixed operation. */
std::optional<double> median(std::vector<double> samples);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &samples);

/**
 * What the driver observes around one step(): the pending count the
 * previous step() left, the requests submitted since, the pending
 * count after this step() and the preemptions it made (a preempted
 * request re-enters the pending queue).
 */
struct RoundObservation
{
    std::size_t pendingBefore = 0;
    std::size_t submitted = 0;
    std::size_t pendingAfter = 0;
    std::size_t preempted = 0;
};

/** Requests the round admitted: the fall of the pending count beyond
 *  what was submitted (preemption re-queues added back). */
std::size_t admittedIn(const RoundObservation &r);

/** An admit round admitted at least one request; every other round
 *  is a decode round. */
inline bool
isAdmitRound(const RoundObservation &r)
{
    return admittedIn(r) > 0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
