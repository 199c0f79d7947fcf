/**
 * @file
 * One benchmark run of one workload: set up the engine (several times,
 * for a set-up median), drive the seeded load through the public
 * serving API for the requested seconds, check outputs against
 * ReferenceEngine, and report either the end-to-end metrics (untraced)
 * or the per-layer metrics (traced, with a kernel probe afterwards).
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench {

/** Requests each segment of a run (a closed pass, or a third of the
 *  open loop's arrivals) must complete, so that its p90 has at least
 *  ten samples beyond it. */
inline constexpr std::size_t kMinCompleted = 100;

/** Open-loop health bound: a run whose generator submitted its p90
 *  request later than this after the request's due time is invalid
 *  (the single driver thread only submits between rounds, so
 *  lateness of up to one round is expected). */
inline constexpr double kMaxLatenessP90Ms = 500.0;

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome-trace output path of a traced run ("" = don't write). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable context and diagnostics, printed before the
     *  result line. */
    std::vector<std::string> notes;
};

RunReport runWorkload(const WorkloadSpec &w, const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
