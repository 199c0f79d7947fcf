/**
 * @file
 * Task graph consumed by the discrete-event simulator: each task runs
 * on one of the four pipeline resources of Fig. 6 (GPU compute, CPU
 * compute, HtoD link, DtoH link), has a fixed duration from the perf
 * model, explicit dependencies, and a priority that resolves resource
 * contention (e.g. hidden-state loads preempt queued weight pages —
 * the paging trick of §4.1).
 */

#ifndef MOELIGHT_SIM_TASK_GRAPH_HH
#define MOELIGHT_SIM_TASK_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace moelight {

/** The four contended resources of the decode pipeline. */
enum class ResourceKind : std::uint8_t
{
    Gpu = 0,
    Cpu = 1,
    HtoD = 2,
    DtoH = 3,
};

constexpr std::size_t kNumResources = 4;

/** Display name of a resource. */
std::string resourceName(ResourceKind r);

using TaskId = std::int32_t;

/** One node of the pipeline task DAG. */
struct SimTask
{
    ResourceKind resource = ResourceKind::Gpu;
    SimTime duration = 0;       ///< ns of exclusive resource use
    std::vector<TaskId> deps;   ///< must complete before this starts
    int priority = 0;           ///< lower value = scheduled first
    std::string label;          ///< e.g. "PostAttn(L3,U1)"
    int step = -1;              ///< decode step (for steady-state calc)
};

/** A whole DAG plus bookkeeping to build it incrementally. */
class TaskGraph
{
  public:
    /** Append a task; returns its id. Dependencies must already
     *  exist. */
    TaskId add(ResourceKind r, Seconds duration,
               std::vector<TaskId> deps, std::string label,
               int priority = 0, int step = -1);

    const std::vector<SimTask> &tasks() const { return tasks_; }
    std::size_t size() const { return tasks_.size(); }

  private:
    std::vector<SimTask> tasks_;
};

} // namespace moelight

#endif // MOELIGHT_SIM_TASK_GRAPH_HH
