#include "sim/task_graph.hh"

#include "common/logging.hh"

namespace moelight {

std::string
resourceName(ResourceKind r)
{
    switch (r) {
      case ResourceKind::Gpu:
        return "GPU";
      case ResourceKind::Cpu:
        return "CPU";
      case ResourceKind::HtoD:
        return "HtoD";
      case ResourceKind::DtoH:
        return "DtoH";
    }
    return "?";
}

TaskId
TaskGraph::add(ResourceKind r, Seconds duration, std::vector<TaskId> deps,
               std::string label, int priority, int step)
{
    fatalIf(duration < 0.0, "task '", label, "' has negative duration");
    TaskId id = static_cast<TaskId>(tasks_.size());
    for (TaskId d : deps)
        panicIf(d < 0 || d >= id, "task '", label,
                "' depends on unknown task ", d);
    SimTask t;
    t.resource = r;
    t.duration = toSimTime(duration);
    t.deps = std::move(deps);
    t.priority = priority;
    t.label = std::move(label);
    t.step = step;
    tasks_.push_back(std::move(t));
    return id;
}

} // namespace moelight
