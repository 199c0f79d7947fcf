/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark
 * wraps every call it makes into a layer's public functions in a Span
 * (layer, function, start, end, parent span, optional request id);
 * deliveries are instant events. Spans stay in memory and are written
 * as Chrome-trace JSON when the run ends. A disabled tracer records
 * nothing, so untraced runs pay one branch per call.
 *
 * Single-threaded: only the driver thread records.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; @p layer and @p fn must be string literals.
     *  Returns its id (0 when disabled). */
    std::uint32_t begin(const char *layer, const char *fn,
                        std::int64_t req = -1);
    /** Close span @p id (the innermost open span). */
    void end(std::uint32_t id);
    /** A zero-length event, e.g. the delivery of request @p req. */
    void instant(const char *layer, const char *name, std::int64_t req);

    /** Recorded spans and instants. */
    std::size_t events() const { return events_.size(); }

    /** Write every event as Chrome-trace JSON; @p meta goes to the
     *  top-level "otherData" object. Returns false on I/O failure. */
    bool writeChromeTrace(
        const std::string &path,
        const std::map<std::string, std::string> &meta) const;

  private:
    struct Event
    {
        const char *layer;
        const char *fn;
        std::int64_t startNs;
        std::int64_t endNs;  ///< -1 for an instant
        std::uint32_t id;
        std::uint32_t parent;  ///< 0 = root
        std::int64_t req;      ///< -1 = not request-scoped
    };

    std::int64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Event> events_;
    std::vector<std::uint32_t> open_;  ///< stack of open event indices
};

/** RAII span: a no-op when the tracer is null or disabled. */
class Span
{
  public:
    Span(Tracer *tr, const char *layer, const char *fn,
         std::int64_t req = -1)
        : tr_(tr && tr->enabled() ? tr : nullptr),
          id_(tr_ ? tr_->begin(layer, fn, req) : 0)
    {
    }
    ~Span()
    {
        if (tr_)
            tr_->end(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tr_;
    std::uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
