#include "tracer.hh"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
    if (enabled_)
        events_.reserve(1u << 16);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint32_t
Tracer::begin(const char *layer, const char *fn, std::int64_t req)
{
    if (!enabled_)
        return 0;
    // Ids are 1-based event indices, so 0 can mean "no parent".
    auto id = static_cast<std::uint32_t>(events_.size() + 1);
    std::uint32_t parent = open_.empty() ? 0 : open_.back();
    events_.push_back({layer, fn, nowNs(), 0, id, parent, req});
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::uint32_t id)
{
    if (!enabled_ || id == 0)
        return;
    events_[id - 1].endNs = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::instant(const char *layer, const char *name, std::int64_t req)
{
    if (!enabled_)
        return;
    auto id = static_cast<std::uint32_t>(events_.size() + 1);
    std::uint32_t parent = open_.empty() ? 0 : open_.back();
    std::int64_t t = nowNs();
    events_.push_back({layer, name, t, -1, id, parent, req});
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &meta) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto &[k, v] : meta) {
        os << (first ? "" : ",") << '"' << jsonEscape(k) << "\":\""
           << jsonEscape(v) << '"';
        first = false;
    }
    os << "},\"traceEvents\":[";
    char buf[96];
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << e.fn
           << "\",\"cat\":\"" << e.layer << "\",\"pid\":1,\"tid\":1,";
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,",
                      static_cast<double>(e.startNs) / 1e3);
        os << buf;
        if (e.endNs < 0) {
            os << "\"ph\":\"i\",\"s\":\"t\",";
        } else {
            std::snprintf(
                buf, sizeof buf, "\"ph\":\"X\",\"dur\":%.3f,",
                static_cast<double>(e.endNs - e.startNs) / 1e3);
            os << buf;
        }
        os << "\"args\":{\"span\":" << e.id << ",\"parent\":" << e.parent;
        if (e.req >= 0)
            os << ",\"req\":" << e.req;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
