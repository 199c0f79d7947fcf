/**
 * @file
 * Shared helpers for the benchmark harnesses: common policy searches
 * per system family and a paper-vs-measured table convention. Each
 * bench binary prints the same rows/series its paper counterpart
 * reports; absolute values differ (simulated substrate) but the
 * shape — ordering, crossovers, scaling — is the claim under test.
 */

#ifndef MOELIGHT_BENCH_BENCH_UTIL_HH
#define MOELIGHT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "kernels/simd/simd.hh"
#include "policy/optimizer.hh"
#include "sched/schedules.hh"

namespace moelight {
namespace bench {

/**
 * Machine-readable benchmark log: collects named records of numeric
 * (and string) fields and writes them as a JSON document, so
 * successive PRs can track the kernel perf trajectory
 * (BENCH_kernels.json) without scraping stdout.
 */
class BenchJson
{
  public:
    /** Start a record; field() calls attach to the latest record. */
    BenchJson &
    record(std::string name)
    {
        records_.push_back({std::move(name), {}});
        return *this;
    }

    BenchJson &
    field(std::string key, double value)
    {
        panicIf(records_.empty(), "BenchJson::field before record()");
        records_.back().fields.push_back(
            {std::move(key), value, {}, false});
        return *this;
    }

    /** String-valued field (e.g. the dispatched SIMD ISA, which
     *  check_bench.py keys per-ISA speedup floors on). */
    BenchJson &
    field(std::string key, std::string value)
    {
        panicIf(records_.empty(), "BenchJson::field before record()");
        records_.back().fields.push_back(
            {std::move(key), 0.0, std::move(value), true});
        return *this;
    }

    /** Write all records to @p path (overwrites). */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        panicIf(!os, "cannot open ", path, " for writing");
        os << "{\n  \"records\": [\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            os << "    {\"name\": \"" << r.name << "\"";
            for (const Field &f : r.fields) {
                os << ", \"" << f.key << "\": ";
                if (f.isString) {
                    os << "\"" << f.str << "\"";
                } else {
                    char buf[64];
                    std::snprintf(buf, sizeof(buf), "%.6g", f.num);
                    os << buf;
                }
            }
            os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
    }

  private:
    struct Field
    {
        std::string key;
        double num;
        std::string str;
        bool isString;
    };
    struct Record
    {
        std::string name;
        std::vector<Field> fields;
    };
    std::vector<Record> records_;
};

/**
 * Append the standard `simd` record — which runtime-dispatched
 * backend produced these numbers — so check_bench.py can key
 * speedup floors by ISA instead of assuming the dev host.
 */
inline BenchJson &
recordSimdBackend(BenchJson &json)
{
    return json.record("simd").field("isa",
                                     std::string(simd::activeIsaName()));
}

/**
 * Wall-clock milliseconds for the best of @p reps runs of @p fn —
 * best-of suppresses scheduler noise on shared hosts.
 */
template <typename Fn>
double
bestOfMs(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best = std::min(best, ms);
    }
    return best;
}

/** Fast-but-representative optimizer grid for the harnesses. */
inline SearchConfig
benchGrid()
{
    SearchConfig cfg;
    cfg.microBatches = {8, 16, 24, 32, 48, 64, 96, 128};
    cfg.numUbs = {1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128};
    cfg.weightRatioSteps = 10;
    cfg.kvRatioSteps = 2;
    return cfg;
}

/**
 * Pick the policy each system family would deploy on @p pm, mirroring
 * the paper's baselines: MoE-Lightning uses the HRM search; FlexGen
 * uses its conservative heuristic; DeepSpeed streams layers with KV
 * on GPU.
 */
inline std::optional<PolicyChoice>
systemPolicy(SystemKind sys, const PerfModel &pm)
{
    switch (sys) {
      case SystemKind::MoeLightning:
      case SystemKind::MoeLightningPadded:
      case SystemKind::FastDecode:
        return searchPolicy(pm, sys, benchGrid());
      case SystemKind::FlexGen:
        return flexGenPolicy(pm, /*cpuAttention=*/false);
      case SystemKind::FlexGenC:
        return flexGenPolicy(pm, /*cpuAttention=*/true);
      case SystemKind::DeepSpeed:
        return deepSpeedPolicy(pm);
    }
    return std::nullopt;
}

/**
 * End-to-end simulated generation throughput for @p sys on @p pm
 * using that system's own policy. Returns 0 when no feasible policy
 * exists.
 */
inline double
simulatedSystemThroughput(SystemKind sys, const PerfModel &pm,
                          std::optional<PolicyChoice> *chosen = nullptr)
{
    auto pc = systemPolicy(sys, pm);
    if (chosen)
        *chosen = pc;
    if (!pc)
        return 0.0;
    return simulateThroughput(sys, pm, pc->policy).tokensPerSec;
}

/** Relative-to-paper annotation, e.g. "x1.8-vs-FlexGen". */
inline std::string
speedup(double ours, double theirs)
{
    if (theirs <= 0.0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", ours / theirs);
    return buf;
}

} // namespace bench
} // namespace moelight

#endif // MOELIGHT_BENCH_BENCH_UTIL_HH
