/**
 * @file
 * HRM-based performance model (paper §4.2). Estimates per-layer decode
 * latency T = max(comm_cpu_to_gpu, T_cpu, T_gpu) (Eq. 12), prefill
 * latency, end-to-end generation throughput, and the bottleneck
 * resource — for MoE-Lightning and for the baseline system families
 * (whose schedules overlap less, see sched/ for the event-level
 * versions).
 */

#ifndef MOELIGHT_PERF_PERF_MODEL_HH
#define MOELIGHT_PERF_PERF_MODEL_HH

#include <string>

#include "common/units.hh"
#include "hw/hardware.hh"
#include "model/model_config.hh"
#include "model/op_cost.hh"
#include "perf/mem_model.hh"
#include "policy/policy.hh"

namespace moelight {

/** Per-layer decode time, broken into the Eq. 12 components. */
struct LayerTime
{
    Seconds commHtoD = 0.0;  ///< CPU->GPU traffic (weights+hidden+KV)
    Seconds commDtoH = 0.0;  ///< GPU->CPU traffic (QKV / new KV)
    Seconds tCpu = 0.0;      ///< CPU compute (attention, opt. FFN)
    Seconds tGpu = 0.0;      ///< GPU compute (pre/post attn, opt. attn)
    Seconds bubble = 0.0;    ///< schedule-induced serialization
    Seconds total = 0.0;     ///< resulting per-layer latency

    /** Name of the component that set @c total. */
    std::string bottleneck() const;
};

/**
 * Analytical model for one (model, hardware, workload) triple.
 * All rates are the hardware's effective (profiled-peak) rates.
 */
class PerfModel
{
  public:
    PerfModel(const ModelConfig &m, const HardwareConfig &hw,
              const WorkloadShape &w, bool padded);

    /** Average decode context length s(+pad) + n/2. */
    double decodeCtx() const;

    /** Per-micro-batch primitive times (used by sched/ as durations). */
    Seconds preAttnGpuTime(std::size_t mu) const;
    Seconds postAttnGpuTime(std::size_t mu) const;
    Seconds cpuAttnTime(std::size_t mu) const;
    /**
     * CPU attention without a GQA-aware kernel (FlexGen(c)'s torch
     * path): K/V are materialized per *query* head at fp32, so the
     * memory traffic inflates by (nq/nkv) x 2 relative to the
     * paper's (and our) grouped kernel.
     */
    Seconds cpuAttnTimeNaive(std::size_t mu) const;
    Seconds gpuAttnTime(std::size_t mu) const;
    Seconds cpuFfnTime(std::size_t mu) const;
    /** Link transfer times. */
    Seconds qkvOffloadTime(std::size_t mu) const;
    Seconds hiddenLoadTime(std::size_t mu) const;
    /**
     * True when @p pol's decode rounds run the MoE FFN on the CPU:
     * F_g = CPU, or one micro-batch whose mu * k routed slots are
     * fewer than ne — the rounds the engine runs that way
     * (cpuFfnRound, sched/round_plan.hh).
     */
    bool ffnOnCpu(const Policy &pol) const;
    /** Per-layer decode weight stream: the dense weights, plus every
     *  expert unless the FFN runs on the CPU (ffnOnCpu). */
    Seconds weightStreamTime(const Policy &pol) const;
    Seconds kvLoadTime(std::size_t mu, const Policy &pol) const;

    /** Eq. 12 layer decode latency under a CGOPipe-quality overlap. */
    LayerTime layerDecode(const Policy &pol) const;
    /**
     * Layer decode latency for a baseline schedule: adds the bubbles
     * the Fig. 6 diagrams show (unpaged weight blocking, serialized
     * CPU attention, KV-prefetch link contention).
     */
    LayerTime layerDecode(const Policy &pol, SystemKind sys) const;

    /** Prefill latency for the whole batch (all layers). */
    Seconds prefillTime(const Policy &pol) const;

    /** End-to-end generation throughput in tokens/s (paper metric:
     *  generated tokens / (prefill + decode time)). */
    double generationThroughput(const Policy &pol, SystemKind sys) const;

    /** Memory feasibility of @p pol on this triple. */
    bool feasible(const Policy &pol) const;
    MemoryFootprint footprint(const Policy &pol) const;

    const ModelConfig &model() const { return model_; }
    const HardwareConfig &hardware() const { return hw_; }
    const WorkloadShape &workload() const { return w_; }
    bool padded() const { return padded_; }

  private:
    /** Stream time of one layer's dense weights, plus its experts
     *  when @p experts. */
    Seconds layerStreamTime(const Policy &pol, bool experts) const;

    ModelConfig model_;
    HardwareConfig hw_;
    WorkloadShape w_;
    bool padded_;
};

} // namespace moelight

#endif // MOELIGHT_PERF_PERF_MODEL_HH
