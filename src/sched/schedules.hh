/**
 * @file
 * Schedule builders: translate (system, policy, perf model) into the
 * task DAGs of Fig. 6. Every builder emits the same logical work —
 * per (layer, micro-batch): pre-attention, attention, post-attention
 * plus the associated transfers — but with each system's ordering,
 * paging and overlap constraints:
 *
 *   CGOPipe      the engine's round plan (sched/round_plan.hh):
 *                paged weights interleaved with activation loads,
 *                CPU attention launched two micro-batches ahead
 *                (Algorithm 1), CPU-FFN rounds split into
 *                Route / OffloadFfn / CpuFfn / LoadFfn / Ffn.
 *   S2           FastDecode*-style: the same plan with the weights
 *                transferred as one unpaged chunk per layer.
 *   S3           FlexGen(c): CPU attention serializing the GPU,
 *                unpaged weights.
 *   S4           FlexGen: GPU attention with prefetched KV; KV and
 *                weight transfers contend on HtoD.
 *   DeepSpeed    layer-streamed weights, KV resident on GPU, single
 *                micro-batch.
 */

#ifndef MOELIGHT_SCHED_SCHEDULES_HH
#define MOELIGHT_SCHED_SCHEDULES_HH

#include "perf/perf_model.hh"
#include "policy/policy.hh"
#include "sim/simulator.hh"
#include "sim/task_graph.hh"

namespace moelight {

/** Options controlling DAG size (for fast simulation / Fig. 6). */
struct ScheduleOptions
{
    int decodeSteps = 4;   ///< decode iterations to simulate
    int layers = 0;        ///< 0 = model's full layer count
    /** Weight chunks per layer of CGOPipe's plan (RoundShape::
     *  chunks); 0 = one per micro-batch (the §4.1 rule "n pages where
     *  n equals the number of micro-batches"). Ignored by unpaged
     *  schedules. */
    int pagesPerLayer = 0;
};

/** Build the decode task DAG for @p sys. */
TaskGraph buildSchedule(SystemKind sys, const PerfModel &pm,
                        const Policy &pol,
                        const ScheduleOptions &opt = ScheduleOptions());

/** Throughput estimate produced by simulating a schedule. */
struct SimThroughput
{
    double tokensPerSec = 0.0;   ///< end-to-end generation throughput
    Seconds decodeStep = 0.0;    ///< steady-state time per decode step
    Seconds prefill = 0.0;       ///< modelled prefill time
    SimResult sim;               ///< raw simulation outputs
};

/**
 * Simulate @p sys under @p pol and combine with the modelled prefill
 * time into the paper's generation-throughput metric. When
 * @p opt.layers shrinks the DAG, the per-step time is scaled back to
 * the model's full depth (the per-layer structure is periodic).
 */
SimThroughput simulateThroughput(SystemKind sys, const PerfModel &pm,
                                 const Policy &pol,
                                 ScheduleOptions opt = ScheduleOptions());

} // namespace moelight

#endif // MOELIGHT_SCHED_SCHEDULES_HH
