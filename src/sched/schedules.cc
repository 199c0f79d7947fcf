#include "sched/schedules.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sched/round_plan.hh"

namespace moelight {

namespace {

/** Priorities on the HtoD link: activation traffic preempts queued
 *  weight pages (the §4.1 paging trick). */
constexpr int kPrioAct = 0;
constexpr int kPrioWeights = 1;

/** Common context shared by the per-system builders. */
struct Builder
{
    const PerfModel &pm;
    const Policy &pol;
    TaskGraph g;
    int steps;
    int layers;        ///< simulated layers per step
    int ubs;           ///< micro-batches
    double weightScale = 1.0;  ///< stream inflation (DS replication)

    // Per global-layer (step*layers + layer) task ids.
    std::vector<std::vector<TaskId>> pre, off, attn, loadh, post;
    std::vector<TaskId> wready;

    Builder(const PerfModel &pm_, const Policy &pol_,
            const ScheduleOptions &opt)
        : pm(pm_), pol(pol_)
    {
        pol.validate();
        steps = opt.decodeSteps;
        fatalIf(steps < 1, "need at least one decode step");
        layers = opt.layers > 0
            ? opt.layers
            : static_cast<int>(pm.model().l);
        ubs = static_cast<int>(pol.numUbs());
        int total = steps * layers;
        pre.assign(total, std::vector<TaskId>(ubs, -1));
        off = attn = loadh = post = pre;
        wready.assign(total, -1);
    }

    int totalLayers() const { return steps * layers; }

    std::string
    tag(const char *name, int k, int j) const
    {
        return std::string(name) + "(L" + std::to_string(k) + ",U" +
               std::to_string(j) + ")";
    }

    /**
     * Emit global layer @p k's unpaged weight stream. The slot is
     * reused from layer k-2, so all of layer k-2's consumers must have
     * retired first.
     */
    void
    emitWeights(int k, int step)
    {
        std::vector<TaskId> deps;
        if (k >= 2)
            deps.push_back(post[k - 2][ubs - 1]);
        wready[k] = g.add(ResourceKind::HtoD,
                          pm.weightStreamTime(pol) * weightScale,
                          std::move(deps), tag("W", k, 0), kPrioWeights,
                          step);
    }

    /** Dependencies of PreAttn(k, j): previous layer's output for
     *  this micro-batch plus this layer's weights. */
    std::vector<TaskId>
    preDeps(int k, int j) const
    {
        std::vector<TaskId> deps{wready[k]};
        if (k > 0)
            deps.push_back(post[k - 1][j]);
        return deps;
    }
};

/**
 * CGOPipe (Algorithm 1) and its unpaged variant S2 (one chunk per
 * layer): the engine's decode round plan (sched/round_plan.hh) with
 * PerfModel durations. The steps are laid end to end as one round of
 * steps * layers layers, so they chain as the engine's rounds do,
 * without a barrier between them: each layer streams the next one,
 * and a weight node counts toward the step of the layer it streams.
 * The last step's wrap-around chunks stream nothing simulated and are
 * dropped. The simulator's queues dispatch by priority, not FIFO, so
 * each Weights node also waits on the previous one, as the engine's
 * HtoD queue orders them.
 */
void
buildPlanned(Builder &b, std::size_t chunks)
{
    const PerfModel &pm = b.pm;
    const ModelConfig &m = pm.model();
    std::size_t mu = b.pol.microBatch;
    RoundShape shape{
        .layers = static_cast<std::size_t>(b.totalLayers()),
        .ubs = static_cast<std::size_t>(b.ubs),
        .chunks = chunks,
        // Abstract pages: each chunk one equal share of the stream.
        .pagesPerLayer = chunks,
        .densePages = chunks,
        .cpuFfn = cpuFfnRound(b.pol.numUbs(), mu, m.k, m.ne)};
    RoundPlan plan = planDecodeRound(shape);

    // A CPU-FFN round is priced as F_g = CPU: its stream is the dense
    // weights, and the whole post-attention runs as CpuFfn, so Route
    // and Ffn add no GPU time.
    Seconds stream = pm.weightStreamTime(b.pol);
    auto duration = [&](const PlanNode &n) -> Seconds {
        switch (n.stage) {
          case Stage::Weights:
            return stream * static_cast<double>(n.pageHi - n.pageLo) /
                   static_cast<double>(chunks);
          case Stage::PreAttn:
            return pm.preAttnGpuTime(mu);
          case Stage::OffloadQkv:
            return pm.qkvOffloadTime(mu);
          case Stage::CpuAttn:
            return pm.cpuAttnTime(mu);
          case Stage::LoadH:
          case Stage::OffloadFfn:
          case Stage::LoadFfn:
            return pm.hiddenLoadTime(mu);
          case Stage::PostAttn:
            return pm.postAttnGpuTime(mu);
          case Stage::CpuFfn:
            return pm.cpuFfnTime(mu);
          default:
            return 0.0;
        }
    };

    // A node that names a later one (layer readiness under the
    // lookahead) is held back until that node is in the graph.
    std::vector<TaskId> id(plan.size(), -1);
    TaskId last_weights = -1;
    auto emit = [&](std::size_t n) {
        const PlanNode &node = plan[n];
        std::vector<TaskId> deps;
        for (NodeId d : node.deps) {
            if (id[d] < 0)
                return false;
            deps.push_back(id[d]);
        }
        bool weights = node.stage == Stage::Weights;
        if (weights && last_weights >= 0)
            deps.push_back(last_weights);
        id[n] = b.g.add(node.queue(), duration(node), std::move(deps),
                        label(node), weights ? kPrioWeights : kPrioAct,
                        static_cast<int>(node.layer.value()) / b.layers);
        if (weights)
            last_weights = id[n];
        return true;
    };
    std::vector<std::size_t> held;
    for (std::size_t n = 0; n < plan.size(); ++n) {
        if (plan[n].stage != Stage::Weights ||
            plan[n].layer.value() < shape.layers)
            held.push_back(n);
        for (auto it = held.begin(); it != held.end();)
            it = emit(*it) ? held.erase(it) : it + 1;
    }
    panicIf(!held.empty(), "round plan has an unresolvable dependency");
}

/**
 * S3 / FlexGen(c): CPU attention with no pipelining — the GPU may run
 * at most the next micro-batch's pre-attention ahead, then stalls
 * until the CPU attention and the post-attention of the current
 * micro-batch complete (Fig. 6 third row).
 */
void
buildCpuAttnSerial(Builder &b)
{
    for (int k = 0; k < b.totalLayers(); ++k) {
        int step = k / b.layers;
        b.emitWeights(k, step);
        for (int j = 0; j < b.ubs; ++j) {
            std::size_t mu = b.pol.microBatch;
            std::vector<TaskId> deps = b.preDeps(k, j);
            // No-lookahead constraint: PreAttn(k, j) may not start
            // before PostAttn(k, j-2) retired.
            if (j >= 2)
                deps.push_back(b.post[k][j - 2]);
            else if (j == 0 && k > 0)
                deps.push_back(b.post[k - 1][b.ubs - 1]);
            b.pre[k][j] = b.g.add(ResourceKind::Gpu,
                                  b.pm.preAttnGpuTime(mu),
                                  std::move(deps), b.tag("A", k, j),
                                  0, step);
            b.off[k][j] = b.g.add(ResourceKind::DtoH,
                                  b.pm.qkvOffloadTime(mu),
                                  {b.pre[k][j]}, b.tag("Q", k, j),
                                  kPrioAct, step);
            // FlexGen(c) lacks the GQA-aware CPU kernel, so its
            // attention reads inflate (see PerfModel docs).
            b.attn[k][j] = b.g.add(ResourceKind::Cpu,
                                   b.pm.cpuAttnTimeNaive(mu),
                                   {b.off[k][j]}, b.tag("B", k, j),
                                   0, step);
            b.loadh[k][j] = b.g.add(ResourceKind::HtoD,
                                    b.pm.hiddenLoadTime(mu),
                                    {b.attn[k][j]}, b.tag("H", k, j),
                                    kPrioAct, step);
            b.post[k][j] = b.g.add(ResourceKind::Gpu,
                                   b.pm.postAttnGpuTime(mu),
                                   {b.loadh[k][j], b.wready[k]},
                                   b.tag("C", k, j), 0, step);
        }
    }
}

/**
 * S4 / FlexGen: attention on GPU; the KV cache for each micro-batch
 * streams over HtoD (prefetched one micro-batch ahead), contending
 * with the unpaged weight block. DeepSpeed reuses this builder with
 * KV resident on the GPU (no KV streaming).
 */
void
buildGpuAttn(Builder &b, bool streamKv)
{
    std::vector<std::vector<TaskId>> kvload(
        b.totalLayers(), std::vector<TaskId>(b.ubs, -1));
    for (int k = 0; k < b.totalLayers(); ++k) {
        int step = k / b.layers;
        b.emitWeights(k, step);
        for (int j = 0; j < b.ubs; ++j) {
            std::size_t mu = b.pol.microBatch;
            if (streamKv) {
                // Prefetch: KV(k, j) needs the buffer freed by the
                // attention of micro-batch j-2 of the same layer.
                std::vector<TaskId> deps;
                if (j >= 2)
                    deps.push_back(b.attn[k][j - 2]);
                kvload[k][j] = b.g.add(ResourceKind::HtoD,
                                       b.pm.kvLoadTime(mu, b.pol),
                                       std::move(deps),
                                       b.tag("K", k, j), kPrioAct,
                                       step);
            }
            b.pre[k][j] = b.g.add(ResourceKind::Gpu,
                                  b.pm.preAttnGpuTime(mu),
                                  b.preDeps(k, j), b.tag("A", k, j),
                                  0, step);
            std::vector<TaskId> attn_deps{b.pre[k][j]};
            if (streamKv)
                attn_deps.push_back(kvload[k][j]);
            b.attn[k][j] = b.g.add(ResourceKind::Gpu,
                                   b.pm.gpuAttnTime(mu),
                                   std::move(attn_deps),
                                   b.tag("B", k, j), 0, step);
            // New token's KV goes back to host for the CPU-resident
            // fraction.
            double kv_off_bytes =
                (1.0 - b.pol.kvOnGpu) * static_cast<double>(mu) *
                b.pm.model().kvBytesPerTokenPerLayer();
            b.off[k][j] = b.g.add(
                ResourceKind::DtoH,
                kv_off_bytes / b.pm.hardware().effBcg(),
                {b.attn[k][j]}, b.tag("Q", k, j), kPrioAct, step);
            b.post[k][j] = b.g.add(ResourceKind::Gpu,
                                   b.pm.postAttnGpuTime(mu),
                                   {b.attn[k][j], b.wready[k]},
                                   b.tag("C", k, j), 0, step);
        }
    }
}

} // namespace

TaskGraph
buildSchedule(SystemKind sys, const PerfModel &pm, const Policy &pol,
              const ScheduleOptions &opt)
{
    Builder b(pm, pol, opt);
    switch (sys) {
      case SystemKind::MoeLightning:
      case SystemKind::MoeLightningPadded:
        if (pol.attnOnGpu)
            buildGpuAttn(b, /*streamKv=*/pol.kvOnGpu < 1.0);
        else
            buildPlanned(b, static_cast<std::size_t>(
                                opt.pagesPerLayer > 0 ? opt.pagesPerLayer
                                                      : b.ubs));
        break;
      case SystemKind::FastDecode:
        buildPlanned(b, 1);
        break;
      case SystemKind::FlexGenC:
        buildCpuAttnSerial(b);
        break;
      case SystemKind::FlexGen:
        buildGpuAttn(b, /*streamKv=*/true);
        break;
      case SystemKind::DeepSpeed:
        // Layer replication to every GPU (see PerfModel::layerDecode).
        b.weightScale = static_cast<double>(pm.hardware().numGpus);
        buildGpuAttn(b, /*streamKv=*/false);
        break;
    }
    return std::move(b.g);
}

SimThroughput
simulateThroughput(SystemKind sys, const PerfModel &pm, const Policy &pol,
                   ScheduleOptions opt)
{
    if (opt.layers <= 0) {
        // Shrink the DAG: decode structure repeats per layer, so a
        // handful of layers captures the steady state.
        opt.layers = std::min<int>(static_cast<int>(pm.model().l), 6);
    }
    if (opt.decodeSteps < 3)
        opt.decodeSteps = 3;

    TaskGraph g = buildSchedule(sys, pm, pol, opt);
    SimThroughput out;
    out.sim = simulate(g);
    Seconds per_sim_step = out.sim.steadyStepTime();
    double scale = static_cast<double>(pm.model().l) /
                   static_cast<double>(opt.layers);
    out.decodeStep = per_sim_step * scale;
    out.prefill = pm.prefillTime(pol);
    double gen = pm.workload().genLen;
    double tokens = static_cast<double>(pol.batchSize) * gen;
    out.tokensPerSec =
        tokens / (out.prefill + gen * out.decodeStep);
    return out;
}

} // namespace moelight
