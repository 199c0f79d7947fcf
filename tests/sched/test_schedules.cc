#include <gtest/gtest.h>

#include "sched/schedules.hh"

namespace moelight {
namespace {

PerfModel
s1Model()
{
    return PerfModel(mixtral8x7b(), t4Host(), {77.0, 418.0, 64.0},
                     true);
}

Policy
cgoPolicy(std::size_t n = 256, std::size_t mu = 32)
{
    Policy p;
    p.batchSize = n;
    p.microBatch = mu;
    p.attnOnGpu = false;
    p.ffnOnGpu = true;
    return p;
}

ScheduleOptions
smallOpts()
{
    ScheduleOptions o;
    o.decodeSteps = 3;
    o.layers = 4;
    return o;
}

TEST(Schedules, GraphSizeScalesWithWork)
{
    PerfModel pm = s1Model();
    TaskGraph g = buildSchedule(SystemKind::MoeLightning, pm,
                                cgoPolicy(), smallOpts());
    // 8 micro-batches x 4 layers x 3 steps x 5 tasks + weight pages.
    EXPECT_GT(g.size(), 3u * 4u * 8u * 5u);
}

TEST(Schedules, AllSystemsComplete)
{
    PerfModel pm = s1Model();
    Policy cpu_pol = cgoPolicy();
    Policy gpu_pol = cgoPolicy();
    gpu_pol.attnOnGpu = true;
    for (SystemKind sys :
         {SystemKind::MoeLightning, SystemKind::FastDecode,
          SystemKind::FlexGenC}) {
        TaskGraph g = buildSchedule(sys, pm, cpu_pol, smallOpts());
        SimResult r = simulate(g);
        EXPECT_GT(r.makespan, 0) << systemName(sys);
    }
    for (SystemKind sys :
         {SystemKind::FlexGen, SystemKind::DeepSpeed}) {
        TaskGraph g = buildSchedule(sys, pm, gpu_pol, smallOpts());
        SimResult r = simulate(g);
        EXPECT_GT(r.makespan, 0) << systemName(sys);
    }
}

TEST(Schedules, CgoPipeBeatsUnpagedPipeline)
{
    // Fig. 6: paged weights remove the HtoD head-of-line blocking, so
    // CGOPipe's steady step is never slower than S2's.
    PerfModel pm = s1Model();
    Policy p = cgoPolicy();
    auto cgo =
        simulateThroughput(SystemKind::MoeLightning, pm, p, smallOpts());
    auto s2 =
        simulateThroughput(SystemKind::FastDecode, pm, p, smallOpts());
    EXPECT_LE(cgo.decodeStep, s2.decodeStep * 1.001);
}

TEST(Schedules, UnpagedPipelineBeatsSerialCpuAttention)
{
    // The S2-vs-S3 gap (overlapped vs serialized CPU attention) shows
    // up when CPU attention is a large share of the layer time — use
    // the long-context summarization shape. In purely link-bound
    // regimes both degrade to the weight-transfer time.
    PerfModel pm(mixtral8x7b(), t4Host(), {1693.0, 1984.0, 64.0},
                 true);
    Policy p = cgoPolicy(1024, 64);
    auto s2 =
        simulateThroughput(SystemKind::FastDecode, pm, p, smallOpts());
    auto s3 =
        simulateThroughput(SystemKind::FlexGenC, pm, p, smallOpts());
    // The unpaged weight block dominates both, so the margin is
    // modest — but the ordering and the GPU utilization gap must
    // hold (S2 overlaps CPU attention with GPU compute).
    EXPECT_LT(s2.decodeStep, s3.decodeStep);
    auto gpu = [](const SimThroughput &t) {
        return t.sim.utilization[static_cast<std::size_t>(
            ResourceKind::Gpu)];
    };
    EXPECT_GE(gpu(s2), gpu(s3));
}

TEST(Schedules, CgoPipeKeepsLinkBusy)
{
    // CGOPipe's whole point: on a link-bound config the HtoD link
    // utilization should be near 1 in steady state.
    PerfModel pm = s1Model();
    auto cgo = simulateThroughput(SystemKind::MoeLightning, pm,
                                  cgoPolicy(), smallOpts());
    double htod = cgo.sim.utilization[static_cast<std::size_t>(
        ResourceKind::HtoD)];
    EXPECT_GT(htod, 0.85);
}

TEST(Schedules, SerialScheduleWastesGpu)
{
    PerfModel pm = s1Model();
    auto cgo = simulateThroughput(SystemKind::MoeLightning, pm,
                                  cgoPolicy(), smallOpts());
    auto s3 = simulateThroughput(SystemKind::FlexGenC, pm, cgoPolicy(),
                                 smallOpts());
    // Serial CPU attention leaves both GPU and link more idle.
    auto util = [](const SimThroughput &t, ResourceKind r) {
        return t.sim.utilization[static_cast<std::size_t>(r)];
    };
    EXPECT_GT(util(cgo, ResourceKind::HtoD),
              util(s3, ResourceKind::HtoD));
}

TEST(Schedules, ThroughputMatchesAnalyticalModelRoughly)
{
    // The DES and the closed-form Eq. 12 must agree within ~25% for
    // CGOPipe (same durations, near-perfect overlap).
    PerfModel pm = s1Model();
    Policy p = cgoPolicy();
    auto simulated = simulateThroughput(SystemKind::MoeLightning, pm, p,
                                        smallOpts());
    LayerTime lt = pm.layerDecode(p, SystemKind::MoeLightning);
    double analytic_step = lt.total * static_cast<double>(pm.model().l);
    EXPECT_NEAR(simulated.decodeStep, analytic_step,
                0.25 * analytic_step);
}

TEST(Schedules, DeepSpeedSingleMicroBatch)
{
    PerfModel pm = s1Model();
    Policy p;
    p.batchSize = 64;
    p.microBatch = 64;
    p.attnOnGpu = true;
    p.kvOnGpu = 1.0;
    auto ds =
        simulateThroughput(SystemKind::DeepSpeed, pm, p, smallOpts());
    EXPECT_GT(ds.tokensPerSec, 0.0);
    // Weight streaming must dominate the step time.
    Seconds stream = pm.model().weightBytesPerLayer() /
                     pm.hardware().effBcg() *
                     static_cast<double>(pm.model().l);
    EXPECT_GE(ds.decodeStep, 0.9 * stream);
}

TEST(Schedules, MoreUbsSmoothsPipeline)
{
    // With one micro-batch there is no CPU/GPU overlap; with 8 the
    // decode step must shrink substantially.
    PerfModel pm = s1Model();
    auto one = simulateThroughput(SystemKind::MoeLightning, pm,
                                  cgoPolicy(32, 32), smallOpts());
    auto eight = simulateThroughput(SystemKind::MoeLightning, pm,
                                    cgoPolicy(256, 32), smallOpts());
    // 8x the tokens in less than 8x the step time (overlap wins).
    EXPECT_LT(eight.decodeStep, 8.0 * one.decodeStep);
}

TEST(Schedules, WeightStreamPerLayerMatchesPerfModel)
{
    // The simulated weight stream (the Weights nodes) of every layer
    // adds up to PerfModel's per-layer stream time, for a CPU-FFN
    // one-micro-batch policy (dense pages only, and one CpuFfn node
    // per layer at cpuFfnTime) and for a full one.
    PerfModel pm = s1Model();
    ScheduleOptions o = smallOpts();
    std::size_t layers = static_cast<std::size_t>(o.decodeSteps * o.layers);
    for (Policy p : {cgoPolicy(2, 2), cgoPolicy(256, 32)}) {
        bool cpu_ffn = p.numUbs() == 1;
        SCOPED_TRACE(cpu_ffn ? "cpu ffn" : "full");
        EXPECT_EQ(pm.ffnOnCpu(p), cpu_ffn);
        TaskGraph g = buildSchedule(SystemKind::MoeLightning, pm, p, o);
        SimTime weights = 0;
        std::size_t ffns = 0;
        for (const SimTask &t : g.tasks()) {
            if (t.label[0] == 'W')
                weights += t.duration;
            if (t.label[0] == 'F') {
                ++ffns;
                EXPECT_EQ(t.resource, ResourceKind::Cpu);
                EXPECT_NEAR(toSeconds(t.duration),
                            pm.cpuFfnTime(p.microBatch), 1e-6);
            }
        }
        EXPECT_EQ(ffns, cpu_ffn ? layers : 0u);
        EXPECT_GT(simulate(g).makespan, 0);
        EXPECT_NEAR(toSeconds(weights) / static_cast<double>(layers),
                    pm.weightStreamTime(p), 1e-6);
    }
}

TEST(Schedules, StepsScaleLinearly)
{
    PerfModel pm = s1Model();
    ScheduleOptions o = smallOpts();
    TaskGraph g3 =
        buildSchedule(SystemKind::MoeLightning, pm, cgoPolicy(), o);
    o.decodeSteps = 6;
    TaskGraph g6 =
        buildSchedule(SystemKind::MoeLightning, pm, cgoPolicy(), o);
    SimResult r3 = simulate(g3);
    SimResult r6 = simulate(g6);
    EXPECT_NEAR(static_cast<double>(r6.makespan) /
                    static_cast<double>(r3.makespan),
                2.0, 0.35);
}

} // namespace
} // namespace moelight
