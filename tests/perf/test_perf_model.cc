#include <gtest/gtest.h>

#include "common/logging.hh"
#include "perf/perf_model.hh"

namespace moelight {
namespace {

PerfModel
s1Model(double gen = 128.0, bool padded = false)
{
    return PerfModel(mixtral8x7b(), t4Host(), {77.0, 418.0, gen},
                     padded);
}

Policy
cgoPolicy(std::size_t n = 512, std::size_t mu = 32)
{
    Policy p;
    p.batchSize = n;
    p.microBatch = mu;
    p.attnOnGpu = false;
    p.ffnOnGpu = true;
    p.weightsOnGpu = 0.0;
    p.kvOnGpu = 0.0;
    return p;
}

TEST(PerfModel, LayerTimeIsMaxOfComponents)
{
    PerfModel pm = s1Model();
    LayerTime t = pm.layerDecode(cgoPolicy());
    EXPECT_DOUBLE_EQ(
        t.total, std::max({t.commHtoD, t.commDtoH, t.tCpu, t.tGpu}));
    EXPECT_GT(t.total, 0.0);
}

TEST(PerfModel, WeightStreamDominatesSmallBatchT4)
{
    // With a small batch, the per-layer weight transfer (~1.7 GB/32
    // layers over ~16 GB/s) dwarfs everything else: the system is
    // link-bound, the regime Fig. 5 labels below P1/P2.
    PerfModel pm = s1Model();
    LayerTime t = pm.layerDecode(cgoPolicy(64, 16));
    EXPECT_EQ(t.bottleneck(), "cpu-gpu-link");
}

TEST(PerfModel, LargerBatchAmortizesWeights)
{
    PerfModel pm = s1Model();
    double tput_small =
        pm.generationThroughput(cgoPolicy(128, 32),
                                SystemKind::MoeLightning);
    double tput_large =
        pm.generationThroughput(cgoPolicy(1024, 32),
                                SystemKind::MoeLightning);
    EXPECT_GT(tput_large, 2.0 * tput_small);
}

TEST(PerfModel, StaticWeightsReduceLinkTraffic)
{
    PerfModel pm = s1Model();
    Policy p = cgoPolicy();
    Seconds full = pm.weightStreamTime(p);
    p.weightsOnGpu = 0.5;
    EXPECT_NEAR(pm.weightStreamTime(p), 0.5 * full, 1e-12);
}

TEST(PerfModel, CpuAttentionBeatsKvShippingOnT4)
{
    // §3.3 / Fig. 9: CPU attention is ~bc/bcg faster than moving the
    // KV cache through the link for GPU attention.
    PerfModel pm = s1Model();
    Policy gpu_attn = cgoPolicy();
    gpu_attn.attnOnGpu = true;
    Seconds kv_ship = pm.kvLoadTime(32, gpu_attn);
    Seconds cpu_attn = pm.cpuAttnTime(32);
    EXPECT_LT(cpu_attn, kv_ship);
    double ratio = kv_ship / cpu_attn;
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 8.0);  // paper reports 3-4x
}

TEST(PerfModel, BaselineSchedulesAreNoFasterThanCgo)
{
    PerfModel pm = s1Model();
    Policy p = cgoPolicy();
    double cgo = pm.layerDecode(p, SystemKind::MoeLightning).total;
    for (SystemKind sys :
         {SystemKind::FastDecode, SystemKind::FlexGenC}) {
        EXPECT_GE(pm.layerDecode(p, sys).total, cgo)
            << systemName(sys);
    }
}

TEST(PerfModel, FlexGenCSerializationHurts)
{
    PerfModel pm = s1Model();
    Policy p = cgoPolicy();
    double s2 = pm.layerDecode(p, SystemKind::FastDecode).total;
    double s3 = pm.layerDecode(p, SystemKind::FlexGenC).total;
    EXPECT_GT(s3, s2);
}

TEST(PerfModel, PrefillScalesWithBatch)
{
    PerfModel pm = s1Model();
    Seconds t1 = pm.prefillTime(cgoPolicy(256, 32));
    Seconds t2 = pm.prefillTime(cgoPolicy(1024, 32));
    EXPECT_GT(t2, 2.0 * t1);
}

TEST(PerfModel, PaddingReducesThroughput)
{
    PerfModel plain = s1Model(128.0, false);
    PerfModel padded = s1Model(128.0, true);
    Policy p = cgoPolicy();
    EXPECT_GT(
        plain.generationThroughput(p, SystemKind::MoeLightning),
        padded.generationThroughput(p, SystemKind::MoeLightningPadded));
}

TEST(PerfModel, DecodeCtxAveragesGeneration)
{
    PerfModel pm = s1Model(128.0);
    EXPECT_NEAR(pm.decodeCtx(), 77.0 + 64.0, 1e-9);
}

TEST(PerfModel, TensorParallelRaisesThroughput)
{
    ModelConfig m = mixtral8x22b();
    WorkloadShape w{77.0, 418.0, 64.0};
    PerfModel pm2(m, multiT4Host(2), w, true);
    PerfModel pm4(m, multiT4Host(4), w, true);
    Policy p = cgoPolicy(512, 32);
    double t2 =
        pm2.generationThroughput(p, SystemKind::MoeLightningPadded);
    double t4 =
        pm4.generationThroughput(p, SystemKind::MoeLightningPadded);
    EXPECT_GT(t4, 1.8 * t2);
}

TEST(PerfModel, DeepSpeedStreamsFullLayer)
{
    PerfModel pm = s1Model();
    Policy p;
    p.batchSize = 96;
    p.microBatch = 96;
    p.attnOnGpu = true;
    p.ffnOnGpu = true;
    p.weightsOnGpu = 0.0;
    p.kvOnGpu = 1.0;
    LayerTime t = pm.layerDecode(p, SystemKind::DeepSpeed);
    Seconds stream =
        mixtral8x7b().weightBytesPerLayer() / t4Host().effBcg();
    EXPECT_GE(t.total, stream);
}

/** Bytes of one expert FFN and of a layer's dense (non-expert) part. */
double
expertBytes(const ModelConfig &m)
{
    return m.expertParams() * m.weightByte();
}

double
denseBytes(const ModelConfig &m)
{
    return m.weightBytesPerLayer() -
           static_cast<double>(m.ne) * expertBytes(m);
}

TEST(PerfModel, LoneRowRunsFfnOnCpuAndStreamsDensePages)
{
    // Mixtral 8x7B routes top-2 of 8: one row in one micro-batch
    // touches 2 experts per layer, so its round runs the MoE FFN on
    // the CPU (F_g = CPU). Only the dense weights stream; the FFN's
    // input and output cross the link as one hidden state each way.
    PerfModel pm = s1Model();
    ModelConfig m = mixtral8x7b();
    Policy p = cgoPolicy(1, 1);
    EXPECT_TRUE(pm.ffnOnCpu(p));
    Seconds want = denseBytes(m) / t4Host().effBcg();
    EXPECT_NEAR(pm.weightStreamTime(p), want, 1e-12);
    LayerTime t = pm.layerDecode(p);
    EXPECT_NEAR(t.commHtoD, want + 2.0 * pm.hiddenLoadTime(1), 1e-12);
    EXPECT_NEAR(t.commDtoH,
                pm.qkvOffloadTime(1) + pm.hiddenLoadTime(1), 1e-12);
    EXPECT_NEAR(t.tCpu, pm.cpuAttnTime(1) + pm.cpuFfnTime(1), 1e-12);
    EXPECT_NEAR(t.tGpu, pm.preAttnGpuTime(1), 1e-12);

    // It is priced exactly as an F_g = CPU policy of the same shape.
    Policy fg_cpu = cgoPolicy(1, 1);
    fg_cpu.ffnOnGpu = false;
    LayerTime u = pm.layerDecode(fg_cpu);
    EXPECT_DOUBLE_EQ(u.total, t.total);
    EXPECT_DOUBLE_EQ(u.commHtoD, t.commHtoD);

    // Resident weights scale the dense stream like the full one.
    p.weightsOnGpu = 0.5;
    EXPECT_NEAR(pm.weightStreamTime(p), 0.5 * want, 1e-12);
}

TEST(PerfModel, FullStreamWhenRoutedSlotsCoverExperts)
{
    PerfModel pm = s1Model();
    Seconds full =
        mixtral8x7b().weightBytesPerLayer() / t4Host().effBcg();
    // mu * k == ne: every expert may be routed.
    EXPECT_FALSE(pm.ffnOnCpu(cgoPolicy(4, 4)));
    EXPECT_NEAR(pm.weightStreamTime(cgoPolicy(4, 4)), full, 1e-12);
    // Several micro-batches stream the whole layer however small
    // each one is.
    EXPECT_NEAR(pm.weightStreamTime(cgoPolicy(2, 1)), full, 1e-12);
    EXPECT_NEAR(pm.weightStreamTime(cgoPolicy(512, 32)), full, 1e-12);
}

TEST(PerfModel, PrefillStreamsWholeLayerEvenForOneRow)
{
    // Prefill routes every prompt token, so the CPU-FFN decode round's
    // dense-only stream must not leak into it.
    PerfModel pm = s1Model();
    ModelConfig m = mixtral8x7b();
    Seconds full = m.weightBytesPerLayer() / t4Host().effBcg();
    EXPECT_GE(pm.prefillTime(cgoPolicy(1, 1)),
              static_cast<double>(m.l) * full);
}

TEST(PerfModel, RejectsBadWorkload)
{
    EXPECT_THROW(
        PerfModel(mixtral8x7b(), t4Host(), {0.0, 0.0, 64.0}, false),
        FatalError);
}

} // namespace
} // namespace moelight
