#include "perf/perf_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sched/round_plan.hh"

namespace moelight {

std::string
LayerTime::bottleneck() const
{
    double m = std::max({commHtoD, commDtoH, tCpu, tGpu});
    if (m == commHtoD)
        return "cpu-gpu-link";
    if (m == tCpu)
        return "cpu-compute";
    if (m == tGpu)
        return "gpu";
    return "gpu-cpu-link";
}

PerfModel::PerfModel(const ModelConfig &m, const HardwareConfig &hw,
                     const WorkloadShape &w, bool padded)
    : model_(m), hw_(hw), w_(w), padded_(padded)
{
    model_.validate();
    hw_.validate();
    fatalIf(w_.avgPrompt <= 0.0 || w_.genLen <= 0.0,
            "workload shape must have positive lengths");
    if (w_.maxPrompt <= 0.0)
        w_.maxPrompt = w_.avgPrompt;
}

double
PerfModel::decodeCtx() const
{
    return w_.effPrompt(padded_) + w_.genLen / 2.0;
}

Seconds
PerfModel::preAttnGpuTime(std::size_t mu) const
{
    OpCost c = preAttnDecodeCost(model_, mu);
    double hbm = c.weightBytes + c.actBytes;
    return std::max(c.flops / hw_.effPg(), hbm / hw_.effBg());
}

Seconds
PerfModel::postAttnGpuTime(std::size_t mu) const
{
    OpCost c = postAttnDecodeCost(model_, mu);
    double hbm = c.weightBytes + c.actBytes;
    return std::max(c.flops / hw_.effPg(), hbm / hw_.effBg());
}

Seconds
PerfModel::cpuAttnTime(std::size_t mu) const
{
    OpCost c = attnCoreDecodeCost(model_, mu, decodeCtx());
    return std::max(c.flops / hw_.effPc(),
                    (c.kvBytes + c.actBytes) / hw_.effBc());
}

Seconds
PerfModel::cpuAttnTimeNaive(std::size_t mu) const
{
    OpCost c = attnCoreDecodeCost(model_, mu, decodeCtx());
    double expand = static_cast<double>(model_.nq) /
                    static_cast<double>(model_.nkv) * 2.0;
    return std::max(c.flops / hw_.effPc(),
                    (c.kvBytes * expand + c.actBytes) / hw_.effBc());
}

Seconds
PerfModel::gpuAttnTime(std::size_t mu) const
{
    OpCost c = attnCoreDecodeCost(model_, mu, decodeCtx());
    return std::max(c.flops / hw_.effPg(),
                    (c.kvBytes + c.actBytes) / hw_.effBg());
}

Seconds
PerfModel::cpuFfnTime(std::size_t mu) const
{
    OpCost c = postAttnDecodeCost(model_, mu);
    return std::max(c.flops / hw_.effPc(),
                    (c.weightBytes + c.actBytes) / hw_.effBc());
}

Seconds
PerfModel::qkvOffloadTime(std::size_t mu) const
{
    return static_cast<double>(mu) * qkvBytesPerToken(model_) /
           hw_.effBcg();
}

Seconds
PerfModel::hiddenLoadTime(std::size_t mu) const
{
    return static_cast<double>(mu) * hiddenBytesPerToken(model_) /
           hw_.effBcg();
}

Seconds
PerfModel::layerStreamTime(const Policy &pol, bool experts) const
{
    double bytes = model_.weightBytesPerLayer();
    if (!experts)
        bytes -= static_cast<double>(model_.ne) * model_.expertParams() *
                 model_.weightByte();
    return (1.0 - pol.weightsOnGpu) * bytes / hw_.effBcg();
}

bool
PerfModel::ffnOnCpu(const Policy &pol) const
{
    return !pol.ffnOnGpu || cpuFfnRound(pol.numUbs(), pol.microBatch,
                                        model_.k, model_.ne);
}

Seconds
PerfModel::weightStreamTime(const Policy &pol) const
{
    return layerStreamTime(pol, !ffnOnCpu(pol));
}

Seconds
PerfModel::kvLoadTime(std::size_t mu, const Policy &pol) const
{
    if (!pol.attnOnGpu)
        return 0.0;
    double bytes = (1.0 - pol.kvOnGpu) * static_cast<double>(mu) *
                   decodeCtx() * model_.kvBytesPerTokenPerLayer();
    return bytes / hw_.effBcg();
}

LayerTime
PerfModel::layerDecode(const Policy &pol) const
{
    pol.validate();
    std::size_t mu = pol.microBatch;
    double n_ub = static_cast<double>(pol.numUbs());
    bool cpu_ffn = ffnOnCpu(pol);

    LayerTime t;
    t.commHtoD = weightStreamTime(pol) +
                 n_ub * kvLoadTime(mu, pol);
    if (!pol.attnOnGpu) {
        t.commHtoD += n_ub * hiddenLoadTime(mu);
        t.commDtoH += n_ub * qkvOffloadTime(mu);
    } else {
        // New KV token offload for the CPU-resident fraction.
        double bytes = (1.0 - pol.kvOnGpu) *
                       static_cast<double>(pol.batchSize) *
                       model_.kvBytesPerTokenPerLayer();
        t.commDtoH += bytes / hw_.effBcg();
    }
    if (cpu_ffn) {
        // The FFN's input rows go to the host and its output comes
        // back, one hidden state per token each way.
        t.commHtoD += n_ub * hiddenLoadTime(mu);
        t.commDtoH += n_ub * hiddenLoadTime(mu);
    }

    t.tGpu = n_ub * (preAttnGpuTime(mu) +
                     (cpu_ffn ? 0.0 : postAttnGpuTime(mu)) +
                     (pol.attnOnGpu ? gpuAttnTime(mu) : 0.0));
    t.tCpu = (pol.attnOnGpu ? 0.0 : n_ub * cpuAttnTime(mu)) +
             (cpu_ffn ? n_ub * cpuFfnTime(mu) : 0.0);

    t.bubble = 0.0;
    t.total = std::max({t.commHtoD, t.commDtoH, t.tCpu, t.tGpu});
    return t;
}

LayerTime
PerfModel::layerDecode(const Policy &pol, SystemKind sys) const
{
    LayerTime t = layerDecode(pol);
    std::size_t mu = pol.microBatch;
    double n_ub = static_cast<double>(pol.numUbs());

    switch (sys) {
      case SystemKind::MoeLightning:
      case SystemKind::MoeLightningPadded:
        // CGOPipe: near-perfect overlap, no extra bubble.
        break;
      case SystemKind::FastDecode: {
        // S2: CPU attention overlapped, but the *unpaged* weight block
        // delays the first hidden-HtoD of the next layer (Fig. 6 S2):
        // one micro-batch round of GPU work goes idle per layer.
        t.bubble = std::min(weightStreamTime(pol),
                            preAttnGpuTime(mu) + postAttnGpuTime(mu) +
                                cpuAttnTime(mu));
        t.total += t.bubble;
        break;
      }
      case SystemKind::FlexGenC: {
        // S3: CPU attention serialized with GPU compute per micro-
        // batch, and the unpaged weight block stalls the pipeline for
        // its full duration (Fig. 6 third row: GPU idles through the
        // weight transfer, then the per-micro-batch chain runs with
        // no CPU/GPU overlap).
        double serial =
            n_ub * (preAttnGpuTime(mu) + qkvOffloadTime(mu) +
                    cpuAttnTimeNaive(mu) + hiddenLoadTime(mu) +
                    (ffnOnCpu(pol) ? cpuFfnTime(mu)
                                   : postAttnGpuTime(mu)));
        t.bubble = weightStreamTime(pol) + serial - t.total;
        t.total = weightStreamTime(pol) + serial;
        break;
      }
      case SystemKind::FlexGen: {
        // S4: GPU attention with prefetched KV; weights and KV share
        // the HtoD link, and the KV transfer for micro-batch j+1 must
        // finish before its attention: the link is the critical chain.
        // FlexGen overlaps compute and I/O well, so total is the max
        // of link time and GPU compute, with a one-micro-batch KV
        // fill bubble.
        t.bubble = kvLoadTime(mu, pol);
        t.total = std::max({t.commHtoD, t.commDtoH, t.tGpu}) + t.bubble;
        break;
      }
      case SystemKind::DeepSpeed: {
        // ZeRO-Inference: the full (unsharded) layer weights stream
        // for every layer with limited overlap with compute; KV lives
        // on GPU so mu == N. On multi-GPU the layer is replicated to
        // every device, so the aggregate link carries numGpus copies.
        double stream = model_.weightBytesPerLayer() *
                        static_cast<double>(hw_.numGpus) /
                        hw_.effBcg();
        t.commHtoD = stream;
        t.bubble = 0.5 * std::min(stream, t.tGpu);
        t.total = std::max(stream, t.tGpu) + t.bubble;
        break;
      }
    }
    return t;
}

Seconds
PerfModel::prefillTime(const Policy &pol) const
{
    double s = w_.effPrompt(padded_);
    double tokens = static_cast<double>(pol.batchSize) * s;
    OpCost c = layerPrefillCost(model_, tokens, s);
    Seconds compute =
        std::max(c.flops / hw_.effPg(),
                 (c.weightBytes + c.actBytes) / hw_.effBg());
    // Prefill routes every prompt token: with F_g = GPU the whole
    // layer streams.
    Seconds weights = layerStreamTime(pol, pol.ffnOnGpu);
    Seconds kv_off = c.kvBytes / hw_.effBcg();
    // Prefill is compute-bound and overlaps I/O (§4 footnote 7).
    Seconds per_layer = std::max({compute, weights, kv_off});
    return per_layer * static_cast<double>(model_.l);
}

double
PerfModel::generationThroughput(const Policy &pol, SystemKind sys) const
{
    LayerTime lt = layerDecode(pol, sys);
    Seconds step = lt.total * static_cast<double>(model_.l);
    Seconds decode = step * w_.genLen;
    Seconds total = prefillTime(pol) + decode;
    double tokens = static_cast<double>(pol.batchSize) * w_.genLen;
    return tokens / total;
}

bool
PerfModel::feasible(const Policy &pol) const
{
    return fits(footprint(pol), hw_);
}

MemoryFootprint
PerfModel::footprint(const Policy &pol) const
{
    return memoryFootprint(model_, hw_, w_, pol, padded_);
}

} // namespace moelight
