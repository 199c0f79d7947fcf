/**
 * @file
 * Per-kernel probe for the traced run: calls the public kernels at the
 * shapes a workload actually ran (median active rows, median context,
 * median novel prompt length), one layer's worth of micro-batches per
 * call, and times each with a median over repetitions. Attention
 * bandwidth is bytes computed from tensor shapes divided by time, not
 * measured memory traffic.
 */

#ifndef PERFBENCH_KERNEL_PROBE_HH
#define PERFBENCH_KERNEL_PROBE_HH

#include <cstddef>
#include <optional>

#include "kernels/quant.hh"
#include "runtime/weights.hh"
#include "tracer.hh"

namespace perfbench {

struct ProbeShape
{
    std::size_t rows = 1;         ///< active decode rows in a round
    std::size_t context = 1;      ///< tokens each row attends over
    std::size_t novelPrompt = 1;  ///< prompt tokens a prefill computes
    std::size_t microBatch = 8;
    std::size_t pageTokens = 16;
    std::optional<moelight::QuantKind> kvQuant{};
};

struct ProbeResult
{
    double decodeAttnUs = 0;     ///< all rows, one layer
    double decodeAttnBytes = 0;  ///< K/V pages + q + out, from shapes
    double prefillAttnUs = 0;    ///< one prompt, one layer
    double moeFfnUs = 0;         ///< all rows, one layer
    double qkvGemmUs = 0;        ///< wq+wk+wv, all rows, one layer
    double lmheadGemmUs = 0;     ///< all rows
    double loadLayerMs = 0;      ///< PagedWeightStore::loadLayer
};

ProbeResult probeKernels(const moelight::ModelWeights &w,
                         const ProbeShape &shape, Tracer *tr);

} // namespace perfbench

#endif // PERFBENCH_KERNEL_PROBE_HH
