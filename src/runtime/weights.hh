/**
 * @file
 * CPU-resident model weights for the functional runtime. The tiny
 * synthetic models use random weights — throughput/pipelining claims
 * depend only on tensor shapes, and functional correctness is checked
 * against the sequential reference engine (DESIGN.md §2).
 */

#ifndef MOELIGHT_RUNTIME_WEIGHTS_HH
#define MOELIGHT_RUNTIME_WEIGHTS_HH

#include <cstdint>
#include <vector>

#include "kernels/moe_ffn.hh"
#include "model/model_config.hh"
#include "tensor/tensor.hh"

namespace moelight {

/** One transformer layer's parameter set (Mixtral-style). */
struct LayerWeights
{
    Tensor attnNorm;  ///< [h1] RMSNorm gain
    Tensor wq;        ///< [nq*headDim, h1]
    Tensor wk;        ///< [nkv*headDim, h1]
    Tensor wv;        ///< [nkv*headDim, h1]
    Tensor wo;        ///< [h1, nq*headDim]
    Tensor ffnNorm;   ///< [h1] RMSNorm gain
    Tensor router;    ///< [ne, h1]
    std::vector<Tensor> w1;  ///< per expert, [h2, h1]
    std::vector<Tensor> w3;  ///< per expert, [h2, h1]
    std::vector<Tensor> w2;  ///< per expert, [h1, h2]

    /** Resolves an expert to these host tensors (for moeFfnForward
     *  on the CPU); must not outlive the layer. */
    ExpertResolver experts() const;
};

/** Full model parameters. */
struct ModelWeights
{
    ModelConfig cfg;
    std::vector<LayerWeights> layers;
    Tensor embedding;  ///< [vocab, h1]
    Tensor finalNorm;  ///< [h1]
    Tensor lmHead;     ///< [vocab, h1]

    /** Deterministic random initialization (small scale for numeric
     *  stability across long contexts). */
    static ModelWeights random(const ModelConfig &cfg,
                               std::uint64_t seed = 0x10ad);
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_WEIGHTS_HH
