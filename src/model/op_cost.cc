#include "model/op_cost.hh"

#include <algorithm>

#include "common/logging.hh"

namespace moelight {

double
OpCost::intensity() const
{
    double b = totalBytes();
    return b > 0.0 ? flops / b : 0.0;
}

OpCost &
OpCost::operator+=(const OpCost &o)
{
    flops += o.flops;
    weightBytes += o.weightBytes;
    actBytes += o.actBytes;
    kvBytes += o.kvBytes;
    return *this;
}

OpCost
operator+(OpCost a, const OpCost &b)
{
    a += b;
    return a;
}

double
hiddenBytesPerToken(const ModelConfig &m)
{
    return static_cast<double>(m.h1) * m.weightByte();
}

double
qkvBytesPerToken(const ModelConfig &m)
{
    double elems = static_cast<double>(m.nq + 2 * m.nkv) * m.headDim;
    return elems * m.weightByte();
}

OpCost
preAttnDecodeCost(const ModelConfig &m, std::size_t mu)
{
    OpCost c;
    double tokens = static_cast<double>(mu);
    double out_qkv = static_cast<double>(m.nq + 2 * m.nkv) * m.headDim;
    c.flops = 2.0 * tokens * m.h1 * out_qkv  // QKV projection
              + 4.0 * tokens * m.h1;         // RMSNorm (approx)
    c.weightBytes = static_cast<double>(m.h1) * out_qkv * m.weightByte();
    c.actBytes = tokens * (hiddenBytesPerToken(m) + qkvBytesPerToken(m));
    return c;
}

OpCost
attnCoreDecodeCost(const ModelConfig &m, std::size_t mu, double ctx)
{
    fatalIf(ctx <= 0.0, "attention context must be positive");
    OpCost c;
    double tokens = static_cast<double>(mu);
    // Per query head: 2*ctx*headDim (QK^T) + 2*ctx*headDim (AV).
    c.flops = 4.0 * tokens * ctx * m.nq * m.headDim;
    // KV bytes read: ctx tokens of K and V across nkv heads.
    c.kvBytes = tokens * ctx * 2.0 * m.nkv * m.headDim * m.kvByte();
    c.actBytes = tokens * (qkvBytesPerToken(m) + hiddenBytesPerToken(m));
    return c;
}

OpCost
postAttnDecodeCost(const ModelConfig &m, std::size_t mu, bool denseExperts)
{
    OpCost c;
    double tokens = static_cast<double>(mu);
    double o_in = static_cast<double>(m.nq) * m.headDim;
    // O projection + router + k expert FFNs per token.
    c.flops = 2.0 * tokens * o_in * m.h1                     // O proj
              + 2.0 * tokens * m.h1 * m.ne                   // router
              + 6.0 * tokens * m.k * m.h1 * m.h2;            // expert FFN
    double experts_touched = denseExperts
        ? static_cast<double>(m.ne)
        : std::min<double>(static_cast<double>(m.ne),
                           tokens * static_cast<double>(m.k));
    c.weightBytes = (o_in * m.h1 + m.h1 * m.ne) * m.weightByte() +
                    experts_touched * m.expertParams() * m.weightByte();
    c.actBytes = 2.0 * tokens * hiddenBytesPerToken(m);
    return c;
}

OpCost
layerDecodeCost(const ModelConfig &m, std::size_t mu, double ctx)
{
    return preAttnDecodeCost(m, mu) + attnCoreDecodeCost(m, mu, ctx) +
           postAttnDecodeCost(m, mu);
}

OpCost
layerPrefillCost(const ModelConfig &m, double tokens, double avgSeq)
{
    fatalIf(tokens <= 0.0 || avgSeq <= 0.0,
            "prefill tokens and sequence length must be positive");
    OpCost c;
    double out_qkv = static_cast<double>(m.nq + 2 * m.nkv) * m.headDim;
    double o_in = static_cast<double>(m.nq) * m.headDim;
    // Projections and FFN are linear in total tokens.
    c.flops = 2.0 * tokens * m.h1 * out_qkv        // QKV
              + 2.0 * tokens * o_in * m.h1         // O
              + 2.0 * tokens * m.h1 * m.ne         // router
              + 6.0 * tokens * m.k * m.h1 * m.h2;  // experts
    // Causal attention: sum_{i=1..s} 4*i*nq*hd ~= 2*s^2*nq*hd per seq;
    // tokens/avgSeq sequences.
    double seqs = tokens / avgSeq;
    c.flops += seqs * 2.0 * avgSeq * avgSeq * m.nq * m.headDim;
    c.weightBytes = m.weightBytesPerLayer();
    c.kvBytes = tokens * m.kvBytesPerTokenPerLayer();  // KV written
    c.actBytes = 2.0 * tokens * hiddenBytesPerToken(m);
    return c;
}

double
attnIntensityVsKv(const ModelConfig &m)
{
    OpCost c = attnCoreDecodeCost(m, 1, 512.0);
    return c.flops / c.kvBytes;
}

double
ffnIntensityVsWeights(const ModelConfig &m, double n)
{
    double flops = 6.0 * n * m.k * m.h1 * m.h2;
    double bytes = static_cast<double>(m.ne) * m.expertParams() *
                   m.weightByte();
    return flops / bytes;
}

} // namespace moelight
