#include "runtime/weights.hh"

#include "common/rng.hh"

namespace moelight {

namespace {

Tensor
randTensor(std::vector<std::size_t> shape, Rng &rng, float scale)
{
    Tensor t(std::move(shape));
    fillUniform(t, rng, -scale, scale);
    return t;
}

} // namespace

ExpertResolver
LayerWeights::experts() const
{
    return [this](int e) {
        auto i = static_cast<std::size_t>(e);
        return ExpertWeights{w1[i].data(), w3[i].data(), w2[i].data()};
    };
}

ModelWeights
ModelWeights::random(const ModelConfig &cfg, std::uint64_t seed)
{
    cfg.validate();
    Rng rng(seed);
    // Keep activations O(1) through deep stacks: scale ~ 1/sqrt(h1).
    float s = 1.0f / std::sqrt(static_cast<float>(cfg.h1));

    ModelWeights w;
    w.cfg = cfg;
    w.layers.reserve(cfg.l);
    for (std::size_t i = 0; i < cfg.l; ++i) {
        LayerWeights lw;
        lw.attnNorm = Tensor({cfg.h1});
        lw.attnNorm.fill(1.0f);
        lw.wq = randTensor({cfg.nq * cfg.headDim, cfg.h1}, rng, s);
        lw.wk = randTensor({cfg.nkv * cfg.headDim, cfg.h1}, rng, s);
        lw.wv = randTensor({cfg.nkv * cfg.headDim, cfg.h1}, rng, s);
        lw.wo = randTensor({cfg.h1, cfg.nq * cfg.headDim}, rng, s);
        lw.ffnNorm = Tensor({cfg.h1});
        lw.ffnNorm.fill(1.0f);
        lw.router = randTensor({cfg.ne, cfg.h1}, rng, s);
        for (std::size_t e = 0; e < cfg.ne; ++e) {
            lw.w1.push_back(randTensor({cfg.h2, cfg.h1}, rng, s));
            lw.w3.push_back(randTensor({cfg.h2, cfg.h1}, rng, s));
            lw.w2.push_back(randTensor({cfg.h1, cfg.h2}, rng, s));
        }
        w.layers.push_back(std::move(lw));
    }
    w.embedding = randTensor({cfg.vocab, cfg.h1}, rng, 1.0f);
    w.finalNorm = Tensor({cfg.h1});
    w.finalNorm.fill(1.0f);
    w.lmHead = randTensor({cfg.vocab, cfg.h1}, rng, s);
    return w;
}

} // namespace moelight
