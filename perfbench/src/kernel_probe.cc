#include "kernel_probe.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "kernels/attention.hh"
#include "kernels/linalg.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/paged_kv_fixture.hh"
#include "kernels/router.hh"
#include "runtime/arena.hh"
#include "runtime/paged_weights.hh"
#include "runtime/transfer_engine.hh"
#include "stats.hh"

namespace perfbench {

using namespace moelight;

namespace {

constexpr std::size_t kMinReps = 15;
constexpr std::size_t kMaxReps = 400;
constexpr double kMinProbeSec = 0.05;

/** Median wall microseconds of @p f over repetitions, each call inside
 *  a (@p layer, @p fn) span. */
template <class F>
double
medianUs(Tracer *tr, const char *layer, const char *fn, F &&f)
{
    using clock = std::chrono::steady_clock;
    f();  // warm caches and lazily sized scratch
    std::vector<double> us;
    auto start = clock::now();
    while (us.size() < kMinReps ||
           (us.size() < kMaxReps &&
            std::chrono::duration<double>(clock::now() - start).count() <
                kMinProbeSec)) {
        Span s(tr, layer, fn);
        auto t0 = clock::now();
        f();
        us.push_back(
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count());
    }
    return *median(us);
}

std::vector<float>
randomFloats(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

/** One row's quantized K/V pages (group = headDim, as the KV cache
 *  quantizes) plus its float open tail, and the view over them. */
struct QuantRow
{
    std::vector<QuantizedBuffer> k, v;
    std::vector<const QuantizedBuffer *> kp, vp;
    std::vector<float> openK, openV;
    QuantKvView view;
    double bytes = 0;

    // NOLINTBEGIN(bugprone-easily-swappable-parameters)
    QuantRow(std::size_t ctx, std::size_t nKv, std::size_t headDim,
             std::size_t pageTokens, QuantKind kind, Rng &rng)
    // NOLINTEND(bugprone-easily-swappable-parameters)
    {
        const std::size_t row = nKv * headDim;
        const std::size_t closed = ctx / pageTokens;
        const std::size_t open = ctx % pageTokens;
        for (std::size_t p = 0; p < closed; ++p) {
            k.emplace_back(randomFloats(pageTokens * row, rng), kind,
                           headDim);
            v.emplace_back(randomFloats(pageTokens * row, rng), kind,
                           headDim);
            bytes += static_cast<double>(k.back().storageBytes() +
                                         v.back().storageBytes());
        }
        for (std::size_t p = 0; p < closed; ++p) {
            kp.push_back(&k[p]);
            vp.push_back(&v[p]);
        }
        openK = randomFloats(open * row, rng);
        openV = randomFloats(open * row, rng);
        bytes += static_cast<double>(2 * open * row * sizeof(float));
        view.kPages = kp;
        view.vPages = vp;
        view.openK = open ? openK.data() : nullptr;
        view.openV = open ? openV.data() : nullptr;
        view.openTokens = open;
        view.pageTokens = pageTokens;
        view.contextLen = ctx;
        view.nKv = nKv;
        view.headDim = headDim;
    }
};

/** Micro-batch chunks [first, first + n) covering @p rows. */
template <class F>
void
forEachChunk(std::size_t rows, std::size_t microBatch, F &&f)
{
    for (std::size_t first = 0; first < rows; first += microBatch)
        f(first, std::min(microBatch, rows - first));
}

std::size_t
maxLayerTensorFloats(const ModelConfig &c)
{
    return std::max({c.nq * c.headDim * c.h1, c.nkv * c.headDim * c.h1,
                     c.ne * c.h1, c.h2 * c.h1, c.h1});
}

} // namespace

ProbeResult
probeKernels(const ModelWeights &w, const ProbeShape &shape, Tracer *tr)
{
    Span probe(tr, "kernels", "probe");
    const ModelConfig &c = w.cfg;
    const std::size_t rows = std::max<std::size_t>(shape.rows, 1);
    const std::size_t ctx = std::max<std::size_t>(shape.context, 1);
    const std::size_t novel = std::max<std::size_t>(shape.novelPrompt, 1);
    const std::size_t mb = shape.microBatch;
    const std::size_t qDim = c.nq * c.headDim;
    const std::size_t kvDim = c.nkv * c.headDim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    Rng rng(0x9b0be);
    ProbeResult r;

    // ---- decode attention: every active row over its own pages.
    std::vector<float> q = randomFloats(rows * qDim, rng);
    std::vector<float> out(rows * qDim);
    const double qOutBytes =
        static_cast<double>(rows * 2 * qDim * sizeof(float));
    if (shape.kvQuant) {
        std::vector<std::unique_ptr<QuantRow>> kv;
        std::vector<QuantKvView> views;
        for (std::size_t i = 0; i < rows; ++i) {
            kv.push_back(std::make_unique<QuantRow>(
                ctx, c.nkv, c.headDim, shape.pageTokens, *shape.kvQuant,
                rng));
            views.push_back(kv.back()->view);
            r.decodeAttnBytes += kv.back()->bytes;
        }
        std::vector<float> scratch(gqaQuantAttnScratchFloats(
            c.nq, c.nkv, ctx, c.headDim, shape.pageTokens));
        r.decodeAttnUs = medianUs(tr, "kernels", "gqaDecodeAttentionQuantBatch", [&] {
            forEachChunk(rows, mb, [&](std::size_t f, std::size_t n) {
                gqaDecodeAttentionQuantBatch(
                    q.data() + f * qDim, qDim, c.nq,
                    std::span<const QuantKvView>(views).subspan(f, n),
                    out.data() + f * qDim, qDim, scale, nullptr, scratch);
            });
        });
    } else {
        std::vector<std::unique_ptr<PagedKvFixture>> kv;
        std::vector<KvView> views;
        for (std::size_t i = 0; i < rows; ++i) {
            kv.push_back(std::make_unique<PagedKvFixture>(
                ctx, c.nkv, c.headDim, shape.pageTokens, rng));
            views.push_back(kv.back()->view);
        }
        r.decodeAttnBytes =
            static_cast<double>(rows * ctx * 2 * kvDim * sizeof(float));
        std::vector<float> scratch(gqaAttnScratchFloats(c.nq, c.nkv, ctx));
        r.decodeAttnUs = medianUs(tr, "kernels", "gqaDecodeAttentionBatch", [&] {
            forEachChunk(rows, mb, [&](std::size_t f, std::size_t n) {
                gqaDecodeAttentionBatch(
                    q.data() + f * qDim, qDim, c.nq,
                    std::span<const KvView>(views).subspan(f, n),
                    out.data() + f * qDim, qDim, scale, nullptr, scratch);
            });
        });
    }
    r.decodeAttnBytes += qOutBytes;

    // ---- prefill attention over one novel prompt.
    {
        std::vector<float> pq = randomFloats(novel * qDim, rng);
        std::vector<float> pk = randomFloats(novel * kvDim, rng);
        std::vector<float> pv = randomFloats(novel * kvDim, rng);
        std::vector<float> pout(novel * qDim);
        if (shape.kvQuant) {
            // The cache's state after all appends: closed pages
            // quantized, the tail open (read from pk/pv by the kernel).
            QuantRow kv(novel, c.nkv, c.headDim, shape.pageTokens,
                        *shape.kvQuant, rng);
            std::vector<float> scratch(gqaQuantPrefillAttnScratchFloats(
                c.nq, c.nkv, novel, c.headDim, shape.pageTokens));
            r.prefillAttnUs =
                medianUs(tr, "kernels", "gqaPrefillAttentionQuantFused", [&] {
                    gqaPrefillAttentionQuantFused(
                        pq.data(), pk.data(), pv.data(), novel, c.nq,
                        kv.view, pout.data(), scale, scratch);
                });
        } else {
            r.prefillAttnUs = medianUs(tr, "kernels", "gqaPrefillAttention", [&] {
                gqaPrefillAttention(pq.data(), pk.data(), pv.data(), novel,
                                    c.nq, c.nkv, c.headDim, pout.data(),
                                    scale);
            });
        }
    }

    // ---- MoE FFN over the router's top-k choice, and the GEMMs.
    const LayerWeights &lw = w.layers.front();
    std::vector<float> x = randomFloats(rows * c.h1, rng);
    std::vector<float> logits(rows * c.ne);
    matmulTransposedB(x.data(), lw.router.data(), logits.data(), rows, c.h1,
                      c.ne);
    std::vector<TokenRouting> routing =
        routeBatchTopK(logits.data(), rows, c.ne, c.k);
    ExpertResolver resolve = [&lw](int e) {
        auto i = static_cast<std::size_t>(e);
        return ExpertWeights{lw.w1[i].data(), lw.w3[i].data(),
                             lw.w2[i].data()};
    };
    std::vector<float> ffnOut(rows * c.h1);
    r.moeFfnUs = medianUs(tr, "kernels", "moeFfnForward", [&] {
        forEachChunk(rows, mb, [&](std::size_t f, std::size_t n) {
            moeFfnForward(x.data() + f * c.h1,
                          std::span<const TokenRouting>(routing).subspan(
                              f, n),
                          resolve, n, c.h1, c.h2,
                          ffnOut.data() + f * c.h1);
        });
    });

    std::vector<float> qo(rows * qDim), ko(rows * kvDim), vo(rows * kvDim);
    r.qkvGemmUs = medianUs(tr, "kernels", "matmulTransposedB.qkv", [&] {
        forEachChunk(rows, mb, [&](std::size_t f, std::size_t n) {
            const float *xi = x.data() + f * c.h1;
            matmulTransposedB(xi, lw.wq.data(), qo.data() + f * qDim, n,
                              c.h1, qDim);
            matmulTransposedB(xi, lw.wk.data(), ko.data() + f * kvDim, n,
                              c.h1, kvDim);
            matmulTransposedB(xi, lw.wv.data(), vo.data() + f * kvDim, n,
                              c.h1, kvDim);
        });
    });

    std::vector<float> vocabOut(rows * c.vocab);
    r.lmheadGemmUs = medianUs(tr, "kernels", "matmulTransposedB.lmhead", [&] {
        forEachChunk(rows, mb, [&](std::size_t f, std::size_t n) {
            matmulTransposedB(x.data() + f * c.h1, w.lmHead.data(),
                              vocabOut.data() + f * c.vocab, n, c.h1,
                              c.vocab);
        });
    });

    // ---- weight streaming: one layer through the pinned ring.
    {
        PageArena pinned("pinned", maxLayerTensorFloats(c), 4);
        TransferEngine te(pinned);
        PagedWeightStore store(w, pinned, 2);
        std::size_t layer = 0;
        r.loadLayerMs = medianUs(tr, "runtime/paged_weights", "PagedWeightStore::loadLayer", [&] {
                            store.loadLayer(LayerIdx(layer), te);
                            layer = (layer + 1) % c.l;
                        }) /
                        1e3;
    }
    return r;
}

} // namespace perfbench
