#include "runtime/paged_weights.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/status.hh"

namespace moelight {

namespace {

/** Names of the dense pages, in page order. */
constexpr std::array<const char *, PagedWeightStore::kDensePages>
    kDenseNames{"attn_norm", "wq",       "wk",    "wv",
                "wo",        "ffn_norm", "router"};

/** Ordered tensor names for one layer of a Mixtral-style model, in
 *  the page layout documented in paged_weights.hh. */
std::vector<std::string>
makeTensorNames(const ModelConfig &cfg)
{
    std::vector<std::string> names(kDenseNames.begin(),
                                   kDenseNames.end());
    for (std::size_t e = 0; e < cfg.ne; ++e) {
        std::string p = "e" + std::to_string(e) + ".";
        names.push_back(p + "w1");
        names.push_back(p + "w3");
        names.push_back(p + "w2");
    }
    return names;
}

/** CPU tensor behind page @p pageIdx of a layer. */
const Tensor &
cpuTensor(const LayerWeights &lw, std::size_t pageIdx)
{
    const Tensor *dense[PagedWeightStore::kDensePages] = {
        &lw.attnNorm, &lw.wq,      &lw.wk,    &lw.wv,
        &lw.wo,       &lw.ffnNorm, &lw.router};
    if (pageIdx < PagedWeightStore::kDensePages)
        return *dense[pageIdx];
    std::size_t rel = pageIdx - PagedWeightStore::kDensePages;
    std::size_t e = rel / PagedWeightStore::kPagesPerExpert;
    panicIf(e >= lw.w1.size(), "weight page ", pageIdx,
            " out of range");
    const std::vector<Tensor> *parts[PagedWeightStore::kPagesPerExpert] =
        {&lw.w1, &lw.w3, &lw.w2};
    return (*parts[rel % PagedWeightStore::kPagesPerExpert])[e];
}

/** First page of expert @p e (its w1; w3 and w2 follow). */
std::size_t
expertPage(ExpertIdx e)
{
    return PagedWeightStore::kDensePages +
           PagedWeightStore::kPagesPerExpert * e.value();
}

} // namespace

PagedWeightStore::PagedWeightStore(const ModelWeights &weights,
                                   PageArena &pinned,
                                   std::size_t numSlots)
    : weights_(weights),
      numSlots_(numSlots),
      tensorNames_(makeTensorNames(weights.cfg)),
      gpu_("gpu-weights",
           [&] {
               std::size_t mx = 0;
               std::size_t pages = makeTensorNames(weights.cfg).size();
               for (std::size_t p = 0; p < pages; ++p)
                   mx = std::max(mx,
                                 cpuTensor(weights.layers[0], p).numel());
               return mx;
           }(),
           numSlots * makeTensorNames(weights.cfg).size())
{
    fatalIf(numSlots_ < 2,
            "paged weight store needs >= 2 slots for double buffering");
    fatalIf(weights_.layers.empty(), "model has no layers");
    (void)pinned;
    tensorCount_ = tensorNames_.size();
    pageFloats_ = gpu_.pageFloats();

    table_.resize(numSlots_);
    for (auto &slot : table_) {
        slot.resize(tensorCount_);
        for (auto &entry : slot)
            entry.page = gpu_.allocate();
    }
}

std::size_t
PagedWeightStore::tensorIndex(const std::string &name) const
{
    auto it = std::find(tensorNames_.begin(), tensorNames_.end(), name);
    panicIf(it == tensorNames_.end(), "unknown weight tensor '", name,
            "'");
    return static_cast<std::size_t>(it - tensorNames_.begin());
}

std::vector<WeightTensorId>
PagedWeightStore::layerManifest(LayerIdx layer) const
{
    panicIf(layer.value() >= weights_.layers.size(),
            "layer out of range");
    std::vector<WeightTensorId> out;
    out.reserve(tensorCount_);
    for (std::size_t p = 0; p < tensorCount_; ++p) {
        const Tensor &t = cpuTensor(weights_.layers[layer.value()], p);
        out.push_back({tensorNames_[p], t.numel(), t.data()});
    }
    return out;
}

void
PagedWeightStore::loadPage(LayerIdx layer, std::size_t pageIdx,
                           TransferEngine &te)
{
    panicIf(layer.value() >= weights_.layers.size(),
            "layer out of range");
    panicIf(pageIdx >= tensorCount_, "page index out of range");
    PageEntry &entry = table_[slotOf(layer)][pageIdx];
    // Weights are immutable, so a page already holding this layer's
    // copy is as good as a fresh one: no bytes, no load check.
    if (entry.residentLayer == static_cast<int>(layer.value()))
        return;
    // Invalidate before anything can fail: a copy that dies midway
    // leaves the page torn, and it must then read as non-resident.
    entry.residentLayer = -1;
    FaultInjector::check("weights.load");
    const Tensor &src = cpuTensor(weights_.layers[layer.value()], pageIdx);
    try {
        te.stageToGpu(src.data(), gpu_.page(entry.page), src.numel());
    } catch (const EngineError &) {
        throw;
    } catch (const FatalError &e) {
        // Re-badge transfer failures (pinned-ring exhaustion and the
        // like) as the typed weight-stream fault the engine contains
        // at round scope, keeping the original diagnostic.
        throw EngineError(ErrorCode::WeightStreamFailed,
                          "weights.load",
                          std::string("staging layer ") +
                              std::to_string(layer.value()) + " page " +
                              std::to_string(pageIdx) + ": " +
                              e.what());
    }
    entry.residentLayer = static_cast<int>(layer.value());
}

void
PagedWeightStore::loadLayer(LayerIdx layer, TransferEngine &te)
{
    for (std::size_t p = 0; p < tensorCount_; ++p)
        loadPage(layer, p, te);
}

const float *
PagedWeightStore::residentPage(LayerIdx layer, std::size_t pageIdx) const
{
    const PageEntry &entry = table_[slotOf(layer)][pageIdx];
    panicIf(entry.residentLayer != static_cast<int>(layer.value()),
            "weight page for '", tensorNames_[pageIdx], "' of layer ",
            layer, " not resident (slot holds layer ",
            entry.residentLayer,
            ") — pipeline used weights before their transfer");
    return gpu_.page(entry.page);
}

const float *
PagedWeightStore::tensor(LayerIdx layer, const std::string &name) const
{
    return residentPage(layer, tensorIndex(name));
}

ExpertWeights
PagedWeightStore::expert(LayerIdx layer, ExpertIdx e) const
{
    panicIf(e.value() >= weights_.cfg.ne, "expert ", e,
            " out of range");
    std::size_t p = expertPage(e);
    ExpertWeights w;
    w.w1 = residentPage(layer, p);
    w.w3 = residentPage(layer, p + 1);
    w.w2 = residentPage(layer, p + 2);
    return w;
}

ExpertResolver
PagedWeightStore::resolver(LayerIdx layer) const
{
    return [this, layer](int e) { return expert(layer, ExpertIdx(e)); };
}

PageId
PagedWeightStore::pageOf(LayerIdx layer, const std::string &name) const
{
    return table_[slotOf(layer)][tensorIndex(name)].page;
}

} // namespace moelight
