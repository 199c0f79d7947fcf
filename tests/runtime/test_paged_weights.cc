#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/paged_weights.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

struct Fixture
{
    ModelWeights weights = ModelWeights::random(tinyMixtral(), 77);
    PageArena pinned{"pinned", 64 * 128, 4};
    TransferEngine te{pinned};
    PagedWeightStore store{weights, pinned, 2};
};

/** Page of expert @p e's w1; its w3 and w2 follow. */
std::size_t
expertPage(std::size_t e)
{
    return PagedWeightStore::kDensePages +
           PagedWeightStore::kPagesPerExpert * e;
}

/** Load expert @p e's three pages of @p layer, page by page. */
void
loadExpertPages(Fixture &f, LayerIdx layer, std::size_t e)
{
    for (std::size_t p = 0; p < PagedWeightStore::kPagesPerExpert; ++p)
        f.store.loadPage(layer, expertPage(e) + p, f.te);
}

TEST(PagedWeights, ManifestCoversAllTensors)
{
    Fixture f;
    auto manifest = f.store.layerManifest(LayerIdx(0));
    // 7 shared tensors + 3 per expert (ne=4).
    EXPECT_EQ(manifest.size(), 7u + 3u * 4u);
    EXPECT_EQ(f.store.pagesPerLayer(), manifest.size());
}

TEST(PagedWeights, LoadedTensorMatchesCpuSource)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(1), f.te);
    const float *wq = f.store.tensor(LayerIdx(1), "wq");
    const Tensor &src = f.weights.layers[1].wq;
    EXPECT_EQ(std::memcmp(wq, src.data(), src.numel() * sizeof(float)),
              0);
}

TEST(PagedWeights, UseBeforeTransferPanics)
{
    Fixture f;
    EXPECT_THROW(f.store.tensor(LayerIdx(0), "wq"), PanicError);
    f.store.loadLayer(LayerIdx(0), f.te);
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(0), "wq"));
    // Layer 2 shares layer 0's slot; after loading layer 2, layer 0
    // accesses must fail again (stale slot detection).
    f.store.loadLayer(LayerIdx(2), f.te);
    EXPECT_THROW(f.store.tensor(LayerIdx(0), "wq"), PanicError);
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(2), "wq"));
}

TEST(PagedWeights, DoubleBufferSlotsAreIndependent)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(0), f.te);
    f.store.loadLayer(LayerIdx(1), f.te);
    // Both resident at once (adjacent layers use different slots).
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(0), "e0.w1"));
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(1), "e0.w1"));
    EXPECT_NE(f.store.pageOf(LayerIdx(0), "e0.w1"), f.store.pageOf(LayerIdx(1), "e0.w1"));
}

TEST(PagedWeights, ExpertResolverReadsPageTable)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(0), f.te);
    ExpertResolver resolve = f.store.resolver(LayerIdx(0));
    for (int e = 0; e < 4; ++e) {
        ExpertWeights w = resolve(e);
        const auto &lw = f.weights.layers[0];
        auto idx = static_cast<std::size_t>(e);
        EXPECT_EQ(std::memcmp(w.w1, lw.w1[idx].data(),
                              lw.w1[idx].numel() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(w.w2, lw.w2[idx].data(),
                              lw.w2[idx].numel() * sizeof(float)),
                  0);
    }
}

TEST(PagedWeights, PartialPageLoadOnlyMarksThatPage)
{
    Fixture f;
    f.store.loadPage(LayerIdx(0), 0, f.te);  // attn_norm only
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(0), "attn_norm"));
    EXPECT_THROW(f.store.tensor(LayerIdx(0), "wq"), PanicError);
}

TEST(PagedWeights, ManifestLayoutIsDenseThenExperts)
{
    Fixture f;
    auto manifest = f.store.layerManifest(LayerIdx(0));
    ASSERT_EQ(manifest.size(),
              PagedWeightStore::kDensePages +
                  PagedWeightStore::kPagesPerExpert * 4);
    EXPECT_EQ(manifest[PagedWeightStore::kDensePages - 1].name,
              "router");
    for (std::size_t e = 0; e < 4; ++e) {
        std::size_t p = PagedWeightStore::kDensePages + 3 * e;
        std::string pre = "e" + std::to_string(e) + ".";
        EXPECT_EQ(manifest[p].name, pre + "w1");
        EXPECT_EQ(manifest[p + 1].name, pre + "w3");
        EXPECT_EQ(manifest[p + 2].name, pre + "w2");
    }
}

/** Names of the pages of @p layer that are resident. */
std::vector<std::string>
residentNames(const Fixture &f, LayerIdx layer)
{
    std::vector<std::string> out;
    for (const WeightTensorId &t : f.store.layerManifest(layer)) {
        try {
            f.store.tensor(layer, t.name);
            out.push_back(t.name);
        } catch (const PanicError &) {
        }
    }
    return out;
}

TEST(PagedWeights, LoadDenseMarksOnlyDensePages)
{
    Fixture f;
    for (std::size_t p = 0; p < PagedWeightStore::kDensePages; ++p)
        f.store.loadPage(LayerIdx(1), p, f.te);
    std::vector<std::string> want{"attn_norm", "wq",       "wk",    "wv",
                                  "wo",        "ffn_norm", "router"};
    EXPECT_EQ(residentNames(f, LayerIdx(1)), want);
    EXPECT_THROW(f.store.expert(LayerIdx(1), ExpertIdx(0)), PanicError);
}

TEST(PagedWeights, LoadingExpertPagesMarksOnlyThoseThree)
{
    Fixture f;
    TransferStats before = f.te.stats();
    loadExpertPages(f, LayerIdx(0), 2);
    std::vector<std::string> want{"e2.w1", "e2.w3", "e2.w2"};
    EXPECT_EQ(residentNames(f, LayerIdx(0)), want);
    const auto &lw = f.weights.layers[0];
    EXPECT_EQ(f.te.stats().pinnedToGpu - before.pinnedToGpu,
              (lw.w1[2].numel() + lw.w3[2].numel() + lw.w2[2].numel()) *
                  sizeof(float));

    ExpertWeights w = f.store.expert(LayerIdx(0), ExpertIdx(2));
    EXPECT_EQ(std::memcmp(w.w1, lw.w1[2].data(),
                          lw.w1[2].numel() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(w.w3, lw.w3[2].data(),
                          lw.w3[2].numel() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(w.w2, lw.w2[2].data(),
                          lw.w2[2].numel() * sizeof(float)),
              0);
}

TEST(PagedWeights, UnfetchedExpertPanics)
{
    Fixture f;
    for (std::size_t p = 0; p < PagedWeightStore::kDensePages; ++p)
        f.store.loadPage(LayerIdx(0), p, f.te);
    loadExpertPages(f, LayerIdx(0), 1);
    ExpertResolver resolve = f.store.resolver(LayerIdx(0));
    EXPECT_NO_THROW(resolve(1));
    EXPECT_THROW(resolve(3), PanicError);
    // A fetched expert of another layer sharing the slot is stale.
    loadExpertPages(f, LayerIdx(2), 1);
    EXPECT_THROW(resolve(1), PanicError);
    // ne = 4: expert 4's first page is past the layer's last.
    EXPECT_THROW(f.store.loadPage(LayerIdx(0), expertPage(4), f.te),
                 PanicError);
}

// ---------------------------------------------------------------------
// Residency: a load of a page that already holds its layer is skipped.
// ---------------------------------------------------------------------

TEST(PagedWeights, ReloadingResidentPageMovesNothingAndSkipsLoadCheck)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(0), f.te);
    std::uint64_t before = f.te.stats().pinnedToGpu;
    {
        // Armed on the very next check: a real copy would trip it.
        ScopedFault fault("weights.load", 1);
        EXPECT_NO_THROW(f.store.loadLayer(LayerIdx(0), f.te));
        for (std::size_t p = 0; p < PagedWeightStore::kDensePages; ++p)
            EXPECT_NO_THROW(f.store.loadPage(LayerIdx(0), p, f.te));
        EXPECT_NO_THROW(loadExpertPages(f, LayerIdx(0), 3));
        EXPECT_EQ(fault.hits(), 0u);
    }
    EXPECT_EQ(f.te.stats().pinnedToGpu, before);
    const Tensor &src = f.weights.layers[0].wq;
    EXPECT_EQ(std::memcmp(f.store.tensor(LayerIdx(0), "wq"), src.data(),
                          src.numel() * sizeof(float)),
              0);
}

TEST(PagedWeights, PageOverwrittenByAnotherLayerCopiesAgain)
{
    Fixture f;
    f.store.loadPage(LayerIdx(0), 1, f.te);  // wq
    f.store.loadPage(LayerIdx(2), 1, f.te);  // same slot, same page
    std::uint64_t before = f.te.stats().pinnedToGpu;
    f.store.loadPage(LayerIdx(0), 1, f.te);
    const Tensor &src = f.weights.layers[0].wq;
    EXPECT_EQ(f.te.stats().pinnedToGpu - before,
              src.numel() * sizeof(float));
    EXPECT_EQ(std::memcmp(f.store.tensor(LayerIdx(0), "wq"), src.data(),
                          src.numel() * sizeof(float)),
              0);
    EXPECT_THROW(f.store.tensor(LayerIdx(2), "wq"), PanicError);
}

TEST(PagedWeights, InjectedLoadFaultLeavesPageNonResidentAndRetryCopies)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(0), f.te);
    std::size_t e1w1 = expertPage(1);
    {
        ScopedFault fault("weights.load", 1);
        EXPECT_THROW(f.store.loadPage(LayerIdx(2), e1w1, f.te),
                     EngineError);
        EXPECT_EQ(fault.hits(), 1u);
    }
    // Neither the incoming layer nor the page's former occupant may
    // read it now.
    EXPECT_THROW(f.store.expert(LayerIdx(2), ExpertIdx(1)), PanicError);
    EXPECT_THROW(f.store.expert(LayerIdx(0), ExpertIdx(1)), PanicError);
    EXPECT_THROW(f.store.tensor(LayerIdx(0), "e1.w1"), PanicError);
    EXPECT_NO_THROW(f.store.tensor(LayerIdx(0), "e1.w3"));

    std::uint64_t before = f.te.stats().pinnedToGpu;
    f.store.loadPage(LayerIdx(2), e1w1, f.te);
    const Tensor &src = f.weights.layers[2].w1[1];
    EXPECT_EQ(f.te.stats().pinnedToGpu - before,
              src.numel() * sizeof(float));
    EXPECT_EQ(std::memcmp(f.store.tensor(LayerIdx(2), "e1.w1"),
                          src.data(), src.numel() * sizeof(float)),
              0);
}

TEST(PagedWeights, FailedStagingCopyLeavesPageNonResident)
{
    // A copy that fails inside the transfer (here: the pinned staging
    // ring is dry) may have torn the page, so it must not read as
    // resident for either layer, and the retry must copy.
    ModelWeights weights = ModelWeights::random(tinyMixtral(), 78);
    PageArena pinned{"pinned", 64 * 128, 1};
    TransferEngine te{pinned};
    PagedWeightStore store{weights, pinned, 2};
    store.loadLayer(LayerIdx(1), te);
    PageId held = pinned.allocate();
    EXPECT_THROW(store.loadPage(LayerIdx(3), 1, te), EngineError);
    EXPECT_THROW(store.tensor(LayerIdx(3), "wq"), PanicError);
    EXPECT_THROW(store.tensor(LayerIdx(1), "wq"), PanicError);
    pinned.release(held);
    std::uint64_t before = te.stats().pinnedToGpu;
    store.loadPage(LayerIdx(1), 1, te);
    EXPECT_EQ(te.stats().pinnedToGpu - before,
              weights.layers[1].wq.numel() * sizeof(float));
    EXPECT_NO_THROW(store.tensor(LayerIdx(1), "wq"));
}

TEST(PagedWeights, GpuArenaSizedForTwoSlots)
{
    Fixture f;
    EXPECT_EQ(f.store.gpuArena().numPages(),
              2 * f.store.pagesPerLayer());
    EXPECT_EQ(f.store.gpuArena().freePages(), 0u);
}

TEST(PagedWeights, UnknownTensorPanics)
{
    Fixture f;
    f.store.loadLayer(LayerIdx(0), f.te);
    EXPECT_THROW(f.store.tensor(LayerIdx(0), "nope"), PanicError);
}

TEST(PagedWeights, RequiresTwoSlots)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 1);
    PageArena pinned("p", 64, 2);
    EXPECT_THROW(PagedWeightStore(w, pinned, 1), FatalError);
}

} // namespace
} // namespace moelight
