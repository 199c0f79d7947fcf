/**
 * @file
 * Paged weight store (Appendix A.1 / Fig. 11): layer weights live in
 * CPU memory; a double-buffered set of GPU slots receives one layer's
 * streamed weights at a time, page by page, through the pinned
 * staging ring. Kernels resolve tensors through a page table — the
 * MoE FFN kernel looks up each expert's pages rather than assuming a
 * contiguous per-layer blob.
 *
 * Page granularity: one page per named tensor (a projection matrix,
 * an expert's w1/w3/w2, a norm gain). The *count* of transfer chunks
 * per layer in the analytical pipeline is policy-controlled
 * (sched/ScheduleOptions::pagesPerLayer); here the physical paging is
 * per-tensor so kernels see contiguous matrices.
 *
 * Page layout of a layer (the manifest order): the kDensePages dense
 * pages first — attn_norm, wq, wk, wv, wo, ffn_norm, router — then
 * expert e's w1, w3, w2 at pages kDensePages + 3e + {0, 1, 2}. A
 * round that runs its MoE FFN on the CPU streams only the dense pages
 * [0, kDensePages); the residency check in tensor() and expert()
 * panics on any page that was not streamed.
 *
 * Residency: every page records the layer whose copy it holds, and a
 * load of a page that already holds that layer is skipped — no bytes
 * move and the weights.load check is not consulted. This is sound
 * because weights are immutable for the store's life. A real copy
 * first marks the page non-resident and marks it resident again only
 * once the copy completed, so a failed load can never leave a torn
 * page that reads as resident; the next load of it copies again.
 */

#ifndef MOELIGHT_RUNTIME_PAGED_WEIGHTS_HH
#define MOELIGHT_RUNTIME_PAGED_WEIGHTS_HH

#include <string>
#include <vector>

#include "kernels/moe_ffn.hh"
#include "runtime/arena.hh"
#include "runtime/transfer_engine.hh"
#include "runtime/weights.hh"

namespace moelight {

/** Identifies one weight tensor within a layer. */
struct WeightTensorId
{
    std::string name;      ///< e.g. "wq", "e3.w1"
    std::size_t floats;    ///< element count
    const float *cpuData;  ///< CPU source pointer
};

/**
 * Double-buffered paged GPU weight cache. Slots cycle round-robin
 * over layers: slot = layer % numSlots.
 */
class PagedWeightStore
{
  public:
    /**
     * @param weights  CPU-resident source of truth (must outlive
     *                 the store).
     * @param pinned   Pinned staging arena shared with the transfer
     *                 engine.
     * @param numSlots Number of layer slots (2 = double buffer).
     */
    PagedWeightStore(const ModelWeights &weights, PageArena &pinned,
                     std::size_t numSlots = 2);

    /** Dense (non-expert) pages at the head of every layer. */
    static constexpr std::size_t kDensePages = 7;
    /** Pages per expert: w1, w3, w2. */
    static constexpr std::size_t kPagesPerExpert = 3;

    /** Number of pages (tensors) a layer occupies. */
    std::size_t pagesPerLayer() const { return tensorCount_; }
    std::size_t numSlots() const { return numSlots_; }

    /** The tensor manifest of layer @p layer, in transfer order. */
    std::vector<WeightTensorId> layerManifest(LayerIdx layer) const;

    /**
     * Transfer page @p pageIdx (tensor index within the manifest) of
     * @p layer into its slot via @p te, unless the slot's page already
     * holds it (see the file comment). Called from the HtoD queue.
     */
    void loadPage(LayerIdx layer, std::size_t pageIdx,
                  TransferEngine &te);

    /** Convenience: transfer all pages of @p layer. */
    void loadLayer(LayerIdx layer, TransferEngine &te);

    /**
     * GPU-side pointer for tensor @p name of @p layer. The layer's
     * pages must have been loaded into its slot; a stale slot (page
     * table entry pointing at another layer) panics — catching
     * use-before-transfer bugs in the pipeline.
     */
    const float *tensor(LayerIdx layer, const std::string &name) const;

    /** Page-table lookup of expert @p e 's weights for @p layer;
     *  panics like tensor() when any of its pages is not resident. */
    ExpertWeights expert(LayerIdx layer, ExpertIdx e) const;

    /** An ExpertResolver bound to @p layer (for moeFfnForward). */
    ExpertResolver resolver(LayerIdx layer) const;

    /** Page table introspection: GPU page id holding @p name. */
    PageId pageOf(LayerIdx layer, const std::string &name) const;

    /** The GPU arena (for capacity assertions in tests). */
    const PageArena &gpuArena() const { return gpu_; }

  private:
    struct PageEntry
    {
        PageId page = kInvalidPage;  ///< physical GPU page
        int residentLayer = -1;      ///< layer currently in the page
    };

    std::size_t slotOf(LayerIdx layer) const
    {
        return layer.value() % numSlots_;
    }
    std::size_t tensorIndex(const std::string &name) const;
    /** GPU pointer of page @p pageIdx, panicking unless @p layer's
     *  copy of it is resident. */
    const float *residentPage(LayerIdx layer, std::size_t pageIdx) const;

    const ModelWeights &weights_;
    std::size_t numSlots_;
    std::size_t tensorCount_ = 0;
    std::size_t pageFloats_ = 0;
    std::vector<std::string> tensorNames_;
    PageArena gpu_;
    /** [slot][tensorIdx] -> physical page + resident layer. */
    std::vector<std::vector<PageEntry>> table_;
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_PAGED_WEIGHTS_HH
