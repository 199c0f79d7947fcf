/**
 * Shared helpers of the KvCache suites (test_kv_cache,
 * test_quant_kv_cache): the tiny model config, random token rows, and
 * the materializing dequantize oracle for quantized views.
 */

#ifndef MOELIGHT_TESTS_RUNTIME_KV_CACHE_TEST_UTIL_HH
#define MOELIGHT_TESTS_RUNTIME_KV_CACHE_TEST_UTIL_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "runtime/kv_cache.hh"

namespace moelight {
namespace kv_test {

inline ModelConfig
cfg()
{
    return tinyMixtral();  // nkv=2, headDim=8, l=4
}

inline std::vector<float>
randTokenKv(Rng &rng, std::size_t floats = 16)
{
    std::vector<float> v(floats);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

/**
 * The oracle for the fused kernel: a float view materialized from a
 * quantized view by dequantizing every closed page and copying the
 * open tail (padded to a full page; the padding is never read).
 */
struct MaterializedView
{
    std::vector<std::vector<float>> kPages;
    std::vector<std::vector<float>> vPages;
    std::vector<const float *> k;
    std::vector<const float *> v;
    KvView view;
};

inline void
materialize(const QuantKvView &qv, MaterializedView &out)
{
    std::size_t row = qv.nKv * qv.headDim;
    std::size_t page_floats = qv.pageTokens * row;
    std::size_t closed = qv.kPages.size();
    std::size_t pages = closed + (qv.openTokens > 0 ? 1 : 0);
    out.kPages.assign(pages, std::vector<float>(page_floats, 0.0f));
    out.vPages.assign(pages, std::vector<float>(page_floats, 0.0f));
    for (std::size_t p = 0; p < closed; ++p) {
        qv.kPages[p]->dequantize(out.kPages[p]);
        qv.vPages[p]->dequantize(out.vPages[p]);
    }
    if (qv.openTokens > 0) {
        std::copy(qv.openK, qv.openK + qv.openTokens * row,
                  out.kPages.back().begin());
        std::copy(qv.openV, qv.openV + qv.openTokens * row,
                  out.vPages.back().begin());
    }
    out.k.clear();
    out.v.clear();
    for (std::size_t p = 0; p < pages; ++p) {
        out.k.push_back(out.kPages[p].data());
        out.v.push_back(out.vPages[p].data());
    }
    out.view.kPages = out.k;
    out.view.vPages = out.v;
    out.view.pageTokens = qv.pageTokens;
    out.view.contextLen = qv.contextLen;
    out.view.nKv = qv.nKv;
    out.view.headDim = qv.headDim;
}

} // namespace kv_test
} // namespace moelight

#endif // MOELIGHT_TESTS_RUNTIME_KV_CACHE_TEST_UTIL_HH
