/**
 * @file
 * Reproduces Fig. 4: the Hierarchical Roofline Model plot for Mixtral
 * 8x7B's grouped-query attention block in the decode stage on the L4
 * instance (context length 512). Emits the five roof lines as CSV
 * series plus the vertical intensity markers for f16 / int4 KV and
 * the P1 turning point.
 *
 * Paper claim: both f16 and int4 attention intensities sit left of
 * P1 => decode attention belongs on the CPU.
 *
 * Second part: *measured* fused quantized attention. The Fig. 4
 * analysis only holds if attending over quantized KV actually moves
 * the quantized bytes; a kernel that first materializes float pages
 * moves the quantized plus the float footprint and throws the
 * intensity advantage away. This harness times the fused kernel
 * against the retained materializing path at (mu=32, ctx=512) on
 * scaled-down Mixtral heads and emits latency plus bytes-moved to
 * BENCH_fig4_attention.json so CI can gate on the fused path staying
 * ahead.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "hrm/hrm.hh"
#include "kernels/quant.hh"
#include "model/op_cost.hh"
#include "runtime/kv_cache.hh"

using namespace moelight;

namespace {

/**
 * Time fused vs materializing quantized decode attention over one
 * (mu, ctx) shape and record latency + traffic. Returns the fused
 * speedup.
 */
double
measureQuantAttention(bench::BenchJson &json, Table &t, QuantKind kind,
                      const char *tag, std::size_t mu, std::size_t ctx)
{
    // Scaled-down Mixtral-flavoured heads (group = 4), as in fig9.
    std::size_t nq = 8, nkv = 2, hd = 32, page_tokens = 16;
    ModelConfig mc;
    mc.l = 1;
    mc.nkv = nkv;
    mc.headDim = hd;

    KvCache cache(mc, 1, page_tokens, kind);
    Rng rng(17);
    std::vector<float> tok(nkv * hd);
    for (std::size_t i = 0; i < ctx; ++i) {
        for (auto &x : tok)
            x = static_cast<float>(rng.uniform(-1, 1));
        cache.append(SeqId(0), LayerIdx(0), tok.data(), tok.data());
    }
    QuantKvView view = cache.makeQuantView(SeqId(0), LayerIdx(0));

    std::vector<float> q(mu * nq * hd), out_f(nq * hd), out_m(nq * hd);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> scratch(
        gqaQuantAttnScratchFloats(nq, nkv, ctx, hd, page_tokens));
    float scale = 1.0f / std::sqrt(static_cast<float>(hd));

    // Best-of-9: the CI gate sits at fused_speedup >= 1.0 and int4's
    // margin is ~10-15%, so suppress shared-runner noise hard.
    double fused_ms = bench::bestOfMs(9, [&] {
        for (std::size_t i = 0; i < mu; ++i)
            gqaDecodeAttentionQuantFused(q.data() + i * nq * hd, nq,
                                         view, out_f.data(), scale,
                                         scratch);
    });
    double mat_ms = bench::bestOfMs(9, [&] {
        for (std::size_t i = 0; i < mu; ++i)
            gqaDecodeAttentionQuant(q.data() + i * nq * hd, nq,
                                    view.kPages, view.vPages,
                                    page_tokens, ctx, nkv, hd,
                                    out_m.data(), scale);
    });

    // The design promise under test: the fused kernel attends over
    // the exact dequantized values, bit-identical to materializing.
    for (std::size_t i = 0; i < out_f.size(); ++i)
        if (out_f[i] != out_m[i])
            fatal("fused/materialized outputs diverge at ", i);

    // Traffic per attention call: the fused kernel reads the
    // quantized payload (+ scales); the materializing path reads it,
    // writes float pages, and reads them back.
    double quant_bytes = static_cast<double>(cache.storedBytes());
    double float_bytes =
        static_cast<double>(cache.equivalentFloatBytes());
    double mat_traffic = quant_bytes + 2.0 * float_bytes;
    double speedup = mat_ms / fused_ms;

    t.newRow()
        .add(tag)
        .add(mat_ms, 3)
        .add(fused_ms, 3)
        .add(speedup, 2)
        .add(mat_traffic / quant_bytes, 2);
    json.record(std::string("quant_attn_") + tag)
        .field("mu", static_cast<double>(mu))
        .field("ctx", static_cast<double>(ctx))
        .field("materialized_ms", mat_ms)
        .field("fused_ms", fused_ms)
        .field("fused_speedup", speedup)
        .field("quant_kv_bytes", quant_bytes)
        .field("float_kv_bytes", float_bytes)
        .field("traffic_ratio", mat_traffic / quant_bytes);
    return speedup;
}

/**
 * Time the fused causal prefill kernel against the per-token fused
 * decode walk it replaced in the engine (position i attending over
 * the view the cache held after appending token i). Both paths see
 * the same final cache state; the walk re-dequantizes every closed
 * page at every later position, the prefill kernel once per KV head.
 * Returns the prefill speedup.
 */
double
measureQuantPrefill(bench::BenchJson &json, Table &t, QuantKind kind,
                    const char *tag, std::size_t len)
{
    std::size_t nq = 8, nkv = 2, hd = 32, page_tokens = 16;
    std::size_t row = nkv * hd;
    ModelConfig mc;
    mc.l = 1;
    mc.nkv = nkv;
    mc.headDim = hd;

    Rng rng(29);
    std::vector<float> k(len * row), v(len * row), q(len * nq * hd);
    for (auto *buf : {&k, &v, &q})
        for (auto &x : *buf)
            x = static_cast<float>(rng.uniform(-1, 1));
    KvCache cache(mc, 1, page_tokens, kind);
    for (std::size_t i = 0; i < len; ++i)
        cache.append(SeqId(0), LayerIdx(0), k.data() + i * row, v.data() + i * row);
    QuantKvView view = cache.makeQuantView(SeqId(0), LayerIdx(0));

    std::vector<float> out_f(len * nq * hd), out_w(len * nq * hd);
    std::vector<float> prefill_scratch(gqaQuantPrefillAttnScratchFloats(
        nq, nkv, len, hd, page_tokens));
    std::vector<float> decode_scratch(gqaQuantAttnScratchFloats(
        nq, nkv, len, hd, page_tokens));
    float scale = 1.0f / std::sqrt(static_cast<float>(hd));

    double fused_ms = bench::bestOfMs(5, [&] {
        gqaPrefillAttentionQuantFused(q.data(), k.data(), v.data(),
                                      len, nq, view, out_f.data(),
                                      scale, prefill_scratch);
    });
    double walk_ms = bench::bestOfMs(5, [&] {
        for (std::size_t i = 0; i < len; ++i)
            gqaDecodeAttentionQuantFused(
                q.data() + i * nq * hd, nq,
                quantPrefillWalkView(view, k.data(), v.data(), i),
                out_w.data() + i * nq * hd, scale, decode_scratch);
    });

    // The design promise under test: one prefill call replays the
    // per-token walk bit-for-bit.
    for (std::size_t i = 0; i < out_f.size(); ++i)
        if (out_f[i] != out_w[i])
            fatal("prefill/per-token outputs diverge at ", i);

    double speedup = walk_ms / fused_ms;
    t.newRow()
        .add(tag)
        .add(walk_ms, 3)
        .add(fused_ms, 3)
        .add(speedup, 2);
    json.record(std::string("quant_prefill_") + tag)
        .field("len", static_cast<double>(len))
        .field("per_token_ms", walk_ms)
        .field("fused_ms", fused_ms)
        .field("fused_speedup", speedup);
    return speedup;
}

void
measureFusedVsMaterialized()
{
    bench::BenchJson json;
    bench::recordSimdBackend(json);
    Table t({"kind", "materialized_ms", "fused_ms", "fused_speedup",
             "traffic_ratio"});
    double s8 = measureQuantAttention(json, t, QuantKind::Int8, "int8",
                                      32, 512);
    double s4 = measureQuantAttention(json, t, QuantKind::Int4, "int4",
                                      32, 512);
    t.print(std::cout,
            "Fig. 4 — measured fused vs materializing quant "
            "attention (mu=32, ctx=512)");

    Table tp({"kind", "per_token_ms", "fused_ms", "fused_speedup"});
    double p8 = measureQuantPrefill(json, tp, QuantKind::Int8, "int8",
                                    512);
    double p4 = measureQuantPrefill(json, tp, QuantKind::Int4, "int4",
                                    512);
    tp.print(std::cout,
             "Fig. 4 — fused causal prefill vs per-token decode "
             "walk (len=512)");

    json.write("BENCH_fig4_attention.json");
    std::cout << "wrote BENCH_fig4_attention.json\n";
    std::cout << "fused >= materialized: "
              << ((s8 >= 1.0 && s4 >= 1.0) ? "yes" : "NO — REGRESSION")
              << "\n";
    std::cout << "prefill >= per-token walk: "
              << ((p8 >= 1.0 && p4 >= 1.0) ? "yes" : "NO — REGRESSION")
              << "\n\n";
}

} // namespace

int
main()
{
    HardwareConfig hw = l4Host();
    Hrm hrm(hw);
    ModelConfig m = mixtral8x7b();

    std::cout << "Fig. 4 — HRM for Mixtral 8x7B GQA decode attention "
                 "@ L4 (ctx=512)\n\n";

    auto series = hrmRoofSeries(hrm, 0.1, 1e4, 33);
    Table roofs({"intensity_flops_per_byte", "CPU_Mem", "GPU_Mem",
                 "CPU_GPU_Link", "CPU_Peak", "GPU_Peak"});
    for (std::size_t i = 0; i < series[0].intensity.size(); ++i) {
        roofs.newRow().add(series[0].intensity[i], 3);
        for (const auto &s : series)
            roofs.add(s.gflops[i], 1);
    }
    std::cout << roofs.toCsv();

    ModelConfig m4 = m;
    m4.dtKv = DataType::INT4;
    double i_f16 = attnIntensityVsKv(m);
    double i_int4 = attnIntensityVsKv(m4);
    double p1 = hrm.turningPointP1();

    Table marks({"marker", "intensity", "attainable_on_cpu_GFLOPs",
                 "attainable_if_shipped_GFLOPs", "verdict"});
    auto add_mark = [&](const std::string &name, double i) {
        double on_cpu = hrm.attainableOnCpu(i) / GFLOP;
        double shipped = hrm.linkBw() * i / GFLOP;
        marks.newRow().add(name).add(i, 2).add(on_cpu, 1)
            .add(shipped, 1)
            .add(on_cpu >= shipped ? "CPU wins" : "GPU wins");
    };
    add_mark("attention_f16", i_f16);
    add_mark("attention_int4", i_int4);
    marks.newRow().add("P1").add(p1, 2).add("-").add("-").add(
        "turning point (Eq. 9)");
    std::cout << "\n";
    marks.print(std::cout, "intensity markers");

    std::cout << "\npaper check: f16 (" << i_f16 << ") and int4 ("
              << i_int4 << ") both < P1 (" << p1
              << ") => perform attention on CPU: "
              << ((i_f16 < p1 && i_int4 < p1) ? "REPRODUCED"
                                              : "MISMATCH")
              << "\n\n";

    measureFusedVsMaterialized();
    return 0;
}
