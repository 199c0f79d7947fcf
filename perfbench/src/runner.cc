#include "runner.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernel_probe.hh"
#include "kernels/simd/simd.hh"
#include "runtime/engine.hh"
#include "runtime/reference_engine.hh"
#include "stats.hh"
#include "tracer.hh"

namespace perfbench {

using namespace moelight;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;
constexpr std::size_t kWarmupRequests = 8;
constexpr std::int64_t kWarmupFirstId = std::int64_t{1} << 40;
/** Most segments the open loop's arrivals are split into. */
constexpr std::size_t kOpenSegments = 3;
/** Requests per run re-served through ReferenceEngine. */
constexpr std::size_t kReferenceSamples = 4;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** A constructed, warmed engine and the weights it borrows. */
struct Setup
{
    std::unique_ptr<ModelWeights> weights;
    std::unique_ptr<PipelinedEngine> engine;  ///< destroyed first
};

/** Construct an engine over @p w and warm it with a few short
 *  requests that share nothing with the workload. */
std::unique_ptr<PipelinedEngine>
startEngine(const ModelWeights &w, const WorkloadSpec &spec, Tracer *tr)
{
    std::unique_ptr<PipelinedEngine> eng;
    {
        Span g(tr, "runtime/engine", "PipelinedEngine");
        eng = std::make_unique<PipelinedEngine>(w, engineConfigFor(spec));
    }
    Span g(tr, "runtime/engine", "warmup");
    for (ServeRequest &r : warmupRequests(kWarmupRequests, kWarmupFirstId))
        eng->submit(std::move(r));
    eng->drain();
    return eng;
}

/** Weight generation + engine construction + warm-up into @p s
 *  (emptied first); returns the seconds it took. */
double
setUp(Setup &s, const WorkloadSpec &spec, Tracer *tr)
{
    Span span(tr, "bench", "setup");
    s.engine.reset();
    s.weights.reset();
    auto t0 = Clock::now();
    {
        Span g(tr, "runtime/weights", "ModelWeights::random");
        s.weights = std::make_unique<ModelWeights>(
            ModelWeights::random(benchModel(), kWeightSeed));
    }
    s.engine = startEngine(*s.weights, spec, tr);
    return secondsBetween(t0, Clock::now());
}

/** Engine counters summed over every engine a run served with. */
struct EngineTotals
{
    PrefixCacheStats prefix;
    TransferStats xfer;
    std::size_t preemptions = 0;
    std::size_t peakPages = 0;
    std::size_t leakedPages = 0;
};

/** An engine's counters after warm-up, so only served work counts. */
struct Baseline
{
    PrefixCacheStats prefix;
    TransferStats xfer;
    std::size_t preemptions = 0;
};

Baseline
baseline(const PipelinedEngine &eng)
{
    return {eng.prefixCacheStats(), eng.transferStats(), eng.preemptions()};
}

/** Add what @p eng counted since @p b, once it has drained. */
void
accumulate(EngineTotals &t, const PipelinedEngine &eng, const Baseline &b,
           Tracer *tr)
{
    {
        Span g(tr, "runtime/prefix_cache", "prefixCacheStats");
        PrefixCacheStats p = eng.prefixCacheStats();
        t.prefix.lookups += p.lookups - b.prefix.lookups;
        t.prefix.hits += p.hits - b.prefix.hits;
        t.prefix.pagesReused += p.pagesReused - b.prefix.pagesReused;
        t.prefix.pagesEvicted += p.pagesEvicted - b.prefix.pagesEvicted;
        t.prefix.bytesPrefillSkipped +=
            p.bytesPrefillSkipped - b.prefix.bytesPrefillSkipped;
    }
    {
        Span g(tr, "runtime/transfer_engine", "transferStats");
        TransferStats x = eng.transferStats();
        t.xfer.hostToPinned += x.hostToPinned - b.xfer.hostToPinned;
        t.xfer.pinnedToGpu += x.pinnedToGpu - b.xfer.pinnedToGpu;
        t.xfer.gpuToHost += x.gpuToHost - b.xfer.gpuToHost;
        t.xfer.hostToGpu += x.hostToGpu - b.xfer.hostToGpu;
    }
    {
        Span g(tr, "runtime/engine", "preemptions");
        t.preemptions += eng.preemptions() - b.preemptions;
    }
    {
        Span g(tr, "runtime/kv_cache", "kvPeakPages");
        t.peakPages = std::max(t.peakPages, eng.kvPeakPages());
    }
    Span g(tr, "runtime/kv_cache", "kvUsedPages");
    t.leakedPages += eng.kvUsedPages();
}

bool
natural(FinishReason r)
{
    return r == FinishReason::Length || r == FinishReason::Stop;
}

/** One measured request, from submission to delivery. */
struct Record
{
    ServeRequest req;
    std::size_t segment = 0;  ///< pass (closed) or arrival third (open)
    double due = 0.0;         ///< seconds since the run epoch
    double delivered = -1.0;  ///< seconds since the run epoch
    bool rejected = false;
    FinishReason reason = FinishReason::Length;
    std::vector<int> tokens;
};

/** What the driver saw around one step(). */
struct Round
{
    double seconds = 0.0;
    std::size_t activeBefore = 0;
    std::size_t activeAfter = 0;
    std::size_t usedPages = 0;
    std::size_t cachedPages = 0;
    RoundObservation obs;
};

/**
 * The single driver thread: submits the generated requests, calls
 * step(), and records every observation the metrics are computed
 * from. Every call into the engine sits in a span.
 */
class Driver
{
  public:
    explicit Driver(Tracer *tr) : tr_(tr), epoch_(Clock::now()) {}

    /** Serve from @p eng from now on (idle, and warmed up). */
    void
    use(PipelinedEngine &eng)
    {
        eng_ = &eng;
        preemptions_ = eng.preemptions();
        pendingPrev_ = 0;
    }

    double now() const { return secondsBetween(epoch_, Clock::now()); }

    void
    submit(const ServeRequest &req, double due, std::size_t segment)
    {
        Record rec;
        rec.req = req;
        rec.segment = segment;
        rec.due = due;
        lateMs_.push_back((now() - due) * 1e3);
        {
            Span s(tr_, "runtime/serving", "submit", req.id);
            auto t0 = Clock::now();
            try {
                eng_->submit(req);
            } catch (const FatalError &) {
                rec.rejected = true;
            }
            submitUs_.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        }
        if (!rec.rejected) {
            ++outstanding_;
            ++submitted_;
        }
        index_[req.id] = records_.size();
        records_.push_back(std::move(rec));
    }

    void
    step()
    {
        Round r;
        r.obs.pendingBefore = pendingPrev_;
        r.obs.submitted = submitted_;
        {
            Span s(tr_, "runtime/serving", "activeRequests");
            r.activeBefore = eng_->activeRequests();
        }
        std::vector<RequestOutput> outs;
        auto t0 = Clock::now();
        {
            Span s(tr_, "runtime/engine", "step");
            outs = eng_->step();
        }
        auto t1 = Clock::now();
        r.seconds = secondsBetween(t0, t1);
        busy_ += r.seconds;
        const double at = secondsBetween(epoch_, t1);
        for (RequestOutput &o : outs) {
            if (tr_)
                tr_->instant("runtime/serving", "deliver", o.id);
            auto it = index_.find(o.id);
            panicIf(it == index_.end(), "delivery of an unknown request");
            Record &rec = records_[it->second];
            rec.delivered = at;
            rec.reason = o.finishReason;
            rec.tokens = std::move(o.tokens);
            --outstanding_;
        }
        {
            Span s(tr_, "runtime/serving", "pendingRequests");
            r.obs.pendingAfter = eng_->pendingRequests();
        }
        {
            Span s(tr_, "runtime/serving", "activeRequests");
            r.activeAfter = eng_->activeRequests();
        }
        {
            Span s(tr_, "runtime/engine", "preemptions");
            std::size_t p = eng_->preemptions();
            r.obs.preempted = p - preemptions_;
            preemptions_ = p;
        }
        {
            Span s(tr_, "runtime/kv_cache", "kvUsedPages");
            r.usedPages = eng_->kvUsedPages();
        }
        {
            Span s(tr_, "runtime/kv_cache", "kvCachedPages");
            r.cachedPages = eng_->kvCachedPages();
        }
        pendingPrev_ = r.obs.pendingAfter;
        submitted_ = 0;
        rounds_.push_back(r);
    }

    /** Sleep until @p due (seconds since the epoch), counting the wait
     *  as idle time. */
    void
    idleUntil(double due)
    {
        Span s(tr_, "bench", "idle");
        double wait = due - now();
        if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            idle_ += wait;
        }
    }

    std::size_t outstanding() const { return outstanding_; }
    const std::vector<Record> &records() const { return records_; }
    const std::vector<Round> &rounds() const { return rounds_; }
    const std::vector<double> &submitUs() const { return submitUs_; }
    const std::vector<double> &lateMs() const { return lateMs_; }
    double busySeconds() const { return busy_; }
    double idleSeconds() const { return idle_; }

  private:
    PipelinedEngine *eng_ = nullptr;
    Tracer *tr_;
    Clock::time_point epoch_;
    std::vector<Record> records_;
    std::unordered_map<std::int64_t, std::size_t> index_;
    std::vector<Round> rounds_;
    std::vector<double> submitUs_, lateMs_;
    std::size_t outstanding_ = 0;
    std::size_t submitted_ = 0;  ///< since the last step()
    std::size_t pendingPrev_ = 0;
    std::size_t preemptions_ = 0;
    double busy_ = 0.0, idle_ = 0.0;
};

/** What the measured region served. */
struct Served
{
    std::size_t segments = 0;
    double rebuild = 0.0;  ///< seconds starting engines between passes
    std::uint64_t digest = 0;  ///< of the first plan
    EngineTotals totals;
};

/**
 * Serve the closed passes --seconds asks for. Every pass is one batch
 * job on an engine of its own: the set-up engine for the first, a
 * fresh one (built outside the timed spans) for each later pass, so
 * no pass inherits another's cached prefix pages and a pass's
 * admission and preemption schedule depends only on its requests.
 */
Served
driveClosed(Driver &d, Setup &s, const WorkloadSpec &spec,
            const RunOptions &opt, Tracer *tr)
{
    const auto passes = std::max<long long>(
        1, std::llround(opt.seconds / spec.passSeconds));
    Served out;
    std::int64_t nextId = 0;
    for (long long pass = 0; pass < passes; ++pass) {
        Span g(tr, "bench", "pass");
        if (pass > 0) {
            auto t0 = Clock::now();
            s.engine.reset();
            s.engine = startEngine(*s.weights, spec, tr);
            out.rebuild += secondsBetween(t0, Clock::now());
        }
        const Baseline b = baseline(*s.engine);
        d.use(*s.engine);
        Plan plan = makePlan(spec, opt.seed, static_cast<std::size_t>(pass),
                             0.0, nextId);
        if (pass == 0)
            out.digest = fnv1a(planBytes(plan));
        nextId += static_cast<std::int64_t>(plan.requests.size());
        const double start = d.now();
        for (const ServeRequest &r : plan.requests)
            d.submit(r, start, static_cast<std::size_t>(pass));
        while (d.outstanding() > 0)
            d.step();
        accumulate(out.totals, *s.engine, b, tr);
    }
    out.segments = static_cast<std::size_t>(passes);
    return out;
}

/** Serve the Poisson arrivals on the set-up engine. */
Served
driveOpen(Driver &d, Setup &s, const WorkloadSpec &spec,
          const RunOptions &opt, Tracer *tr)
{
    Span g(tr, "bench", "open_loop");
    Served out;
    const Baseline b = baseline(*s.engine);
    d.use(*s.engine);
    Plan plan = makePlan(spec, opt.seed, 0, opt.seconds, 0);
    out.digest = fnv1a(planBytes(plan));
    // Consecutive thirds of the arrivals (fewer when a third would hold
    // under kMinCompleted requests).
    const std::size_t n = plan.requests.size();
    out.segments = std::clamp<std::size_t>(n / kMinCompleted, 1,
                                           kOpenSegments);
    // Dues are offsets from the loop's start.
    const double start = d.now();
    std::size_t next = 0;
    while (next < n || d.outstanding() > 0) {
        const double t = d.now();
        while (next < n && start + plan.due[next] <= t) {
            d.submit(plan.requests[next], start + plan.due[next],
                     next * out.segments / n);
            ++next;
        }
        if (d.outstanding() == 0) {
            if (next < plan.requests.size())
                d.idleUntil(start + plan.due[next]);
            continue;
        }
        d.step();
    }
    accumulate(out.totals, *s.engine, b, tr);
    return out;
}

/** One segment's end-to-end figures. */
struct SegmentMetrics
{
    std::size_t completed = 0;
    double tokensPerS = 0.0;
    std::optional<double> latP50, latP90, normP50, normP90;
};

/** Figures of the naturally finished requests of segment @p seg:
 *  output tokens over first due to last delivery, and latency (and
 *  latency per generated token) percentiles. */
SegmentMetrics
segmentMetrics(const std::vector<Record> &records, std::size_t seg)
{
    SegmentMetrics m;
    std::vector<double> lat, norm;
    std::size_t tokens = 0;
    double first = 0.0, last = 0.0;
    for (const Record &r : records) {
        if (r.segment != seg || r.rejected || !natural(r.reason))
            continue;
        const double l = r.delivered - r.due;
        first = m.completed ? std::min(first, r.due) : r.due;
        last = std::max(last, r.delivered);
        ++m.completed;
        tokens += r.tokens.size();
        lat.push_back(l);
        norm.push_back(l * 1e3 / static_cast<double>(r.tokens.size()));
    }
    if (last > first)
        m.tokensPerS = static_cast<double>(tokens) / (last - first);
    m.latP50 = percentile(lat, 0.5);
    m.latP90 = percentile(lat, 0.9);
    m.normP50 = percentile(norm, 0.5);
    m.normP90 = percentile(norm, 0.9);
    return m;
}

/**
 * Re-serve a seeded sample of naturally finished requests through
 * ReferenceEngine; returns the ids whose tokens differ.
 */
std::vector<std::int64_t>
referenceMismatches(const ModelWeights &w, const WorkloadSpec &spec,
                    const std::vector<Record> &records, std::uint64_t seed,
                    Tracer *tr)
{
    Span s(tr, "runtime/reference_engine", "check");
    std::vector<const Record *> pool;
    for (const Record &r : records)
        if (!r.rejected && natural(r.reason))
            pool.push_back(&r);
    Rng rng(seed ^ 0x5a3c1e);
    std::shuffle(pool.begin(), pool.end(), rng.engine());
    pool.resize(std::min(pool.size(), kReferenceSamples));

    ReferenceEngine ref(w, spec.kvQuant, engineConfigFor(spec).kvPageTokens);
    for (const Record *r : pool) {
        ServeRequest req = r->req;
        req.submittedAt = {};
        ref.submit(std::move(req));
    }
    std::unordered_map<std::int64_t, std::vector<int>> got;
    for (RequestOutput &o : ref.drain())
        got[o.id] = std::move(o.tokens);
    std::vector<std::int64_t> bad;
    for (const Record *r : pool)
        if (got[r->req.id] != r->tokens)
            bad.push_back(r->req.id);
    return bad;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

RunReport
runWorkload(const WorkloadSpec &spec, const RunOptions &opt)
{
    RunReport rep;
    Tracer tracer(opt.trace);
    Tracer *tr = opt.trace ? &tracer : nullptr;
    const EngineConfig ec = engineConfigFor(spec);
    const unsigned cores = std::thread::hardware_concurrency();
    rep.notes.push_back(std::string("env: simd_isa=") +
                        simd::activeIsaName() +
                        " cores=" + std::to_string(cores));

    // ---- set-up, several times; the last one is kept.
    Setup s;
    std::vector<double> setupSec;
    for (int i = 0; i < kSetupReps; ++i)
        setupSec.push_back(setUp(s, spec, tr));

    // ---- measured region.
    Driver d(tr);
    Served served;
    {
        Span g(tr, "bench", "measure");
        served = spec.loop == Loop::Closed ? driveClosed(d, s, spec, opt, tr)
                                           : driveOpen(d, s, spec, opt, tr);
    }
    const double wall = d.now() - served.rebuild;
    const EngineTotals &et = served.totals;
    rep.notes.push_back("plan_digest=" + std::to_string(served.digest) +
                        " (seed " + std::to_string(opt.seed) + ")");

    // ---- outcomes (outside the timed region).
    std::size_t tokens = 0;
    for (const Record &r : d.records()) {
        ++rep.attempted;
        if (r.rejected || !natural(r.reason))
            ++rep.failed;
        else
            tokens += r.tokens.size();
    }
    std::vector<SegmentMetrics> segs;
    for (std::size_t i = 0; i < served.segments; ++i)
        segs.push_back(segmentMetrics(d.records(), i));
    auto fail = [&](const std::string &why) {
        rep.correct = false;
        rep.notes.push_back("FAIL (seed " + std::to_string(opt.seed) +
                            "): " + why);
    };
    if (rep.failed)
        fail(std::to_string(rep.failed) +
             " requests rejected or finished other than length/stop");
    for (std::size_t i = 0; i < segs.size(); ++i)
        if (segs[i].completed < kMinCompleted)
            fail("segment " + std::to_string(i) + " completed only " +
                 std::to_string(segs[i].completed) + " requests; a p90 needs " +
                 std::to_string(kMinCompleted));
    if (et.leakedPages)
        fail(std::to_string(et.leakedPages) +
             " KV pages still used after drain");
    std::vector<std::int64_t> bad =
        referenceMismatches(*s.weights, spec, d.records(), opt.seed, tr);
    if (!bad.empty()) {
        rep.failed += bad.size();
        fail("tokens differ from ReferenceEngine for request " +
             std::to_string(bad.front()));
    }
    const std::optional<double> lateP90 = percentile(d.lateMs(), 0.9);
    if (spec.loop == Loop::Open && lateP90 && *lateP90 > kMaxLatenessP90Ms)
        fail("generator fell behind its schedule: lateness p90 " +
             fmt(*lateP90) + " ms > " + fmt(kMaxLatenessP90Ms) + " ms");

    // ---- what defines the workload (reported, not failed: a change
    // that moves one of these needs the workload re-tuned, not
    // rejected).
    const double lookups = static_cast<double>(et.prefix.lookups);
    const double hitRate =
        lookups > 0 ? static_cast<double>(et.prefix.hits) / lookups : 0.0;
    const std::size_t preemptions = et.preemptions;
    const double idleFrac = wall > 0 ? d.idleSeconds() / wall : 0.0;
    std::vector<std::string> broken;
    if (spec.expectPreemptions != (preemptions > 0))
        broken.push_back("preemptions " + std::to_string(preemptions));
    if (hitRate < spec.minHitRate || hitRate > spec.maxHitRate)
        broken.push_back("prefix hit rate " + fmt(hitRate));
    if (spec.expectIdle != (idleFrac > 0))
        broken.push_back("idle wait fraction " + fmt(idleFrac));
    std::string inv = "preemptions=" + std::to_string(preemptions) +
                      " prefix_hit_rate=" + fmt(hitRate) +
                      " idle_wait_frac=" + fmt(idleFrac);
    for (const std::string &b : broken)
        inv += "; VIOLATED: " + b;
    rep.notes.push_back("workload invariants: " + inv);

    // Each end-to-end figure is the median over the run's segments, so
    // one segment slowed by the host moves it little. (Pooling a closed
    // run's requests instead would put offline_decode's p50 on the
    // slowest pass: its passes retire in four identical waves, and the
    // pooled median is the last second-wave request of all three.)
    auto acrossSegments = [&segs](auto field) {
        std::vector<double> v;
        for (const SegmentMetrics &m : segs)
            v.push_back(field(m).value_or(0.0));
        return median(v).value_or(0.0);
    };
    const double tokPerS = acrossSegments(
        [](const SegmentMetrics &m) { return std::optional(m.tokensPerS); });
    {
        std::string per = "segments:";
        for (const SegmentMetrics &m : segs)
            per += " [" + std::to_string(m.completed) + " req, " +
                   fmt(m.tokensPerS) + " tok/s, p50 " +
                   fmt(m.latP50.value_or(0.0)) + " s]";
        rep.notes.push_back(per);
    }
    auto add = [&rep](const std::string &name, double v,
                      const std::string &unit) {
        rep.metrics.push_back({name, v, unit});
    };

    if (!opt.trace) {
        add("tokens_per_s", tokPerS, "tok/s");
        add("latency_p50_s",
            acrossSegments([](const SegmentMetrics &m) { return m.latP50; }),
            "s");
        add("latency_p90_s",
            acrossSegments([](const SegmentMetrics &m) { return m.latP90; }),
            "s");
        add("norm_latency_p50_ms",
            acrossSegments([](const SegmentMetrics &m) { return m.normP50; }),
            "ms/token");
        add("norm_latency_p90_ms",
            acrossSegments([](const SegmentMetrics &m) { return m.normP90; }),
            "ms/token");
        add("setup_s", median(setupSec).value_or(0.0), "s");
        add("peak_rss_mb", peakRssMb(), "MB");
        return rep;
    }

    // ---- per-layer metrics (traced run).
    const std::vector<Round> &rounds = d.rounds();
    std::vector<double> admitMs, decodeMs, decodeMsPerRow, admittedPer,
        rows, used, cached, pagesPerRow, queueDepth;
    for (const Round &r : rounds) {
        const double ms = r.seconds * 1e3;
        if (isAdmitRound(r.obs)) {
            admitMs.push_back(ms);
            admittedPer.push_back(static_cast<double>(admittedIn(r.obs)));
        } else {
            decodeMs.push_back(ms);
            if (r.activeBefore)
                decodeMsPerRow.push_back(
                    ms / static_cast<double>(r.activeBefore));
        }
        rows.push_back(static_cast<double>(r.activeBefore));
        queueDepth.push_back(
            static_cast<double>(r.obs.pendingBefore + r.obs.submitted));
        used.push_back(static_cast<double>(r.usedPages));
        cached.push_back(static_cast<double>(r.cachedPages));
        if (r.activeAfter)
            pagesPerRow.push_back(static_cast<double>(r.usedPages) /
                                  static_cast<double>(r.activeAfter));
    }
    // A p90 with too few samples beyond it is reported as the largest
    // sample, and said so.
    auto p90 = [&rep](const char *name, const std::vector<double> &v) {
        if (std::optional<double> p = percentile(v, 0.9))
            return *p;
        rep.notes.push_back(std::string(name) + ": only " +
                            std::to_string(v.size()) +
                            " samples; reporting the maximum");
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    auto p50 = [](const std::vector<double> &v) {
        return median(v).value_or(0.0);
    };

    add("serving.submit_us_p50", p50(d.submitUs()), "us");
    add("serving.queue_depth_mean", mean(queueDepth), "requests");
    add("serving.admitted_per_admit_round_mean", mean(admittedPer),
        "requests");
    add("serving.idle_wait_frac", idleFrac, "fraction");
    add("serving.gen_lateness_p90_ms", p90("serving.gen_lateness_p90_ms",
                                           d.lateMs()),
        "ms");

    add("engine.rounds", static_cast<double>(rounds.size()), "count");
    add("engine.admit_rounds", static_cast<double>(admitMs.size()), "count");
    add("engine.admit_round_ms_p50", p50(admitMs), "ms");
    add("engine.admit_round_ms_p90", p90("engine.admit_round_ms_p90", admitMs),
        "ms");
    add("engine.decode_round_ms_p50", p50(decodeMs), "ms");
    add("engine.decode_round_ms_p90",
        p90("engine.decode_round_ms_p90", decodeMs), "ms");
    add("engine.decode_ms_per_row_p50", p50(decodeMsPerRow), "ms");
    add("engine.rows_per_round_mean", mean(rows), "rows");
    add("engine.busy_frac", wall > 0 ? d.busySeconds() / wall : 0.0,
        "fraction");

    add("kv.used_pages_mean", mean(used), "pages");
    add("kv.peak_pages", static_cast<double>(et.peakPages), "pages");
    add("kv.cached_pages_mean", mean(cached), "pages");
    add("kv.pages_per_active_row_mean", mean(pagesPerRow), "pages");
    add("kv.preemptions", static_cast<double>(preemptions), "count");

    add("prefix.lookups", lookups, "count");
    add("prefix.hit_rate", hitRate, "fraction");
    add("prefix.pages_reused", static_cast<double>(et.prefix.pagesReused),
        "pages");
    add("prefix.pages_evicted", static_cast<double>(et.prefix.pagesEvicted),
        "pages");
    add("prefix.prefill_mb_skipped",
        static_cast<double>(et.prefix.bytesPrefillSkipped) / 1e6, "MB");

    const double tok = std::max<double>(static_cast<double>(tokens), 1.0);
    const double htod =
        static_cast<double>(et.xfer.pinnedToGpu + et.xfer.hostToGpu);
    const double dtoh = static_cast<double>(et.xfer.gpuToHost);
    add("transfer.htod_mb_per_token", htod / 1e6 / tok, "MB/token");
    add("transfer.dtoh_mb_per_token", dtoh / 1e6 / tok, "MB/token");

    // ---- kernel probe at the shapes this run actually served.
    std::vector<double> ctx, novel;
    for (const Record &r : d.records()) {
        if (r.rejected || !natural(r.reason))
            continue;
        // Mean context over the request's decode steps.
        ctx.push_back(static_cast<double>(r.req.prompt.size()) +
                      0.5 * static_cast<double>(r.tokens.size()));
        novel.push_back(
            static_cast<double>(r.req.prompt.size() - spec.sharedPrefix));
    }
    ProbeShape shape;
    shape.rows = static_cast<std::size_t>(p50(rows) + 0.5);
    shape.context = static_cast<std::size_t>(p50(ctx) + 0.5);
    shape.novelPrompt = static_cast<std::size_t>(p50(novel) + 0.5);
    shape.microBatch = ec.microBatch;
    shape.pageTokens = ec.kvPageTokens;
    shape.kvQuant = spec.kvQuant;
    ProbeResult k = probeKernels(*s.weights, shape, tr);
    add("transfer.load_layer_ms", k.loadLayerMs, "ms");
    add("kernels.decode_attn_us", k.decodeAttnUs, "us");
    add("kernels.decode_attn_gbps",
        k.decodeAttnBytes / (k.decodeAttnUs * 1e-6) / 1e9, "GB/s");
    add("kernels.prefill_attn_us", k.prefillAttnUs, "us");
    add("kernels.moe_ffn_us", k.moeFfnUs, "us");
    add("kernels.qkv_gemm_us", k.qkvGemmUs, "us");
    add("kernels.lmhead_gemm_us", k.lmheadGemmUs, "us");
    add("trace.tokens_per_s", tokPerS, "tok/s");
    rep.notes.push_back(
        "kernel probe shape: rows=" + std::to_string(shape.rows) +
        " context=" + std::to_string(shape.context) +
        " novel_prompt=" + std::to_string(shape.novelPrompt) +
        " (one layer per call); kernels.decode_attn_gbps uses bytes "
        "computed from tensor shapes (K/V pages + q + out), not measured "
        "traffic");

    if (!opt.traceOut.empty()) {
        std::map<std::string, std::string> meta{
            {"workload", spec.name},
            {"seed", std::to_string(opt.seed)},
            {"simd_isa", simd::activeIsaName()},
            {"cores", std::to_string(cores)},
            {"model", benchModel().name}};
        if (tracer.writeChromeTrace(opt.traceOut, meta))
            rep.notes.push_back("trace: " + std::to_string(tracer.events()) +
                                " events written to " + opt.traceOut);
        else
            fail("cannot write trace to " + opt.traceOut);
    }
    return rep;
}

} // namespace perfbench
