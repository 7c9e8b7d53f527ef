// `track`: estimate::CapacityTracker::ingest fed by core::FaultStreamSource
// under the `drift` preset, with the `ccap track` defaults (cold cache,
// prefetch off, serial). One closed-loop request is one window: next() then
// ingest(). A pass is a fresh tracker over kWindows windows of one seed.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/capacity_tracker.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccap::core::FaultProfile;
using ccap::core::FaultStreamSource;
using ccap::core::StreamChunk;
using ccap::estimate::CapacityTracker;
using ccap::estimate::TrackerConfig;
using ccap::estimate::TrackerStatus;
using ccap::estimate::TrackerUpdate;

constexpr std::uint64_t kWindows = 200;
constexpr std::size_t kCalibrateEvery = 10;  ///< windows between calibration samples
constexpr double kNominalPd = 0.1;

/// `ccap track` defaults (window 2000, grid 0.02, 8 x 48-symbol MC blocks).
TrackerConfig tracker_config(unsigned threads) {
    TrackerConfig tc;
    tc.window_len = 2000;
    tc.cache.base.alphabet = 2;
    tc.cache.grid.pd_step = 0.02;
    tc.cache.grid.pi_step = 0.02;
    tc.cache.mc.block_len = 48;
    tc.cache.mc.num_blocks = 8;
    tc.threads = threads;
    return tc;
}

FaultProfile drift_profile() {
    FaultProfile p;
    if (!ccap::core::named_fault_profile("drift", p))
        throw std::runtime_error("fault profile preset 'drift' is missing");
    return p;
}

FaultStreamSource::Config source_config(std::uint64_t seed, std::uint64_t windows) {
    FaultStreamSource::Config sc;
    sc.params.p_d = kNominalPd;
    sc.params.bits_per_symbol = 1;
    sc.profile = drift_profile();
    sc.window_len = 2000;
    sc.windows = windows;
    sc.seed = seed;
    return sc;
}

void add_update(Digest& d, const TrackerUpdate& u) {
    d.add_u64(u.window);
    d.add_u64(static_cast<std::uint64_t>(u.status));
    for (double v : {u.p_d, u.p_i, u.p_s, u.window_capacity, u.window_sem, u.capacity, u.sem,
                     u.bound, u.trend_slope, u.served_rate})
        d.add(v);
    d.add_u64(u.resyncs);
    d.add_u64(u.stale_windows);
    d.add_u64(u.mc_blocks);
}

bool finite_update(const TrackerUpdate& u) {
    return std::isfinite(u.capacity) && std::isfinite(u.bound) && std::isfinite(u.sem) &&
           std::isfinite(u.served_rate);
}

/// Mean of the drift schedule delta(t) over uses [a, b) — the ground-truth
/// construction of bench/bench_x16_tracker.cpp.
double mean_delta(const FaultProfile& p, std::uint64_t a, std::uint64_t b) {
    if (p.drift_amplitude == 0.0 || p.drift_period == 0 || b <= a) return 0.0;
    double sum = 0.0;
    for (std::uint64_t t = a; t < b; ++t) {
        const double phase = 2.0 * M_PI * static_cast<double>(t % p.drift_period) /
                             static_cast<double>(p.drift_period);
        sum += p.drift_amplitude * (1.0 - std::cos(phase)) / 2.0;
    }
    return sum / static_cast<double>(b - a);
}

/// Mean absolute error of the tracked capacity against the drift truth,
/// evaluated through the tracker's own cache (one quantization for both).
double tracker_mae(CapacityTracker& tracker, const std::vector<std::uint64_t>& uses,
                   const std::vector<TrackerUpdate>& updates) {
    const FaultProfile drift = drift_profile();
    double err = 0.0;
    std::uint64_t at = 0;
    for (std::size_t w = 0; w < updates.size(); ++w) {
        const double pd_eff =
            kNominalPd + (1.0 - kNominalPd) * mean_delta(drift, at, at + uses[w]);
        const double truth = tracker.cache().at(tracker.cache().quantize(pd_eff, 0.0)).rate;
        err += std::fabs(updates[w].capacity - truth);
        at += uses[w];
    }
    return err / static_cast<double>(updates.size());
}

/// One untimed pass; returns the digest of its update sequence.
std::uint64_t reference_pass(std::uint64_t seed, unsigned threads) {
    CapacityTracker tracker(tracker_config(threads));
    FaultStreamSource src(source_config(seed, kWindows));
    Digest d;
    while (auto c = src.next()) add_update(d, tracker.ingest(*c));
    return d.value();
}

}  // namespace

void run_track(const Options& opt, RunResult& r) {
    LoopStats s;
    // Set-up: build the tracker and the live source, and run two windows.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Stamp t0;
        CapacityTracker tracker(tracker_config(0));
        FaultStreamSource src(source_config(opt.seed, 2));
        while (auto c = src.next()) (void)tracker.ingest(*c);
        setups.push_back(t0.cpu_s());
    }
    s.setup_cpu_s = median(setups);

    // Pass p streams seed substream p, so one run averages the
    // seed-dependent alignment cost over several streams.
    std::vector<std::uint64_t> digests;
    double mae = 0.0;
    Calibrator cal(1);
    Stopwatch loop;
    const Stamp loop0;
    do {
        const std::uint64_t pass = digests.size();
        loop.start();
        CapacityTracker tracker(tracker_config(0));
        FaultStreamSource src(source_config(ccap::util::substream_seed(opt.seed, pass), kWindows));
        Digest d;
        std::vector<TrackerUpdate> updates;
        std::vector<std::uint64_t> uses;
        try {
            while (auto c = src.next()) {
                ++r.attempted;
                if (updates.size() % kCalibrateEvery == 0) {
                    loop.stop();
                    cal.sample();
                    loop.start();
                }
                const Stamp t0;
                const TrackerUpdate u = tracker.ingest(*c);
                s.add_op(t0);
                if (!finite_update(u)) {
                    ++r.failed;
                    r.fail("track: non-finite tracker update");
                } else {
                    s.work += 1.0;
                }
                add_update(d, u);
                updates.push_back(u);
                uses.push_back(c->channel_uses);
            }
        } catch (const std::exception& e) {
            r.attempted += kWindows - updates.size();
            r.failed += kWindows - updates.size();
            r.fail(std::string("track threw: ") + e.what());
        }
        loop.stop();
        digests.push_back(d.value());
        if (digests.size() == 1 && updates.size() == kWindows)
            mae = tracker_mae(tracker, uses, updates);
    } while (loop0.wall_s() < opt.seconds);
    // The loop's time covers next() + ingest(), not only the ingest() calls.
    s.loop_s = loop.seconds();
    s.loop_cpu_s = loop.cpu_seconds();

    // Reference: the first and last passes again at threads = 1 must give
    // the same update sequences.
    for (std::uint64_t p : {std::uint64_t{0}, digests.size() - 1})
        if (reference_pass(ccap::util::substream_seed(opt.seed, p), 1) != digests[p]) {
            r.failed += kWindows;
            r.fail("track update sequence differs from the threads=1 reference");
        }
    report_loop(s, cal, r);
    std::printf("track windows_per_s %.4f windows/s\n", s.work / s.loop_s);
    std::printf("track window_p50_ms %.4f ms\n", quantile(s.op_ms, 0.5));
    std::printf("track window_p95_ms %.4f ms (%zu samples)\n", quantile(s.op_ms, 0.95),
                s.op_ms.size());
    std::printf("track track_mae %.6f bits/use\n", mae);
}

void trace_track(const Options& opt, RunResult& r) {
    // Untraced pass of the same stream, for the tracing overhead.
    double untraced = 0.0;
    {
        CapacityTracker tracker(tracker_config(0));
        FaultStreamSource src(source_config(opt.seed, kWindows));
        const auto t0 = Clock::now();
        while (auto c = src.next()) (void)tracker.ingest(*c);
        untraced = seconds_since(t0);
    }

    // Traced pass. ingest() reaches estimate_window and CapacityCache::at
    // only inside itself, so both are replayed on the same inputs: the
    // window's chunk, and a shadow cache of the tracker's configuration that
    // sees the same key sequence (hence the same hits and misses).
    SpanLog log;
    Stopwatch wall;
    CapacityTracker tracker(tracker_config(0));
    ccap::info::CapacityCache shadow(tracker.cache().config());
    FaultStreamSource src(source_config(opt.seed, kWindows));
    Digest d;
    std::vector<TrackerUpdate> updates;
    std::vector<std::uint64_t> uses;
    double sent = 0.0, miss_s = 0.0;
    std::uint64_t windows = 0;
    for (;;) {
        wall.start();
        auto t0 = Clock::now();
        std::optional<StreamChunk> c = src.next();
        log.add("stream", seconds_since(t0));
        if (!c) {
            wall.stop();
            break;
        }
        t0 = Clock::now();
        const TrackerUpdate u = tracker.ingest(*c);
        const int ingest = log.add("ingest", seconds_since(t0));
        wall.stop();
        ++windows;
        ++r.attempted;
        if (!finite_update(u)) {
            ++r.failed;
            r.fail("track: non-finite tracker update");
        }
        add_update(d, u);
        updates.push_back(u);
        uses.push_back(c->channel_uses);

        t0 = Clock::now();
        const ccap::estimate::WindowEstimate we =
            ccap::estimate::estimate_window(c->sent, c->received);
        log.add("align", seconds_since(t0), ingest);
        sent += static_cast<double>(c->sent.size());
        if (we.estimate.p_d.value != u.p_d && u.status != TrackerStatus::degraded)
            r.fail("track: replayed estimate_window differs from the tracker's");
        if (u.status != TrackerStatus::degraded) {
            const std::uint64_t misses = shadow.stats().misses;
            t0 = Clock::now();
            const ccap::info::MiEstimate mi = shadow.at(shadow.quantize(u.p_d, u.p_i));
            const double at_s = seconds_since(t0);
            log.add("cache", at_s, ingest);
            if (shadow.stats().misses != misses) miss_s += at_s;
            if (mi.rate != u.window_capacity)
                r.fail("track: replayed cache lookup differs from the tracker's");
        }
    }
    if (d.value() != reference_pass(opt.seed, 1))
        r.fail("traced track pass differs from the threads=1 reference");

    const double n = static_cast<double>(windows);
    report_shares("track",
                  {{"stream", log.total_seconds("stream")},
                   {"align", log.total_seconds("align")},
                   {"cache", log.total_seconds("cache")},
                   {"tracker", log.self_seconds("ingest")}},
                  wall.seconds(), wall.seconds() / untraced - 1.0, r);
    const ccap::util::ShardCacheStats cs = tracker.cache().stats();
    const ccap::util::ShardCacheStats ss = shadow.stats();
    r.metrics.set("info.cache.hit_ratio.track",
                  static_cast<double>(cs.hits) / std::max<double>(1.0, cs.hits + cs.misses),
                  "share");
    r.metrics.set("info.cache.miss_ms", 1e3 * miss_s / std::max<double>(1.0, ss.misses), "ms");
    r.metrics.set("core.stream.next_ms", 1e3 * log.total_seconds("stream") / n, "ms");
    r.metrics.set("estimate.align.msym_per_s.track", sent / log.total_seconds("align") / 1e6,
                  "Msym/s");
    r.metrics.set("estimate.tracker.self_us", 1e6 * log.self_seconds("ingest") / n, "us");
    const std::vector<double> ingest_ms = [&] {
        std::vector<double> v = log.durations("ingest");
        for (double& x : v) x *= 1e3;
        return v;
    }();
    r.metrics.set("track.track_mae", tracker_mae(tracker, uses, updates), "bits/use");
    r.metrics.set("track.window_p50_ms", quantile(ingest_ms, 0.5), "ms");
    r.metrics.set("track.window_p95_ms", quantile(ingest_ms, 0.95), "ms");
}

}  // namespace perfbench
