// Lane-kernel section of the traced run, plus the util and core
// micro-measures. Every LaneKernels primitive is first checked bit for bit
// against the scalar table on identical inputs (a mismatch fails the run),
// then timed through active_lane_kernels() and lane_kernels_scalar().
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/lattice_simd.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccap::info::LaneKernels;

constexpr std::size_t kRuns = 10;  ///< insert-run length of the fused sweeps

/// Inputs of one primitive call at L lanes and kRuns planes, drawn from a
/// seed; `out` is the buffer the primitive writes (reset before each use).
struct Buffers {
    std::size_t L = 0;
    std::vector<double> src, e, e0, e1, dw, tw, dw_pl, tw_pl, w_del_pl, norm, init;
    std::vector<std::uint8_t> sel;
    std::vector<double> out;

    Buffers(std::size_t lanes, std::uint64_t seed) : L(lanes) {
        ccap::util::Rng rng(seed);
        const auto fill = [&](std::vector<double>& v, std::size_t n) {
            v.resize(n);
            for (double& x : v) x = 0.1 + 0.9 * rng.uniform();
        };
        fill(src, kRuns * L);
        fill(e, kRuns * L);
        fill(e0, L);
        fill(e1, L);
        fill(dw, kRuns);
        fill(tw, kRuns);
        fill(init, kRuns * L);
        norm.assign(L, 1.0);
        sel.resize(L);
        for (auto& s : sel) s = static_cast<std::uint8_t>(rng.uniform_below(2));
        // Broadcast weight planes: every lane of plane g holds dw[g] / tw[g],
        // so each per-lane twin must reproduce its shared primitive.
        dw_pl.resize(kRuns * L);
        tw_pl.resize(kRuns * L);
        for (std::size_t g = 0; g < kRuns; ++g)
            for (std::size_t l = 0; l < L; ++l) {
                dw_pl[g * L + l] = dw[g];
                tw_pl[g * L + l] = tw[g];
            }
        w_del_pl.assign(L, dw[0]);
        out = init;
    }
    void reset() { out = init; }
};

struct Primitive {
    std::string name;
    bool per_lane;          ///< a `*_lanes` / `*_pl` primitive (contend's width)
    double elems_per_lane;  ///< elements processed per lane per call
    double bytes_per_lane;  ///< bytes moved per lane per call (computed)
    std::function<void(const LaneKernels&, Buffers&)> call;
};

std::vector<Primitive> primitives() {
    const double R = static_cast<double>(kRuns);
    return {
        {"axpy", false, 1, 24,
         [](const LaneKernels& k, Buffers& b) { k.axpy(b.out.data(), b.src.data(), b.dw[0], b.L); }},
        {"fma_weighted", false, 1, 32,
         [](const LaneKernels& k, Buffers& b) {
             k.fma_weighted(b.out.data(), b.src.data(), b.dw[0], b.tw[0], b.e.data(), b.L);
         }},
        {"accumulate", false, 1, 24,
         [](const LaneKernels& k, Buffers& b) { k.accumulate(b.out.data(), b.src.data(), b.L); }},
        {"maximum", false, 1, 24,
         [](const LaneKernels& k, Buffers& b) { k.maximum(b.out.data(), b.src.data(), b.L); }},
        {"divide", false, 1, 24,
         [](const LaneKernels& k, Buffers& b) { k.divide(b.out.data(), b.norm.data(), b.L); }},
        {"select_const", false, 1, 9,
         [](const LaneKernels& k, Buffers& b) {
             k.select_const(b.out.data(), b.sel.data(), b.dw[0], b.dw[1], b.L);
         }},
        {"select_lanes", false, 1, 25,
         [](const LaneKernels& k, Buffers& b) {
             k.select_lanes(b.out.data(), b.sel.data(), b.e0.data(), b.e1.data(), b.L);
         }},
        {"fma_run", false, R, 8 * (1 + 3 * R),
         [](const LaneKernels& k, Buffers& b) {
             k.fma_run(b.out.data(), b.src.data(), b.dw.data(), b.tw.data(), b.e.data(), kRuns,
                       b.L);
         }},
        {"fma_acc_run", false, R, 16 * R + 16,
         [](const LaneKernels& k, Buffers& b) {
             k.fma_acc_run(b.out.data(), b.src.data(), b.dw.data(), b.tw.data(), b.e.data(),
                           kRuns, b.L);
         }},
        {"fma_dest_run", false, R, 8 * R + 24,
         [](const LaneKernels& k, Buffers& b) {
             k.fma_dest_run(b.out.data(), b.src.data(), b.dw.data() + kRuns - 1,
                            b.tw.data() + kRuns - 1, b.e.data(), b.e0.data(), b.dw[0], kRuns,
                            b.L);
         }},
        {"axpy_lanes", true, 1, 32,
         [](const LaneKernels& k, Buffers& b) {
             k.axpy_lanes(b.out.data(), b.src.data(), b.w_del_pl.data(), b.L);
         }},
        {"fma_acc_run_pl", true, R, 32 * R + 16,
         [](const LaneKernels& k, Buffers& b) {
             k.fma_acc_run_pl(b.out.data(), b.src.data(), b.dw_pl.data(), b.tw_pl.data(),
                              b.e.data(), kRuns, b.L);
         }},
        {"fma_dest_run_pl", true, R, 24 * R + 32,
         [](const LaneKernels& k, Buffers& b) {
             k.fma_dest_run_pl(b.out.data(), b.src.data(), b.dw_pl.data() + (kRuns - 1) * b.L,
                               b.tw_pl.data() + (kRuns - 1) * b.L, b.e.data(), b.e0.data(),
                               b.w_del_pl.data(), kRuns, b.L);
         }},
    };
}

/// Median seconds per call over batches of back-to-back calls.
double time_call(const Primitive& p, const LaneKernels& k, Buffers& b) {
    std::vector<double> per_call;
    const auto t_all = Clock::now();
    constexpr int kCalls = 2000;
    while (per_call.size() < 7 || seconds_since(t_all) < 0.05) {
        b.reset();
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) p.call(k, b);
        per_call.push_back(seconds_since(t0) / kCalls);
    }
    return median(per_call);
}

/// Run `p` through table `a` and `q` through table `b` on the same inputs;
/// true when the outputs are bit-identical.
bool same_output(const Primitive& p, const LaneKernels& a, const Primitive& q,
                 const LaneKernels& b, Buffers& buf) {
    buf.reset();
    p.call(a, buf);
    const std::vector<double> first = buf.out;
    buf.reset();
    q.call(b, buf);
    return std::memcmp(first.data(), buf.out.data(), first.size() * sizeof(double)) == 0;
}

/// (per-lane twin, shared primitive) index pairs into primitives().
constexpr std::pair<std::size_t, std::size_t> kTwins[] = {{10, 0}, {11, 8}, {12, 9}};

}  // namespace

void trace_kernels(const Options& opt, RunResult& r) {
    const LaneKernels& active = ccap::info::active_lane_kernels();
    const LaneKernels& scalar = *ccap::info::lane_kernels_scalar();

    // The lane widths the workloads resolve: sweep's MC tile, and contend's
    // per-lane sweep (CRN point tile times the node MC tile).
    const std::size_t l_sweep = sweep_mc_lanes();
    const std::size_t l_contend = contend_sweep_lanes(64);

    const std::vector<Primitive> prims = primitives();
    bool identical = true;
    for (std::size_t lanes : {l_sweep, l_contend, std::size_t{13}}) {
        Buffers buf(lanes, ccap::util::substream_seed(opt.seed, lanes));
        for (const Primitive& p : prims)
            if (!same_output(p, active, p, scalar, buf)) {
                identical = false;
                r.fail("kernel " + p.name + " (" + active.name + ", L=" +
                       std::to_string(lanes) + ") differs from the scalar table");
            }
        // Per-lane twins with broadcast planes against their shared
        // primitive, on the active table.
        for (const auto& [twin, shared] : kTwins)
            if (!same_output(prims[twin], active, prims[shared], active, buf)) {
                identical = false;
                r.fail("kernel " + prims[twin].name + " with broadcast planes differs from " +
                       prims[shared].name);
            }
    }
    r.metrics.set("check.kernel_bit_identity", identical ? 1.0 : 0.0, "bool");

    for (std::size_t i = 0; i < prims.size(); ++i) {
        const Primitive& p = prims[i];
        const std::size_t lanes = p.per_lane ? l_contend : l_sweep;
        Buffers buf(lanes, ccap::util::substream_seed(opt.seed, 100 + i));
        const double t_active = time_call(p, active, buf);
        const double t_scalar = time_call(p, scalar, buf);
        const double elems = p.elems_per_lane * static_cast<double>(lanes);
        const std::string key = "info.kernel." + p.name;
        r.metrics.set(key + ".ns_per_elem", 1e9 * t_active / elems, "ns");
        r.metrics.set(key + ".gb_per_s",
                      p.bytes_per_lane * static_cast<double>(lanes) / t_active / 1e9, "GB/s");
        r.metrics.set(key + ".simd_speedup", t_scalar / t_active, "x");
    }
    // Twin ratios at sweep's width: the per-lane twin with broadcast planes
    // over its shared primitive (> 1 means the twin is slower).
    Buffers buf(l_sweep, ccap::util::substream_seed(opt.seed, 7));
    for (const auto& [twin, shared] : kTwins) {
        const double tt = time_call(prims[twin], active, buf);
        const double ts = time_call(prims[shared], active, buf);
        r.metrics.set("info.kernel." + prims[twin].name + ".pl_over_shared", tt / ts, "x");
    }
}

void trace_util(const Options& opt, RunResult& r) {
    // One empty fork-join of nproc tasks on the shared pool.
    auto& pool = ccap::util::ThreadPool::shared();
    std::vector<double> fj;
    for (int i = 0; i < 2000; ++i) {
        const auto t0 = Clock::now();
        ccap::util::parallel_for(pool, opt.nproc, [](std::size_t) {}, opt.nproc);
        fj.push_back(seconds_since(t0));
    }
    r.metrics.set("util.pool.fork_join_us", 1e6 * median(fj), "us");

    // The sweep's tx draw: uniform_below(2).
    ccap::util::Rng rng(opt.seed);
    std::vector<double> per_draw;
    std::uint64_t sink = 0;
    constexpr int kDraws = 1 << 20;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kDraws; ++i) sink += rng.uniform_below(2);
        per_draw.push_back(seconds_since(t0) / kDraws);
    }
    if (sink == 0) r.fail("rng produced no ones");
    r.metrics.set("util.rng.ns_per_draw", 1e9 * median(per_draw), "ns");

    // simulate_drift_channel at sweep's block shape (128 symbols, binary,
    // a mid-grid point).
    ccap::info::DriftParams dp;
    dp.p_d = 0.25;
    dp.p_i = 0.15;
    std::vector<std::uint8_t> tx(128);
    for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(2));
    std::vector<double> per_block;
    std::size_t out_len = 0;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < 2000; ++i) out_len += ccap::info::simulate_drift_channel(tx, dp, rng).size();
        per_block.push_back(seconds_since(t0) / 2000);
    }
    if (out_len == 0) r.fail("simulate_drift_channel produced nothing");
    r.metrics.set("core.channel.msym_per_s", 128.0 / median(per_block) / 1e6, "Msym/s");
}

}  // namespace perfbench
