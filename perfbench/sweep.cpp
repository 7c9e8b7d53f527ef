// `sweep`: the `ccap sweep` 77-point (P_d, P_i) grid, binary alphabet, with
// its Monte-Carlo column from info::iid_mutual_information_rate_points —
// independent per-point streams (the CLI default), adaptive to one fixed
// target SEM, at threads = nproc. One closed-loop request is one full sweep.
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <vector>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/stats.hpp"
#include "ccap/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccap::info::CapacityPoint;
using ccap::info::DriftHmm;
using ccap::info::DriftParams;
using ccap::info::McOptions;
using ccap::info::MiEstimate;

constexpr std::size_t kBlockLen = 128;
constexpr std::size_t kRoundBlocks = 8;
constexpr double kTargetSem = 0.005;

/// The grid exactly as `ccap sweep` builds it (same float accumulation).
std::vector<CapacityPoint> sweep_points(std::uint64_t seed) {
    std::vector<CapacityPoint> points;
    std::size_t i = 0;
    for (double pd = 0.0; pd <= 0.501; pd += 0.05)
        for (double pi = 0.0; pi <= 0.301; pi += 0.05)
            if (pd + pi < 1.0) {
                DriftParams dp;
                dp.p_d = pd;
                dp.p_i = pi;
                dp.alphabet = 2;
                points.push_back({dp, ccap::util::substream_seed(seed, i++)});
            }
    return points;
}

McOptions sweep_options(unsigned threads) {
    McOptions o;
    o.block_len = kBlockLen;
    o.num_blocks = kRoundBlocks;
    o.target_sem = kTargetSem;
    o.threads = threads;
    return o;
}

std::uint64_t digest_of(const std::vector<MiEstimate>& est) {
    Digest d;
    for (const MiEstimate& e : est) {
        d.add(e.rate);
        d.add(e.sem);
        d.add_u64(e.blocks);
        d.add_u64(e.converged ? 1 : 0);
    }
    return d.value();
}

/// Output checks of one sweep; returns the number of failed grid points.
std::uint64_t check_sweep(const std::vector<CapacityPoint>& points,
                          const std::vector<MiEstimate>& est, RunResult& r) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const MiEstimate& e = est[i];
        const double hi = ccap::info::erasure_upper_bound(points[i].params.p_d, 1);
        const bool finite = std::isfinite(e.rate) && std::isfinite(e.sem);
        // A converged point must meet the SEM target: speed may not be
        // bought with precision.
        if (!finite || e.rate < -4.0 * e.sem || e.rate > hi + 4.0 * e.sem ||
            (e.converged && e.sem > kTargetSem)) {
            ++bad;
            char line[160];
            std::snprintf(line, sizeof line,
                          "sweep point %zu (pd %.2f pi %.2f): rate %g sem %g outside "
                          "[-4 sem, %g + 4 sem] or above target",
                          i, points[i].params.p_d, points[i].params.p_i, e.rate, e.sem, hi);
            r.fail(line);
        }
    }
    return bad;
}

std::vector<MiEstimate> run_once(const std::vector<CapacityPoint>& points, unsigned threads) {
    return ccap::info::iid_mutual_information_rate_points(points, sweep_options(threads));
}

}  // namespace

std::size_t sweep_mc_lanes() {
    return ccap::info::resolved_mc_batch(sweep_options(1), DriftParams{});
}

void run_sweep(const Options& opt, RunResult& r) {
    LoopStats s;
    // Set-up: materialize the seeded grid and warm the pool and lattice
    // workspaces with one fixed-mode round over the whole grid.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Stamp t0;
        const std::vector<CapacityPoint> points = sweep_points(opt.seed);
        McOptions warm = sweep_options(opt.nproc);
        warm.target_sem = 0.0;
        const auto w = ccap::info::iid_mutual_information_rate_points(points, warm);
        if (w.size() != points.size()) r.fail("sweep warm-up returned a short result");
        setups.push_back(t0.cpu_s());
    }
    s.setup_cpu_s = median(setups);

    // Request k sweeps the grid under seed substream k, so one run averages
    // the seed-dependent adaptive spend over many grids.
    std::vector<std::uint64_t> digests;
    double worst_sem = 0.0;
    std::uint64_t k = 0;
    Calibrator cal(opt.nproc);
    const Stamp loop0;
    do {
        cal.sample();
        const std::vector<CapacityPoint> points =
            sweep_points(ccap::util::substream_seed(opt.seed, k++));
        r.attempted += points.size();
        const Stamp t0;
        try {
            const std::vector<MiEstimate> est = run_once(points, opt.nproc);
            s.add_op(t0);
            const std::uint64_t bad = check_sweep(points, est, r);
            r.failed += bad;
            s.work += static_cast<double>(points.size() - bad);
            digests.push_back(digest_of(est));
            for (const MiEstimate& e : est) worst_sem = std::max(worst_sem, e.sem);
        } catch (const std::exception& e) {
            r.failed += points.size();
            r.fail(std::string("sweep threw: ") + e.what());
            digests.push_back(0);
        }
    } while (loop0.wall_s() < opt.seconds);

    // Reference: the first and last requests again at threads = 1 must give
    // the same bits.
    for (std::uint64_t i : {std::uint64_t{0}, k - 1}) {
        const std::vector<CapacityPoint> points =
            sweep_points(ccap::util::substream_seed(opt.seed, i));
        if (digest_of(run_once(points, 1)) != digests[i]) {
            r.failed += points.size();
            r.fail("sweep digest differs from the threads=1 reference");
        }
    }
    report_loop(s, cal, r);
    std::printf("sweep points_per_s %.4f points/s\n", s.work / s.loop_s);
    std::printf("sweep worst_point_sem %.6f bits/use (target %.3f)\n", worst_sem, kTargetSem);
}

void trace_sweep(const Options& opt, RunResult& r) {
    const std::vector<CapacityPoint> points = sweep_points(opt.seed);

    // Thread axis, untraced: the same seed at 1, 2 and nproc threads (the
    // nproc wall is the median of three runs).
    double walls[3] = {0, 0, 0};
    const unsigned counts[3] = {1, std::min(2U, opt.nproc), opt.nproc};
    std::uint64_t ref = 0;
    for (int k = 0; k < 3; ++k) {
        std::vector<double> t;
        for (int rep = 0; rep < (k == 2 ? 3 : 1); ++rep) {
            const auto t0 = Clock::now();
            const std::vector<MiEstimate> est = run_once(points, counts[k]);
            t.push_back(seconds_since(t0));
            const std::uint64_t d = digest_of(est);
            if (k == 0) ref = d;
            if (d != ref) r.fail("sweep digest differs across thread counts");
            r.attempted += points.size();
            r.failed += check_sweep(points, est, r);
        }
        walls[k] = median(t);
    }
    report_speedups("sweep", walls[0], walls[1], walls[2], r);

    // Traced run: one span around the public call (three runs; the median
    // is the traced wall, the last one is replayed) ...
    SpanLog log;
    std::vector<double> traced;
    std::vector<MiEstimate> est;
    int run_span = -1;
    for (int rep = 0; rep < 3; ++rep) {
        log = SpanLog{};
        const auto t0 = Clock::now();
        est = run_once(points, opt.nproc);
        traced.push_back(seconds_since(t0));
        run_span = log.add("run", traced.back());
        r.attempted += points.size();
        r.failed += check_sweep(points, est, r);
        if (digest_of(est) != ref) r.fail("traced sweep digest differs from the reference");
    }

    // ... and replays of the layers inside it, on the blocks the run spent,
    // over the same pool and thread count: (a) the tx draw plus
    // simulate_drift_channel, (b) the batched lattice passes at
    // resolved_mc_batch lanes. The remainder of the run's span is the MC
    // layer (tiling, fold, scheduler, pool).
    const McOptions mo = sweep_options(opt.nproc);
    struct PointBlocks {
        std::vector<std::vector<std::uint8_t>> tx, rx;
        std::vector<double> samples;
    };
    std::vector<PointBlocks> blocks(points.size());
    auto& pool = ccap::util::ThreadPool::shared();
    const auto ts = Clock::now();
    ccap::util::parallel_for(
        pool, points.size(),
        [&](std::size_t i) {
            const unsigned m = points[i].params.alphabet;
            ccap::util::Rng seed_rng(points[i].seed);
            const std::uint64_t root = seed_rng.next();
            PointBlocks& pb = blocks[i];
            pb.tx.resize(est[i].blocks);
            pb.rx.resize(est[i].blocks);
            for (std::size_t b = 0; b < est[i].blocks; ++b) {
                ccap::util::Rng rng(ccap::util::substream_seed(root, b));
                pb.tx[b].resize(kBlockLen);
                for (auto& sym : pb.tx[b]) sym = static_cast<std::uint8_t>(rng.uniform_below(m));
                pb.rx[b] = ccap::info::simulate_drift_channel(pb.tx[b], points[i].params, rng);
            }
        },
        opt.nproc);
    log.add("sample", seconds_since(ts), run_span);

    std::vector<double> cells(points.size(), 0.0);
    const auto tl = Clock::now();
    ccap::util::parallel_for(
        pool, points.size(),
        [&](std::size_t i) {
            const DriftParams& p = points[i].params;
            const DriftHmm hmm(p);
            const unsigned m = p.alphabet;
            const ccap::util::Matrix priors(kBlockLen, m, 1.0 / static_cast<double>(m));
            const std::size_t batch = ccap::info::resolved_mc_batch(mo, p);
            ccap::info::LatticeWorkspace ws;
            PointBlocks& pb = blocks[i];
            pb.samples.resize(pb.tx.size());
            for (std::size_t b0 = 0; b0 < pb.tx.size(); b0 += batch) {
                const std::size_t lanes = std::min(batch, pb.tx.size() - b0);
                std::vector<DriftHmm::SymbolSpan> txv(lanes), rxv(lanes);
                std::size_t m_max = 0;
                for (std::size_t l = 0; l < lanes; ++l) {
                    txv[l] = pb.tx[b0 + l];
                    rxv[l] = pb.rx[b0 + l];
                    m_max = std::max(m_max, pb.rx[b0 + l].size());
                }
                const auto cond = hmm.log2_likelihood_batch(txv, rxv, ws);
                const auto marg = hmm.log2_prior_marginal_batch(priors, rxv, ws);
                for (std::size_t l = 0; l < lanes; ++l) {
                    const double a = cond[l].log2_evidence, c = marg[l].log2_evidence;
                    pb.samples[b0 + l] = (std::isfinite(a) && std::isfinite(c))
                                             ? (a - c) / static_cast<double>(kBlockLen)
                                             : 0.0;
                }
                cells[i] += lattice_cells(kBlockLen, p.max_drift, m_max, lanes);
            }
        },
        opt.nproc);
    const double lattice_s = seconds_since(tl);
    log.add("lattice", lattice_s, run_span);

    // The replay must reproduce the run bit for bit, or the spans would
    // measure a different program.
    bool same = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        // The estimators fold in block order and report max(0, mean): a
        // rate is a non-negative lower bound.
        ccap::util::CompensatedStats st;
        for (double v : blocks[i].samples) st.add(v);
        if (std::max(0.0, st.mean()) != est[i].rate || st.sem() != est[i].sem) {
            same = false;
            char line[200];
            std::snprintf(line, sizeof line,
                          "sweep replay of point %zu (%zu blocks) gives %.17g +- %.17g, the run "
                          "%.17g +- %.17g",
                          i, est[i].blocks, st.mean(), st.sem(), est[i].rate, est[i].sem);
            r.fail(line);
        }
    }
    r.metrics.set("check.sweep_replay", same ? 1.0 : 0.0, "bool");

    // The MC layer's self time is the run's span minus the replayed layers.
    report_shares("sweep",
                  {{"sample", log.total_seconds("sample")},
                   {"lattice", lattice_s},
                   {"mc", log.self_seconds("run")}},
                  traced.back(), median(traced) / walls[2] - 1.0, r);

    double total_cells = 0.0, spent = 0.0, converged = 0.0, worst_sem = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        total_cells += cells[i];
        worst_sem = std::max(worst_sem, est[i].sem);
        spent += static_cast<double>(est[i].blocks);
        converged += est[i].converged ? 1.0 : 0.0;
    }
    r.metrics.set("info.lattice.gcells_per_s", total_cells / lattice_s / 1e9, "Gcell/s");
    r.metrics.set("info.mc.blocks_spent", spent, "count");
    r.metrics.set("info.mc.spent_over_cap",
                  spent / (static_cast<double>(points.size()) *
                           static_cast<double>(ccap::info::mc_block_cap(mo))),
                  "share");
    r.metrics.set("sweep.worst_point_sem", worst_sem, "bits/use");
    r.metrics.set("info.mc.converged_frac", converged / static_cast<double>(points.size()),
                  "share");
}

}  // namespace perfbench
