// X14 — adaptive-precision Monte-Carlo: blocks saved at matched precision.
//
// The fixed-block MC estimator spends the same num_blocks at every
// capacity point, so a uniform schedule able to hit a SEM target at the
// noisiest point of a sweep overpays everywhere else. The adaptive driver
// (McOptions::target_sem) runs rounds until each point's own fold-order
// SEM reaches the target, and iid_mutual_information_rate_points runs
// that same rule at every point of a sweep, so each point stops where its
// own variance allows. This harness quantifies the saving on a
// heterogeneous-variance (P_d, P_i) grid.
//
// The matched-precision baseline is self-calibrating: after the adaptive
// run, N_fixed = max_i blocks_i is exactly the uniform per-point count a
// fixed schedule needs so that its worst point reaches the precision the
// adaptive run delivered everywhere. blocks_saved is then
// N_fixed * npoints / sum_i blocks_i.
//
// Correctness gates before any timing (exit 1 on violation):
//   * every adaptive point bit-identical to a standalone fixed-mode run of
//     the same (point, spent-blocks) pair — the tentpole identity,
//   * the whole adaptive sweep (values AND spent counts) bit-identical at
//     1 vs 8 worker threads,
//   * target_sem = 0 bit-identical to the historical fixed behavior.
//
// Full-size runs must then save >= 3x the blocks, with every point
// converged. Emits BENCH_JSON; `--smoke` runs tiny sizes and checks the
// identity gates only.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/rng.hpp"

namespace {

using ccap::info::CapacityPoint;
using ccap::info::DriftParams;
using ccap::info::McOptions;
using ccap::info::MiEstimate;

bool bit_identical(const MiEstimate& a, const MiEstimate& b) {
    return std::memcmp(&a.rate, &b.rate, sizeof(double)) == 0 &&
           std::memcmp(&a.sem, &b.sem, sizeof(double)) == 0 && a.blocks == b.blocks &&
           a.block_len == b.block_len && a.converged == b.converged;
}

std::vector<CapacityPoint> make_grid(bool smoke) {
    // A capacity sweep spans both regimes: mid-deletion rows where the MI
    // samples are noisy (hundreds of blocks to pin down), and the
    // capacity-zero plateau past the deletion threshold where every block
    // returns the same clamped value and the first round already suffices —
    // the heterogeneity per-point stopping exploits.
    const std::vector<double> pds =
        smoke ? std::vector<double>{0.02, 0.2, 0.4}
              : std::vector<double>{0.02, 0.1, 0.2, 0.3, 0.4, 0.5};
    const std::vector<double> pis =
        smoke ? std::vector<double>{0.0, 0.1} : std::vector<double>{0.0, 0.05, 0.1};
    std::vector<CapacityPoint> pts;
    std::uint64_t seed = 0x14;
    for (double pd : pds)
        for (double pi : pis) pts.push_back({DriftParams{pd, pi, 0.0, 2, 8, 4}, seed++});
    return pts;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke") smoke = true;

    const std::vector<CapacityPoint> pts = make_grid(smoke);
    McOptions adaptive;
    adaptive.block_len = smoke ? 16 : 48;
    adaptive.num_blocks = smoke ? 4 : 8;  // round size in adaptive mode
    adaptive.target_sem = smoke ? 0.02 : 0.008;
    adaptive.max_blocks = smoke ? 64 : 1024;

    ccap::bench::BenchJson json("adaptive_mc");
    json.field("points", static_cast<std::uint64_t>(pts.size()));
    json.field("block_len", static_cast<std::uint64_t>(adaptive.block_len));
    json.field("round", static_cast<std::uint64_t>(ccap::info::mc_round_blocks(adaptive)));
    json.field("target_sem", adaptive.target_sem);
    json.field("max_blocks", static_cast<std::uint64_t>(adaptive.max_blocks));

    std::printf("X14: adaptive-precision MC — variance-aware early stopping\n");
    std::printf("  %zu points, round %zu x %zu symbols, target sem %.4g, cap %zu\n",
                pts.size(), ccap::info::mc_round_blocks(adaptive), adaptive.block_len,
                adaptive.target_sem, ccap::info::mc_block_cap(adaptive));

    // ---- Identity gates (before any timing) -------------------------------
    const std::vector<MiEstimate> out = ccap::info::iid_mutual_information_rate_points(
        pts, adaptive);

    bool standalone_identical = true;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        McOptions fixed = adaptive;
        fixed.target_sem = 0.0;
        fixed.num_blocks = out[i].blocks;
        fixed.threads = 1;
        ccap::util::Rng rng(pts[i].seed);
        MiEstimate standalone =
            ccap::info::iid_mutual_information_rate(pts[i].params, fixed, rng);
        standalone.converged = out[i].converged;  // fixed mode has no target
        standalone_identical = standalone_identical && bit_identical(out[i], standalone);
    }

    bool thread_identical = true;
    {
        McOptions serial = adaptive;
        serial.threads = 1;
        const std::vector<MiEstimate> s =
            ccap::info::iid_mutual_information_rate_points(pts, serial);
        McOptions wide = adaptive;
        wide.threads = 8;
        const std::vector<MiEstimate> w =
            ccap::info::iid_mutual_information_rate_points(pts, wide);
        for (std::size_t i = 0; i < pts.size(); ++i)
            thread_identical = thread_identical && bit_identical(s[i], w[i]) &&
                               bit_identical(s[i], out[i]);
    }

    bool fixed_mode_identical = true;
    {
        // target_sem = 0 must leave the historical fixed path untouched,
        // whatever max_blocks says.
        McOptions plain;
        plain.block_len = adaptive.block_len;
        plain.num_blocks = adaptive.num_blocks;
        McOptions decorated = plain;
        decorated.target_sem = 0.0;
        decorated.max_blocks = 5;
        const std::vector<MiEstimate> a =
            ccap::info::iid_mutual_information_rate_points(pts, plain);
        const std::vector<MiEstimate> b =
            ccap::info::iid_mutual_information_rate_points(pts, decorated);
        for (std::size_t i = 0; i < pts.size(); ++i)
            fixed_mode_identical = fixed_mode_identical && bit_identical(a[i], b[i]);
    }
    std::printf("  identity: standalone %s, threads %s, fixed-mode %s\n",
                standalone_identical ? "yes" : "NO", thread_identical ? "yes" : "NO",
                fixed_mode_identical ? "yes" : "NO");
    json.field("standalone_identical", standalone_identical ? 1 : 0);
    json.field("thread_identical", thread_identical ? 1 : 0);
    json.field("fixed_mode_identical", fixed_mode_identical ? 1 : 0);

    // ---- Blocks saved at matched precision --------------------------------
    std::size_t adaptive_total = 0, n_fixed = 0;
    bool all_converged = true;
    for (const MiEstimate& e : out) {
        adaptive_total += e.blocks;
        n_fixed = std::max(n_fixed, e.blocks);
        all_converged = all_converged && e.converged;
    }
    const std::size_t fixed_total = n_fixed * pts.size();
    const double blocks_saved =
        static_cast<double>(fixed_total) / static_cast<double>(adaptive_total);

    std::printf("  %8s %8s %10s %10s %10s %6s\n", "P_d", "P_i", "rate", "sem", "blocks",
                "conv");
    for (std::size_t i = 0; i < pts.size(); ++i)
        std::printf("  %8.2f %8.2f %10.4f %10.4f %10zu %6s\n", pts[i].params.p_d,
                    pts[i].params.p_i, out[i].rate, out[i].sem, out[i].blocks,
                    out[i].converged ? "yes" : "NO");
    std::printf("  adaptive total %zu blocks; matched-precision fixed needs %zu x %zu = %zu"
                " (%.2fx saved)\n",
                adaptive_total, n_fixed, pts.size(), fixed_total, blocks_saved);

    // ---- Wall clock at the two schedules ----------------------------------
    McOptions fixed = adaptive;
    fixed.target_sem = 0.0;
    fixed.num_blocks = n_fixed;
    ccap::bench::WallTimer fixed_timer;
    const std::vector<MiEstimate> fixed_out =
        ccap::info::iid_mutual_information_rate_points(pts, fixed);
    const double fixed_sec = fixed_timer.seconds();
    ccap::bench::WallTimer adaptive_timer;
    const std::vector<MiEstimate> adaptive_again =
        ccap::info::iid_mutual_information_rate_points(pts, adaptive);
    const double adaptive_sec = adaptive_timer.seconds();
    if (fixed_out.size() != adaptive_again.size()) std::printf("# impossible\n");
    std::printf("  fixed %zu-block sweep: %.3fs; adaptive sweep: %.3fs (%.2fx)\n", n_fixed,
                fixed_sec, adaptive_sec, fixed_sec / adaptive_sec);

    json.field("blocks_adaptive_total", static_cast<std::uint64_t>(adaptive_total));
    json.field("blocks_fixed_total", static_cast<std::uint64_t>(fixed_total));
    json.field("n_fixed", static_cast<std::uint64_t>(n_fixed));
    json.field("blocks_saved", blocks_saved);
    json.field("fixed_seconds", fixed_sec);
    json.field("adaptive_seconds", adaptive_sec);
    json.field("all_converged", all_converged ? 1 : 0);
    json.write();

    if (!standalone_identical || !thread_identical || !fixed_mode_identical) {
        std::fprintf(stderr, "FAIL: adaptive MC identity gates violated\n");
        return 1;
    }
    if (!smoke && blocks_saved < 3.0) {
        std::fprintf(stderr, "FAIL: blocks saved %.2fx < 3x at matched precision\n",
                     blocks_saved);
        return 1;
    }
    if (!smoke && !all_converged) {
        std::fprintf(stderr, "FAIL: some points hit the block cap before the target\n");
        return 1;
    }
    return 0;
}
