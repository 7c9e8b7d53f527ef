// X15 — parameter-plane batched lattice: CRN point-tiled sweep throughput.
//
// The independent-streams sweep evaluates each grid point with its own
// variate stream and its own lattice passes, so a G-point parameter sweep
// pays G full sweeps even though neighboring points walk nearly identical
// lattices. The CRN engine (McOptions::point_tile > 0) draws one variate
// tape per block, realizes the channel at G grid points from those shared
// draws, and evaluates all G points as lanes of a single per-lane-weight
// lattice sweep — amortizing the trellis walk across the whole tile and
// positively correlating neighboring estimates, which shrinks the standard
// error of adjacent-point differences (the quantity the interpolation
// certificate consumes).
//
// Correctness gates before any timing (exit 1 on violation):
//   * point_tile = 0 bit-identical to the historical per-point path
//     (standalone iid_mutual_information_rate calls),
//   * the CRN sweep bit-identical across worker-thread count and
//     point_tile width (the per-(block, point) sample is a pure
//     function of the root seed, the block index, and the point's params),
//   * full-size runs must then show >= 1.5x sweep throughput at matched
//     worst-point SEM on a >= 16-point grid, with the summed
//     adjacent-point difference SEM below the independent baseline.
//
// The timed workload is interpolation-grade: a dense grid at a small
// per-point block count (the capacity-cache refinement pattern — the
// certificate wants many correlated nodes, not a few precise ones). That
// is exactly where the independent path wastes the machine: each point
// offers only num_blocks lanes per sweep (sub-width, masked tails) and
// pays the engine setup per point, while the CRN tile packs
// blocks x points lanes into full vectors and pays the setup per tile.
//
// Emits BENCH_JSON; `--smoke` runs a 4-point grid and checks the identity
// gates only.
#include <algorithm>
#include <cmath>
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
using ccap::info::PointSweepReport;

bool bit_identical(const MiEstimate& a, const MiEstimate& b) {
    return std::memcmp(&a.rate, &b.rate, sizeof(double)) == 0 &&
           std::memcmp(&a.sem, &b.sem, sizeof(double)) == 0 && a.blocks == b.blocks &&
           a.block_len == b.block_len && a.converged == b.converged;
}

bool sweeps_identical(const std::vector<MiEstimate>& a, const std::vector<MiEstimate>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!bit_identical(a[i], b[i])) return false;
    return true;
}

std::vector<CapacityPoint> make_grid(bool smoke) {
    // A raster over the (P_d, P_i) plane: adjacent points differ by one
    // small parameter step, which is exactly the regime where common random
    // numbers buy correlated neighbors (the interpolation certificate's
    // adjacent differences) on top of the amortized lattice sweep.
    const std::vector<double> pds =
        smoke ? std::vector<double>{0.05, 0.2} : std::vector<double>{0.02, 0.08, 0.14,
                                                                     0.2, 0.26, 0.32};
    const std::vector<double> pis =
        smoke ? std::vector<double>{0.0, 0.05} : std::vector<double>{0.0, 0.05, 0.1, 0.15};
    std::vector<CapacityPoint> pts;
    std::uint64_t seed = 0x15;
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
    const int reps = smoke ? 2 : 25;
    McOptions indep;
    indep.block_len = smoke ? 16 : 48;
    indep.num_blocks = smoke ? 4 : 6;
    indep.threads = 8;
    indep.point_tile = 0;
    McOptions crn = indep;
    crn.point_tile = ccap::info::kMcPointTileAuto;
    const std::size_t tile = ccap::info::resolved_point_tile(crn, pts.size());

    ccap::bench::BenchJson json("point_batch");
    json.field("points", static_cast<std::uint64_t>(pts.size()));
    json.field("block_len", static_cast<std::uint64_t>(indep.block_len));
    json.field("mc_blocks", static_cast<std::uint64_t>(indep.num_blocks));
    json.field("point_tile", static_cast<std::uint64_t>(tile));
    json.field("crn", 1);

    std::printf("X15: CRN point-tiled sweep — whole grid tile per lattice pass\n");
    std::printf("  %zu points, %zu x %zu symbols, tile %zu points/sweep\n", pts.size(),
                indep.num_blocks, indep.block_len, tile);

    // ---- Identity gates (before any timing) -------------------------------
    // Gate 1: point_tile = 0 leaves the historical per-point path untouched.
    const std::vector<MiEstimate> out_indep =
        ccap::info::iid_mutual_information_rate_points(pts, indep);
    bool indep_identical = true;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        McOptions solo = indep;
        solo.threads = 1;
        ccap::util::Rng rng(pts[i].seed);
        const MiEstimate standalone =
            ccap::info::iid_mutual_information_rate(pts[i].params, solo, rng);
        indep_identical = indep_identical && bit_identical(out_indep[i], standalone);
    }

    // Gate 2: the CRN sweep is invariant in threads x point_tile.
    const std::vector<MiEstimate> out_crn =
        ccap::info::iid_mutual_information_rate_points(pts, crn);
    bool crn_invariant = true;
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        for (std::size_t width :
             {std::size_t{1}, std::size_t{4}, pts.size(), ccap::info::kMcPointTileAuto}) {
            McOptions variant = crn;
            variant.threads = threads;
            variant.point_tile = width;
            crn_invariant =
                crn_invariant &&
                sweeps_identical(out_crn,
                                 ccap::info::iid_mutual_information_rate_points(pts, variant));
        }
    }
    std::printf("  identity: independent-vs-per-point %s, crn threads x tile %s\n",
                indep_identical ? "yes" : "NO", crn_invariant ? "yes" : "NO");
    json.field("indep_identical", indep_identical ? 1 : 0);
    json.field("crn_invariant", crn_invariant ? 1 : 0);
    if (!indep_identical || !crn_invariant) {
        json.write();
        std::fprintf(stderr, "FAIL: CRN point-tile identity gates violated\n");
        return 1;
    }

    // ---- Matched-precision throughput -------------------------------------
    // Both modes run the same num_blocks per point, and the CRN coupling
    // preserves each point's marginal sample law, so worst-point SEM is
    // matched by construction; the recorded SEMs document that.
    double worst_sem_indep = 0.0, worst_sem_crn = 0.0;
    std::size_t blocks_indep = 0, blocks_crn = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        worst_sem_indep = std::max(worst_sem_indep, out_indep[i].sem);
        worst_sem_crn = std::max(worst_sem_crn, out_crn[i].sem);
        blocks_indep += out_indep[i].blocks;
        blocks_crn += out_crn[i].blocks;
    }

    std::vector<MiEstimate> indep_again, crn_again;
    ccap::bench::WallTimer indep_timer;
    for (int r = 0; r < reps; ++r)
        indep_again = ccap::info::iid_mutual_information_rate_points(pts, indep);
    const double indep_sec = indep_timer.seconds();
    ccap::bench::WallTimer crn_timer;
    for (int r = 0; r < reps; ++r)
        crn_again = ccap::info::iid_mutual_information_rate_points(pts, crn);
    const double crn_sec = crn_timer.seconds();
    if (!sweeps_identical(indep_again, out_indep) || !sweeps_identical(crn_again, out_crn)) {
        std::fprintf(stderr, "FAIL: timed reruns drifted from the gated sweeps\n");
        return 1;
    }
    const double speedup = indep_sec / crn_sec;
    std::printf("  independent %d sweeps %.3fs, crn %.3fs (%.2fx); worst sem %.4g vs %.4g\n",
                reps, indep_sec, crn_sec, speedup, worst_sem_indep, worst_sem_crn);

    // ---- Adjacent-point difference SEM ------------------------------------
    PointSweepReport rep_indep, rep_crn;
    const std::vector<MiEstimate> ri =
        ccap::info::iid_mutual_information_rate_points(pts, indep, &rep_indep);
    const std::vector<MiEstimate> rc =
        ccap::info::iid_mutual_information_rate_points(pts, crn, &rep_crn);
    if (!sweeps_identical(ri, out_indep) || !sweeps_identical(rc, out_crn))
        std::printf("# impossible: reporting overload changed the estimates\n");
    double sum_indep = 0.0, sum_crn = 0.0;
    for (double s : rep_indep.adjacent_diff_sem) sum_indep += s;
    for (double s : rep_crn.adjacent_diff_sem) sum_crn += s;
    const double sem_ratio = sum_indep > 0.0 ? sum_crn / sum_indep : 1.0;
    std::printf("  adjacent-difference sem: independent %.4g, crn %.4g (ratio %.3f)\n",
                sum_indep, sum_crn, sem_ratio);

    json.field("indep_seconds", indep_sec);
    json.field("crn_seconds", crn_sec);
    json.field("sweep_speedup", speedup);
    json.field("worst_sem_indep", worst_sem_indep);
    json.field("worst_sem_crn", worst_sem_crn);
    json.field("blocks_indep_total", static_cast<std::uint64_t>(blocks_indep));
    json.field("blocks_crn_total", static_cast<std::uint64_t>(blocks_crn));
    json.field("adjacent_sem_ratio", sem_ratio);
    json.write();

    if (!smoke && speedup < 1.5) {
        std::fprintf(stderr, "FAIL: crn sweep speedup %.2fx < 1.5x at matched precision\n",
                     speedup);
        return 1;
    }
    if (!smoke && sem_ratio >= 1.0) {
        std::fprintf(stderr,
                     "FAIL: crn adjacent-difference sem ratio %.3f did not shrink\n",
                     sem_ratio);
        return 1;
    }
    return 0;
}
