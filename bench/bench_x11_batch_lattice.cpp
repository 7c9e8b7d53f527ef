// X11 — batched structure-of-arrays lattice vs the scalar engine.
//
// The scalar LatticeEngine (X10) already removed allocations and the
// full-width sweep; what is left on the table is instruction-level parallelism.
// BatchLatticeEngine advances B same-shape sequences in lockstep with
// [drift][lane] rows, computing the per-row window and transition weights
// once per row instead of once per sequence, and turning the hot inner
// loop into a contiguous lane sweep. This harness measures what that buys
// on Monte-Carlo shaped work:
//
//   scalar — DriftHmm::log2_likelihood per pair through a reused workspace.
//   batch  — DriftHmm::log2_likelihood_batch over tiles of B pairs.
//
// Per-lane results are asserted bit-identical to the scalar engine (memcmp
// on the doubles) — an exit-1 violation, so the timing numbers can never
// come from a wrong kernel.
// An end-to-end iid Monte-Carlo timing at the auto tile closes the loop on
// the estimator the batch engine was built for.
//
// Emits BENCH_JSON; `--smoke` runs tiny sizes. The timings are
// informational: perfbench/ owns timing.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/info/lattice_simd.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::info;
using SymbolSpan = DriftHmm::SymbolSpan;

struct Pair {
    std::vector<std::uint8_t> tx, rx;
};

std::vector<Pair> make_pairs(const DriftParams& params, std::size_t n, std::size_t count,
                             std::uint64_t seed) {
    ccap::util::Rng rng(seed);
    std::vector<Pair> pairs(count);
    for (auto& p : pairs) {
        p.tx.resize(n);
        for (auto& s : p.tx)
            s = static_cast<std::uint8_t>(rng.uniform_below(params.alphabet));
        p.rx = simulate_drift_channel(p.tx, params, rng);
    }
    return pairs;
}

/// Pre-sliced lane views: tile t covers pairs [t*batch, (t+1)*batch).
struct Tiles {
    std::vector<std::vector<SymbolSpan>> tx, rx;
};

Tiles make_tiles(const std::vector<Pair>& pairs, std::size_t batch) {
    Tiles tiles;
    for (std::size_t b0 = 0; b0 < pairs.size(); b0 += batch) {
        const std::size_t b1 = std::min(pairs.size(), b0 + batch);
        std::vector<SymbolSpan> tx, rx;
        for (std::size_t i = b0; i < b1; ++i) {
            tx.emplace_back(pairs[i].tx);
            rx.emplace_back(pairs[i].rx);
        }
        tiles.tx.push_back(std::move(tx));
        tiles.rx.push_back(std::move(rx));
    }
    return tiles;
}

/// ns per transmitted symbol for one full sweep of `fn()`, `reps` sweeps,
/// with an untimed warm-up (arenas reach steady state, caches are hot).
template <typename Fn>
double time_ns_per_symbol(std::size_t symbols_per_sweep, std::size_t reps, Fn&& fn) {
    double sink = fn();
    ccap::bench::WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r) sink += fn();
    const double sec = timer.seconds();
    if (sink == 42.0) std::printf("# impossible %g\n", sink);  // defeat dead-code elim
    return sec * 1e9 / static_cast<double>(symbols_per_sweep * reps);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke") smoke = true;

    DriftParams base;
    base.p_d = 0.01;
    base.p_i = 0.01;
    base.p_s = 0.02;
    base.alphabet = 2;
    base.max_insert_run = 8;

    struct Config {
        std::size_t n;
        int max_drift;
    };
    const std::vector<Config> grid =
        smoke ? std::vector<Config>{{64, 6}} : std::vector<Config>{{256, 8}, {1024, 16}};
    const std::vector<std::size_t> batches =
        smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 8, 16, 32};
    const std::size_t num_pairs = smoke ? 8 : 32;

    ccap::bench::BenchJson json("batch_lattice");
    json.field("p_d", base.p_d).field("p_i", base.p_i).field("p_s", base.p_s);
    json.field("batch", static_cast<std::uint64_t>(batches.back()));

    std::printf("X11: batched SoA lattice — lockstep lanes vs scalar sweeps\n");
    std::printf("%8s %8s %6s %14s %14s %10s %10s\n", "n", "drift", "B", "scalar ns/sym",
                "batch ns/sym", "speedup", "identical");

    bool all_identical = true;
    double best_speedup_b8plus = 0.0;
    for (const Config& cfg : grid) {
        DriftParams params = base;
        params.max_drift = cfg.max_drift;
        const std::vector<Pair> pairs = make_pairs(params, cfg.n, num_pairs, 0xB11 + cfg.n);
        const DriftHmm hmm(params);
        LatticeWorkspace ws;

        // Scalar reference values (also the bit-identity ground truth).
        std::vector<double> scalar_vals;
        for (const Pair& p : pairs)
            scalar_vals.push_back(hmm.log2_likelihood(p.tx, p.rx, ws));

        const std::size_t symbols = cfg.n * num_pairs;
        const std::size_t reps =
            smoke ? 2 : std::max<std::size_t>(3, 6'000'000 / symbols);
        const double scalar_ns = time_ns_per_symbol(symbols, reps, [&] {
            double acc = 0.0;
            for (const Pair& p : pairs) acc += hmm.log2_likelihood(p.tx, p.rx, ws);
            return acc;
        });

        const std::string cfg_tag =
            "_n" + std::to_string(cfg.n) + "_d" + std::to_string(cfg.max_drift);
        json.field("scalar_ns_sym" + cfg_tag, scalar_ns);

        for (const std::size_t batch : batches) {
            const Tiles tiles = make_tiles(pairs, batch);

            // Correctness before timing: every lane bit-identical to the
            // scalar engine.
            bool identical = true;
            for (std::size_t t = 0, i = 0; t < tiles.tx.size(); ++t) {
                const std::vector<LaneEvidence> got =
                    hmm.log2_likelihood_batch(tiles.tx[t], tiles.rx[t], ws);
                for (std::size_t l = 0; l < got.size(); ++l, ++i)
                    if (std::memcmp(&got[l].log2_evidence, &scalar_vals[i], sizeof(double)) != 0)
                        identical = false;
            }
            all_identical = all_identical && identical;

            const double batch_ns = time_ns_per_symbol(symbols, reps, [&] {
                double acc = 0.0;
                for (std::size_t t = 0; t < tiles.tx.size(); ++t) {
                    const std::vector<LaneEvidence> ev =
                        hmm.log2_likelihood_batch(tiles.tx[t], tiles.rx[t], ws);
                    for (const LaneEvidence& e : ev) acc += e.log2_evidence;
                }
                return acc;
            });
            const double speedup = scalar_ns / batch_ns;
            if (batch >= 8) best_speedup_b8plus = std::max(best_speedup_b8plus, speedup);
            std::printf("%8zu %8d %6zu %14.1f %14.1f %9.2fx %10s\n", cfg.n, cfg.max_drift,
                        batch, scalar_ns, batch_ns, speedup, identical ? "yes" : "NO");
            const std::string tag = cfg_tag + "_b" + std::to_string(batch);
            json.field("batch_ns_sym" + tag, batch_ns);
            json.field("speedup" + tag, speedup);
        }
    }

    // SIMD-dispatch speedup: the same batched sweep once with the kernel
    // table pinned to the scalar reference path and once on the runtime-
    // dispatched vector path. This isolates what the explicit AVX2/AVX-512/
    // NEON lane kernels buy over the scalar rows at identical tiling —
    // the acceptance bar for the dispatch layer. Bit-identity of both paths
    // is already asserted above, so the faster number cannot come from a
    // different answer.
    {
        const Config cfg = grid.back();
        DriftParams params = base;
        params.max_drift = cfg.max_drift;
        const std::vector<Pair> pairs = make_pairs(params, cfg.n, num_pairs, 0xB11 + cfg.n);
        const DriftHmm hmm(params);
        LatticeWorkspace ws;
        const std::size_t batch = batches.back();
        const Tiles tiles = make_tiles(pairs, batch);
        const std::size_t symbols = cfg.n * num_pairs;
        const std::size_t reps = smoke ? 2 : std::max<std::size_t>(3, 6'000'000 / symbols);

        const auto time_batch = [&] {
            return time_ns_per_symbol(symbols, reps, [&] {
                double acc = 0.0;
                for (std::size_t t = 0; t < tiles.tx.size(); ++t) {
                    const std::vector<LaneEvidence> ev =
                        hmm.log2_likelihood_batch(tiles.tx[t], tiles.rx[t], ws);
                    for (const LaneEvidence& e : ev) acc += e.log2_evidence;
                }
                return acc;
            });
        };

        const ccap::util::SimdPath active = ccap::util::active_simd_path();
        const char* active_name = ccap::util::simd_path_name(active);
        const double simd_ns = time_batch();
        ccap::util::force_simd_path(ccap::util::SimdPath::scalar);
        const double scalar_kernel_ns = time_batch();
        ccap::util::force_simd_path(active);
        const double kernel_speedup = scalar_kernel_ns / simd_ns;
        std::printf("  SIMD dispatch (n=%zu, B=%zu): scalar-kernel %.1f ns/sym, "
                    "%s %.1f ns/sym (%.2fx)\n",
                    cfg.n, batch, scalar_kernel_ns, active_name, simd_ns, kernel_speedup);
        json.field("simd_scalar_kernel_ns_sym", scalar_kernel_ns);
        json.field("simd_kernel_ns_sym", simd_ns);
        json.field("simd_kernel_speedup", kernel_speedup);
    }

    // End-to-end Monte-Carlo: the estimator the batch engine was built for
    // (single-thread so the batch effect is not diluted by scheduling).
    {
        DriftParams params = base;
        params.max_drift = smoke ? 6 : 12;
        const std::size_t block_len = smoke ? 48 : 256;
        const std::size_t num_blocks = smoke ? 4 : 16;
        McOptions opts;
        opts.block_len = block_len;
        opts.num_blocks = num_blocks;
        opts.threads = 1;

        ccap::util::Rng rng(0xE14);
        ccap::bench::WallTimer timer;
        const MiEstimate est = iid_mutual_information_rate(params, opts, rng);
        const double mc_ns = timer.seconds() * 1e9 / static_cast<double>(block_len * num_blocks);
        if (est.rate == -1.0) std::printf("# impossible\n");
        const std::size_t auto_batch = resolved_mc_batch(opts, params);
        std::printf("  iid MC (n=%zu, blocks=%zu, 1 thread): batch=%zu %.1f ns/sym\n",
                    block_len, num_blocks, auto_batch, mc_ns);
        json.field("mc_batch_ns_sym", mc_ns);
        json.field("mc_auto_batch", static_cast<std::uint64_t>(auto_batch));
    }

    json.field("bit_identical", all_identical ? 1 : 0);
    if (!smoke) json.field("headline_speedup_b8plus", best_speedup_b8plus);
    json.write();

    if (!all_identical) {
        std::fprintf(stderr,
                     "FAIL: batched lanes are not bit-identical to the scalar engine\n");
        return 1;
    }
    return 0;
}
