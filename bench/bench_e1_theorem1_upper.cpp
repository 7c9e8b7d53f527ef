// E1 — Theorem 1 / eq (1): the erasure upper bound C_max = N(1 - P_d).
//
// Regenerates the bound as a curve over P_d for several symbol widths and
// cross-checks it three independent ways:
//   * Blahut-Arimoto capacity of the matched M-ary erasure DMC (must agree
//     to solver precision);
//   * Monte-Carlo information delivered by the matched erasure view of a
//     simulated Definition-1 channel (same noise realization, locations
//     revealed);
//   * the no-feedback achievable rate of the raw deletion channel (drift
//     lattice MC), which must sit *below* the bound — the price of losing
//     the side information.
//
// The (N, P_d) grid rows are independent (each seeds its own channel and
// generators), so they are evaluated through the shared thread pool; the
// serial-vs-parallel grid wall time is printed as an `e1_grid` BENCH_JSON line.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/erasure_channel.hpp"
#include "ccap/info/blahut_arimoto.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/thread_pool.hpp"

namespace {

using namespace ccap;

struct GridPoint {
    unsigned n;
    double pd;
};

/// One table row; independent of every other row by construction.
std::string run_point(const GridPoint& g, unsigned mc_threads) {
    const core::DiChannelParams p{g.pd, 0.0, 0.0, g.n};
    const double bound = core::theorem1_upper_bound(p);
    const double ba = info::blahut_arimoto(info::make_mary_erasure(p.alphabet(), g.pd)).capacity;

    // Monte-Carlo erasure view.
    core::DeletionInsertionChannel ch(p, 0xE1);
    util::Rng rng(0xE1F0 + g.n);
    std::vector<std::uint32_t> msg(20000);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));
    const auto t = ch.transduce(msg);
    const auto view = core::erasure_view(t);
    const double mc =
        core::erasure_view_information_bits(view, g.n) / static_cast<double>(t.channel_uses);

    // No-feedback achievable rate (binary only, where it is cheap).
    double nofb = -1.0;
    if (g.n == 1 && g.pd < 0.45) {
        util::Rng rng2(0xE1F1);
        info::DriftParams dp;
        dp.p_d = g.pd;
        nofb = info::iid_mutual_information_rate(dp, {96, 12, mc_threads}, rng2).rate;
    }

    char line[160];
    if (nofb >= 0.0)
        std::snprintf(line, sizeof line, "%-6.2f %-3u %12.4f %12.4f %14.4f %16.4f\n", g.pd,
                      g.n, bound, ba, mc, nofb);
    else
        std::snprintf(line, sizeof line, "%-6.2f %-3u %12.4f %12.4f %14.4f %16s\n", g.pd, g.n,
                      bound, ba, mc, "-");
    return line;
}

}  // namespace

int main() {
    using namespace ccap;

    std::printf("E1: Theorem 1 upper bound C_max = N(1-P_d)  [bits/channel use]\n");
    std::printf("%-6s %-3s %12s %12s %14s %16s\n", "P_d", "N", "N(1-P_d)", "BA(erasure)",
                "MC erasure", "MC no-feedback");

    std::vector<GridPoint> grid;
    for (const unsigned n : {1U, 2U, 4U})
        for (const double pd : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) grid.push_back({n, pd});

    auto& pool = util::ThreadPool::shared();
    std::vector<std::string> rows(grid.size());

    // Serial reference pass, then the same grid through the pool. Rows are
    // seeded per-point, so both passes must produce identical text.
    bench::WallTimer serial_timer;
    for (std::size_t i = 0; i < grid.size(); ++i) rows[i] = run_point(grid[i], 1);
    const double serial_sec = serial_timer.seconds();
    const std::vector<std::string> serial_rows = rows;

    bench::WallTimer parallel_timer;
    util::parallel_for(pool, grid.size(), [&](std::size_t i) { rows[i] = run_point(grid[i], 1); });
    const double parallel_sec = parallel_timer.seconds();

    for (const auto& row : rows) std::fputs(row.c_str(), stdout);
    std::printf("\nShape check: column 3 == column 4 (analytic), column 5 tracks the bound\n"
                "(it *is* the erasure channel), column 6 < column 3 strictly for P_d > 0.\n");
    std::printf("Grid determinism: parallel rows %s serial rows.\n",
                rows == serial_rows ? "identical to" : "DIFFER FROM");

    bench::BenchJson json("e1_grid");
    json.field("points", static_cast<std::uint64_t>(grid.size()))
        .field("serial_sec", serial_sec)
        .field("parallel_sec", parallel_sec)
        .field("speedup", parallel_sec > 0.0 ? serial_sec / parallel_sec : 0.0)
        .field("pool_threads", static_cast<std::uint64_t>(pool.size()))
        .field("deterministic", rows == serial_rows ? "true" : "false");
    json.write();
    return rows == serial_rows ? 0 : 1;
}
