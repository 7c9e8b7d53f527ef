// E4 — eqs (6)-(7): asymptotic convergence of the feedback lower bound to
// the erasure upper bound as the symbol width N grows (at P_i = P_d).
//
// Regenerates the ratio C_lower / C_upper as a function of N for several
// deletion rates, for both the paper's Theorem-5 expression and our exact
// protocol analysis, plus a Monte-Carlo measurement at selected points.
//
// Second half: the deterministic-parallelism benchmark for the repo's
// hottest kernel, the drift-lattice Monte-Carlo MI estimator. The same
// root seed runs with threads=1 and threads=hardware. Exit 1 unless the
// estimates are bit-identical and the rate stays within 25% of the value
// recorded for this seeded configuration. The wall-clock ratio is printed
// as the speedup but not gated: perfbench/ owns calibrated timing.

#include <cstdio>
#include <thread>

#include "bench_json.hpp"
#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/thread_pool.hpp"

namespace {

/// Monte-Carlo spot-check row (independent per-row seeding).
std::string mc_spot_row(unsigned n) {
    using namespace ccap;
    const double pd = 0.05;
    const core::DiChannelParams p{pd, pd, 0.0, n};
    core::DeletionInsertionChannel ch(p, 0xE4);
    util::Rng rng(0xE4F0 + n);
    std::vector<std::uint32_t> msg(30000);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));
    const auto run = core::run_counter_protocol(ch, msg);
    char line[96];
    std::snprintf(line, sizeof line, "%-3u %-6.2f %10.4f\n", n, pd,
                  run.measured_info_rate(n) / core::theorem1_upper_bound(p));
    return line;
}

}  // namespace

int main() {
    using namespace ccap;

    std::printf("E4: eq (7) — convergence of C_lower/C_upper to 1 as N grows (P_i = P_d)\n");
    std::printf("%-3s", "N");
    for (const double pd : {0.02, 0.05, 0.1, 0.2})
        std::printf("   thm5(%.2f) exact(%.2f)", pd, pd);
    std::printf("\n");

    for (const unsigned n : {1U, 2U, 3U, 4U, 6U, 8U, 12U, 16U}) {
        std::printf("%-3u", n);
        for (const double pd : {0.02, 0.05, 0.1, 0.2}) {
            const core::DiChannelParams p{pd, pd, 0.0, n};
            const double upper = core::theorem1_upper_bound(p);
            std::printf("   %10.4f %11.4f", core::theorem5_convergence_ratio(pd, n),
                        core::counter_protocol_exact_rate(p) / upper);
        }
        std::printf("\n");
    }

    std::printf("\nMonte-Carlo spot checks (measured protocol rate / Thm1 bound):\n");
    std::printf("%-3s %-6s %10s\n", "N", "P_d=P_i", "measured");
    {
        // Grid-level parallelism: the four spot checks are independent.
        const std::vector<unsigned> widths = {1U, 4U, 8U, 12U};
        std::vector<std::string> rows(widths.size());
        util::parallel_for(util::ThreadPool::shared(), widths.size(),
                           [&](std::size_t i) { rows[i] = mc_spot_row(widths[i]); });
        for (const auto& row : rows) std::fputs(row.c_str(), stdout);
    }
    std::printf("\nShape check: every column increases monotonically in N — the paper's\n"
                "expression towards 1 (its eq (7)), the exact protocol analysis towards\n"
                "its own limit 1 - P_i/(1-P_d) (docs/THEORY.md sec. 3). Either way,\n"
                "wider symbols amortize the synchronization overhead, which is the\n"
                "operational content of the paper's convergence claim.\n");

    // ---- Parallel Monte-Carlo MI benchmark ----
    info::DriftParams dp;
    dp.p_d = 0.05;
    dp.p_i = 0.05;
    info::McOptions opts;
    opts.block_len = 128;
    opts.num_blocks = 32;
    constexpr std::uint64_t kSeed = 0xE4AC;

    opts.threads = 1;
    util::Rng serial_rng(kSeed);
    bench::WallTimer serial_timer;
    const auto serial = info::iid_mutual_information_rate(dp, opts, serial_rng);
    const double serial_sec = serial_timer.seconds();

    opts.threads = 0;  // one lane per hardware thread
    util::Rng parallel_rng(kSeed);
    bench::WallTimer parallel_timer;
    const auto parallel = info::iid_mutual_information_rate(dp, opts, parallel_rng);
    const double parallel_sec = parallel_timer.seconds();

    const bool identical = serial.rate == parallel.rate && serial.sem == parallel.sem;
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("\nParallel MC MI (P_d=P_i=%.2f, %zu x %zu-symbol blocks):\n", dp.p_d,
                opts.num_blocks, opts.block_len);
    std::printf("  threads=1: rate %.6f (sem %.6f) in %.3fs\n", serial.rate, serial.sem,
                serial_sec);
    std::printf("  threads=%u: rate %.6f (sem %.6f) in %.3fs  -> speedup %.2fx, %s\n", hw,
                parallel.rate, parallel.sem, parallel_sec,
                parallel_sec > 0.0 ? serial_sec / parallel_sec : 0.0,
                identical ? "bit-identical" : "MISMATCH");

    bench::BenchJson json("mc_parallel");
    json.field("p_d", dp.p_d)
        .field("p_i", dp.p_i)
        .field("block_len", static_cast<std::uint64_t>(opts.block_len))
        .field("blocks", static_cast<std::uint64_t>(opts.num_blocks))
        .field("hardware_threads", static_cast<std::uint64_t>(hw))
        .field("batch", static_cast<std::uint64_t>(info::resolved_mc_batch(opts, dp)))
        .field("serial_sec", serial_sec)
        .field("parallel_sec", parallel_sec)
        .field("speedup", parallel_sec > 0.0 ? serial_sec / parallel_sec : 0.0)
        .field("rate", serial.rate)
        .field("sem", serial.sem)
        .field("bit_identical", identical ? "true" : "false");
    json.write();

    // The estimate is a pure function of the seed; the floor catches an
    // estimator change that moves it far below its recorded value.
    constexpr double kRecordedRate = 0.56974;
    const bool rate_ok = serial.rate >= 0.75 * kRecordedRate;
    if (!identical) std::fprintf(stderr, "FAIL: serial and parallel MC estimates differ\n");
    if (!rate_ok)
        std::fprintf(stderr, "FAIL: rate %.6f below 0.75 x recorded %.5f\n", serial.rate,
                     kRecordedRate);
    return identical && rate_ok ? 0 : 1;
}
