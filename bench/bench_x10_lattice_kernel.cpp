// X10 — drift-lattice kernel microbenchmark: zero-allocation engine vs the
// pre-change implementation.
//
// Two implementations of log2 P(received | transmitted) are timed on the
// same (tx, rx) pairs:
//
//   legacy — the seed DriftHmm lattice, reproduced below verbatim-in-spirit:
//            fresh vector<vector<double>> rows per call, full +/-max_drift
//            sweep, per-position point-prior emission through a fill+dot.
//   exact  — LatticeEngine through a reused workspace (bit-identical
//            results, asserted here on every pair).
//
// Emits BENCH_JSON (ns/symbol per configuration, speedups); `--smoke` runs
// tiny sizes. Exit 1 if the engine is not bit-identical to the legacy
// lattice. The timings are informational: perfbench/ owns timing.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/rng.hpp"

namespace {

using ccap::info::DriftParams;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The seed implementation's forward pass, kept as the timing baseline.
/// Allocates its slice rows per call and always sweeps the full drift band,
/// exactly like src/info/src/drift_hmm.cpp before the lattice engine.
class LegacyLattice {
public:
    explicit LegacyLattice(const DriftParams& params) : p_(params) {
        const auto m_alpha = static_cast<std::size_t>(p_.alphabet);
        inv_m_ = 1.0 / static_cast<double>(p_.alphabet);
        ins_pow_.resize(static_cast<std::size_t>(p_.max_insert_run) + 1);
        ins_pow_[0] = 1.0;
        for (std::size_t g = 1; g < ins_pow_.size(); ++g)
            ins_pow_[g] = ins_pow_[g - 1] * p_.p_i * inv_m_;
        const double p_sub = p_.p_s / (static_cast<double>(p_.alphabet) - 1.0);
        emit_tab_.assign(m_alpha * m_alpha, p_sub);
        for (std::size_t s = 0; s < m_alpha; ++s) emit_tab_[s * m_alpha + s] = 1.0 - p_.p_s;
    }

    [[nodiscard]] double log2_likelihood(std::span<const std::uint8_t> tx,
                                         std::span<const std::uint8_t> rx) const {
        const std::size_t n = tx.size();
        const std::size_t m = rx.size();
        const int d_max = p_.max_drift;
        const auto width = static_cast<std::size_t>(2 * d_max + 1);
        const auto idx = [&](int d) { return static_cast<std::size_t>(d + d_max); };
        const auto drift_ok = [&](std::size_t j, int d) {
            if (d < -d_max || d > d_max) return false;
            const long long r = static_cast<long long>(j) + d;
            return r >= 0 && r <= static_cast<long long>(m);
        };
        std::vector<double> trail_pow(m + 1);
        trail_pow[0] = 1.0;
        for (std::size_t k = 1; k <= m; ++k) trail_pow[k] = trail_pow[k - 1] * p_.p_i * inv_m_;

        std::vector<std::vector<double>> rows(n + 1, std::vector<double>(width, 0.0));
        std::vector<double> log2_scale(n + 1, 0.0);
        std::vector<double> point(p_.alphabet, 0.0);
        rows[0][idx(0)] = 1.0;
        for (std::size_t j = 1; j <= n; ++j) {
            std::fill(point.begin(), point.end(), 0.0);
            point[tx[j - 1]] = 1.0;
            auto& cur = rows[j];
            const auto& prev = rows[j - 1];
            for (int dp = -d_max; dp <= d_max; ++dp) {
                if (!drift_ok(j - 1, dp)) continue;
                const double ap = prev[idx(dp)];
                if (ap == 0.0) continue;
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                for (int g = 0; g <= p_.max_insert_run; ++g) {
                    const int d = dp + g - 1;
                    if (!drift_ok(j, d)) continue;
                    const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                    if (r1 > m) break;
                    double w = ins_pow_[static_cast<std::size_t>(g)] * p_.p_d;
                    if (g >= 1) {
                        const double* row =
                            emit_tab_.data() +
                            static_cast<std::size_t>(rx[r1 - 1]) * p_.alphabet;
                        double e = 0.0;
                        for (std::size_t s = 0; s < point.size(); ++s) e += point[s] * row[s];
                        w += ins_pow_[static_cast<std::size_t>(g - 1)] * (1.0 - p_.p_d - p_.p_i) * e;
                    }
                    cur[idx(d)] += ap * w;
                }
            }
            double norm = 0.0;
            for (double v : cur) norm += v;
            if (norm <= 0.0) {
                log2_scale[j] = kNegInf;
                continue;
            }
            for (double& v : cur) v /= norm;
            log2_scale[j] = log2_scale[j - 1] + std::log2(norm);
        }
        if (log2_scale[n] == kNegInf) return kNegInf;
        double tail = 0.0;
        for (int d = -d_max; d <= d_max; ++d) {
            if (!drift_ok(n, d)) continue;
            const long long k = static_cast<long long>(m) - (static_cast<long long>(n) + d);
            if (k < 0) continue;
            tail += rows[n][idx(d)] * trail_pow[static_cast<std::size_t>(k)] * (1.0 - p_.p_i);
        }
        if (tail <= 0.0) return kNegInf;
        return log2_scale[n] + std::log2(tail);
    }

private:
    DriftParams p_;
    double inv_m_ = 0.0;
    std::vector<double> ins_pow_;
    std::vector<double> emit_tab_;
};

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
        p.rx = ccap::info::simulate_drift_channel(p.tx, params, rng);
    }
    return pairs;
}

/// ns per transmitted symbol for `fn(pair)` over all pairs, `reps` sweeps.
template <typename Fn>
double time_ns_per_symbol(const std::vector<Pair>& pairs, std::size_t reps, Fn&& fn) {
    // One untimed warm-up sweep (page in the arenas / branch predictors).
    double sink = 0.0;
    for (const Pair& p : pairs) sink += fn(p);
    ccap::bench::WallTimer timer;
    std::size_t symbols = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        for (const Pair& p : pairs) {
            sink += fn(p);
            symbols += p.tx.size();
        }
    }
    const double sec = timer.seconds();
    if (sink == 42.0) std::printf("# impossible %g\n", sink);  // defeat dead-code elim
    return sec * 1e9 / static_cast<double>(symbols);
}

struct ConfigResult {
    double legacy_ns = 0.0;
    double exact_ns = 0.0;
    bool bit_identical = true;
};

ConfigResult run_config(const DriftParams& base, std::size_t n, int max_drift,
                        std::size_t num_pairs, std::size_t reps, std::uint64_t seed) {
    DriftParams params = base;
    params.max_drift = max_drift;
    const std::vector<Pair> pairs = make_pairs(params, n, num_pairs, seed);

    const LegacyLattice legacy(params);
    const ccap::info::DriftHmm exact_hmm(params);
    ccap::info::LatticeWorkspace ws;

    ConfigResult res;
    for (const Pair& p : pairs) {
        const double l_legacy = legacy.log2_likelihood(p.tx, p.rx);
        const double l_exact = exact_hmm.log2_likelihood(p.tx, p.rx, ws);
        if (std::memcmp(&l_legacy, &l_exact, sizeof(double)) != 0) res.bit_identical = false;
    }

    res.legacy_ns = time_ns_per_symbol(pairs, reps, [&](const Pair& p) {
        return legacy.log2_likelihood(p.tx, p.rx);
    });
    res.exact_ns = time_ns_per_symbol(pairs, reps, [&](const Pair& p) {
        return exact_hmm.log2_likelihood(p.tx, p.rx, ws);
    });
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke") smoke = true;

    // Small-rate regime typical for covert channels: the drift posterior is
    // sharply concentrated.
    DriftParams base;
    base.p_d = 0.004;
    base.p_i = 0.004;
    base.p_s = 0.01;
    base.alphabet = 2;
    base.max_insert_run = 8;

    struct Config {
        std::size_t n;
        int max_drift;
    };
    const std::vector<Config> grid = smoke
                                         ? std::vector<Config>{{64, 8}}
                                         : std::vector<Config>{{512, 8}, {2048, 16}, {4096, 16}};
    const std::size_t num_pairs = smoke ? 2 : 4;

    ccap::bench::BenchJson json("lattice_kernel");
    json.field("p_d", base.p_d).field("p_i", base.p_i).field("p_s", base.p_s);

    std::printf("X10: drift-lattice kernel — legacy vs zero-allocation engine\n");
    std::printf("%8s %8s %14s %14s %10s\n", "n", "drift", "legacy ns/sym", "exact ns/sym",
                "speedup");

    bool all_identical = true;
    double headline_speedup = 0.0;
    for (const Config& cfg : grid) {
        // Scale sweep count so each config times ~the same total work.
        const std::size_t reps =
            smoke ? 2 : std::max<std::size_t>(2, 3'000'000 / (cfg.n * num_pairs));
        const ConfigResult r =
            run_config(base, cfg.n, cfg.max_drift, num_pairs, reps, 0x9e3779b9);
        all_identical = all_identical && r.bit_identical;
        const double speedup = r.legacy_ns / r.exact_ns;
        if (!smoke && cfg.n == 4096 && cfg.max_drift == 16) headline_speedup = speedup;
        std::printf("%8zu %8d %14.1f %14.1f %9.2fx\n", cfg.n, cfg.max_drift, r.legacy_ns,
                    r.exact_ns, speedup);
        const std::string tag =
            "_n" + std::to_string(cfg.n) + "_d" + std::to_string(cfg.max_drift);
        json.field("legacy_ns_sym" + tag, r.legacy_ns);
        json.field("exact_ns_sym" + tag, r.exact_ns);
        json.field("speedup" + tag, speedup);
    }

    json.field("bit_identical", all_identical ? 1 : 0);
    if (!smoke) json.field("headline_speedup_n4096_d16", headline_speedup);
    json.write();

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: the engine is not bit-identical to the legacy lattice\n");
        return 1;
    }
    return 0;
}
