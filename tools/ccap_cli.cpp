// ccap — command-line front end for the covert-channel capacity toolkit.
//
// Subcommands:
//   bounds    print the capacity band for given channel parameters
//   analyze   estimate parameters from sent/received trace files and report
//   simulate  generate sent/received traces through a Definition-1 channel
//   sweep     CSV of the capacity band over a (P_d, P_i) grid
//   mi        Monte-Carlo achievable rate through the drift lattice
//   windows   windowed parameter estimates + changepoint scan
//   protocol  run a (hardened) feedback protocol under faults and report
//   contend   multi-tenant contention engine: capacity under offered load
//   track     long-lived online capacity tracker over a live faulty channel
//             or a trace pair, with checkpoint/resume and graceful shutdown
//
// Parallelism: `--threads N` caps the worker threads used by the
// Monte-Carlo estimators and the sweep grid (default: one per hardware
// thread; 1 forces serial execution). Results are bit-identical for every
// thread count — see docs/THEORY.md §10.
//
// Exit codes: 0 success, 1 runtime failure (bad traces, infeasible
// parameters), 2 usage error (unknown command/flag, malformed value).
//
// Examples:
//   ccap bounds --pd 0.15 --pi 0.05 --bits 2 --uses-per-sec 100
//   ccap simulate --pd 0.2 --len 5000 --sent sent.txt --received recv.txt
//   ccap analyze --sent sent.txt --received recv.txt --bits 1
//   ccap sweep --bits 4 > band.csv
//   ccap mi --pd 0.1 --pi 0.05 --block 128 --blocks 64 --threads 8
//   ccap protocol --proto saw --pd 0.2 --p-ack-loss 0.2 --ack-delay 2
//        --timeout 6 --len 20000

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/core/fault_injection.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/core/protocol_analysis.hpp"
#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/analyzer.hpp"
#include "ccap/estimate/capacity_tracker.hpp"
#include "ccap/estimate/report.hpp"
#include "ccap/estimate/changepoint.hpp"
#include "ccap/estimate/trace_io.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/lattice_simd.hpp"
#include "ccap/sched/contention.hpp"
#include "ccap/util/checkpoint_io.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/signal_flag.hpp"
#include "ccap/util/thread_pool.hpp"

namespace {

using namespace ccap;

/// Bad command line (unknown flag, malformed value): exit code 2 and a
/// one-line usage hint, as opposed to runtime failures (exit code 1).
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

struct Args {
    std::map<std::string, std::string> values;

    /// Strict numeric parse: the whole token must be a finite number.
    /// std::stod alone would silently accept "0.2x" and "nan"; an empty
    /// token (`--pd ''`) is no number either, not 0.
    [[nodiscard]] double number(const std::string& key, double fallback) const {
        const auto it = values.find(key);
        if (it == values.end()) return fallback;
        std::size_t pos = 0;
        double v = 0.0;
        try {
            v = std::stod(it->second, &pos);
        } catch (const std::exception&) {
            pos = 0;
        }
        if (it->second.empty() || pos != it->second.size() || !std::isfinite(v))
            throw UsageError("option --" + key + " expects a number, got '" + it->second +
                             "'");
        return v;
    }
    /// Non-negative integer option (counts, seeds, delays) that must fit
    /// the destination type T: a value past T's range is a usage error, not
    /// an undefined or truncating conversion.
    template <typename T = std::uint64_t>
    [[nodiscard]] T count(const std::string& key, std::type_identity_t<T> fallback) const {
        const auto it = values.find(key);
        if (it == values.end()) return fallback;
        const std::string& s = it->second;
        // Plain decimal digits parse exactly (through a double, seeds past
        // 2^53 would round onto their neighbors); any other token ("1e3",
        // "+5", "2.0") takes the strict numeric parse and must be whole.
        std::uint64_t v = 0;
        const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        bool too_large = ec == std::errc::result_out_of_range;
        if (end != s.data() + s.size() || ec == std::errc::invalid_argument) {
            const double d = number(key, 0.0);
            if (d < 0.0 || d != std::floor(d))
                throw UsageError("option --" + key + " expects a non-negative integer, got '" +
                                 s + "'");
            // 2^64 is exact in a double and is the first value v cannot hold.
            too_large = d >= 0x1p64;
            if (!too_large) v = static_cast<std::uint64_t>(d);
        }
        if (too_large || v > std::numeric_limits<T>::max())
            throw UsageError("option --" + key + " expects an integer at most " +
                             std::to_string(std::numeric_limits<T>::max()) + ", got '" + s +
                             "'");
        return static_cast<T>(v);
    }
    [[nodiscard]] std::string text(const std::string& key, const std::string& fallback) const {
        const auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }
    [[nodiscard]] std::string require(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) throw UsageError("missing required option --" + key);
        return it->second;
    }
    /// Strict per-command flag set: a flag outside `allowed` and `group` is
    /// a usage error, not a silently ignored typo (--theads, --p_d, ...).
    void reject_unknown(std::initializer_list<const char*> allowed,
                        std::span<const char* const> group = {}) const {
        for (const auto& [key, value] : values) {
            const auto is_key = [&](const char* a) { return key == a; };
            if (std::ranges::none_of(allowed, is_key) && std::ranges::none_of(group, is_key))
                throw UsageError("unknown option --" + key);
        }
    }
};

Args parse_args(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0)
            throw UsageError("expected --option, got '" + flag + "'");
        if (flag == "--verbose") {  // the one valueless flag
            args.values.emplace("verbose", "1");
            continue;
        }
        if (i + 1 >= argc) throw UsageError("option " + flag + " needs a value");
        args.values[flag.substr(2)] = argv[++i];
    }
    return args;
}

/// The drift lattices hold one symbol per byte: `--bits` is at most 8 for
/// the commands that run them.
constexpr unsigned kLatticeMaxBits = 8;

/// `--bits N`: bits per channel symbol, in the [1,16] range
/// core::DiChannelParams accepts, or [1,max_bits]. Checked before any
/// caller forms the alphabet 1 << N.
unsigned bits_from(const Args& args, unsigned max_bits = 16) {
    const auto bits = args.count<unsigned>("bits", 1);
    if (bits < 1 || bits > max_bits)
        throw UsageError("option --bits expects an integer in [1," + std::to_string(max_bits) +
                         "], got '" + args.values.at("bits") + "'");
    return bits;
}

core::DiChannelParams params_from(const Args& args) {
    core::DiChannelParams p;
    p.p_d = args.number("pd", 0.0);
    p.p_i = args.number("pi", 0.0);
    p.p_s = args.number("ps", 0.0);
    p.bits_per_symbol = bits_from(args);
    p.validate();
    return p;
}

/// The worker count a `threads` cap resolves to: the cap itself, or one per
/// hardware thread for 0.
unsigned workers_for(unsigned threads) {
    return threads != 0 ? threads : std::max(1U, std::thread::hardware_concurrency());
}

/// The Monte-Carlo flag group of sweep, mi, contend and track, parsed by
/// mc_flags_from. --mc-point-tile comes last: mi estimates one point and
/// takes the group without it (kMcPointFlags).
constexpr const char* kMcFlags[] = {"threads",       "simd",          "verbose",
                                    "mc-target-sem", "mc-max-blocks", "mc-point-tile"};
constexpr auto kMcPointFlags = std::span(kMcFlags).first<std::size(kMcFlags) - 1>();

/// Parse the Monte-Carlo flag group into `opts` and return the --threads
/// worker cap (0, the default, means one per hardware thread; 1 forces
/// serial execution).
///   --simd scalar|neon|avx2|avx512 pins the lattice kernel dispatch for
///     this process (same as the CCAP_SIMD environment override: requests
///     above the best available path clamp down, never up). It is applied
///     here, before any estimator runs, so the choice is visible everywhere.
///   --mc-target-sem S > 0 turns the estimators adaptive (run in rounds,
///     stop once the standard error of the mean reaches S); --mc-max-blocks
///     M caps the total blocks (0 keeps the library default of 64 rounds).
///     S = 0 (the default) keeps the fixed block count bit for bit.
///   --mc-point-tile G|auto: common-random-numbers point tiling for grid
///     sweeps. G grid points share every block's variate tape and ride one
///     per-lane-parameter lattice sweep; "auto" picks a vector-width
///     multiple. 0 (the default) keeps independent per-point streams.
unsigned mc_flags_from(const Args& args, info::McOptions& opts) {
    if (const auto it = args.values.find("simd"); it != args.values.end()) {
        util::SimdPath path{};
        if (!util::parse_simd_path(it->second, path))
            throw UsageError("option --simd expects scalar, neon, avx2 or avx512, got '" +
                             it->second + "'");
        util::force_simd_path(path);
    }
    const auto threads = args.count<unsigned>("threads", 0);
    const double target = args.number("mc-target-sem", 0.0);
    if (target < 0.0) throw UsageError("option --mc-target-sem expects a value >= 0");
    opts.target_sem = target;
    opts.max_blocks = args.count<std::size_t>("mc-max-blocks", 0);
    if (const auto it = args.values.find("mc-point-tile"); it != args.values.end()) {
        try {
            opts.point_tile = it->second == "auto" ? info::kMcPointTileAuto
                                                   : args.count<std::size_t>("mc-point-tile", 0);
        } catch (const UsageError&) {
            throw UsageError("option --mc-point-tile expects a non-negative integer or 'auto', "
                             "got '" +
                             it->second + "'");
        }
    }
    return threads;
}

/// `--verbose` line for the lattice subcommands: the resolved SIMD kernel
/// path and the Monte-Carlo tile shape the estimator will actually run
/// with: the lockstep lattice lanes of one sweep (in CRN mode,
/// crn_sweep_blocks blocks x the point tile) x the worker cap `threads`
/// the command hands to the engine.
void print_lattice_verbose(std::FILE* out, const info::McOptions& opts,
                           const info::DriftParams& params, unsigned threads,
                           std::size_t sweep_points = 0) {
    const info::LaneKernels& k = info::active_lane_kernels();
    // The CRN tile width, clamped to the grid when its size is known.
    const std::size_t tile = info::resolved_point_tile(
        opts, sweep_points != 0 ? sweep_points : static_cast<std::size_t>(-1) / 2);
    const std::size_t lanes = tile != 0 ? info::crn_sweep_blocks(opts, params, tile) * tile
                                        : info::resolved_mc_batch(opts, params);
    std::fprintf(out,
                 "# simd: %s (%zu doubles/vector, cpu: %s)\n"
                 "# mc tile: %zu lanes x %u threads\n",
                 k.name, k.vector_doubles, util::cpu_feature_string().c_str(), lanes,
                 workers_for(threads));
    if (tile != 0) {
        const std::string tile_str = opts.point_tile == info::kMcPointTileAuto
                                         ? std::string("auto")
                                         : std::to_string(opts.point_tile);
        std::fprintf(out, "# mc point tile: %zu points/sweep (crn, requested %s)\n", tile,
                     tile_str.c_str());
    }
}

int cmd_bounds(const Args& args) {
    args.reject_unknown({"pd", "pi", "ps", "bits", "uses-per-sec"});
    const auto p = params_from(args);
    const double ups = args.number("uses-per-sec", 100.0);
    const auto report = estimate::analyze_params(p, ups);
    std::fputs(estimate::render_report(report, p.to_string()).c_str(), stdout);
    return 0;
}

int cmd_analyze(const Args& args) {
    args.reject_unknown({"sent", "received", "bits", "uses-per-sec", "estimator"});
    const auto sent = estimate::read_trace_file(args.require("sent"));
    const auto received = estimate::read_trace_file(args.require("received"));
    estimate::AnalyzerConfig cfg;
    cfg.bits_per_symbol = bits_from(args);
    cfg.uses_per_second = args.number("uses-per-sec", 100.0);
    const std::string kind = args.text("estimator", "mle");
    if (kind == "mle")
        cfg.estimator_kind = estimate::EstimatorKind::mle;
    else if (kind == "align")
        cfg.estimator_kind = estimate::EstimatorKind::alignment;
    else
        throw UsageError("unknown --estimator (use mle or align)");
    const auto report = estimate::analyze_traces(sent, received, cfg);
    std::fputs(estimate::render_report(report, args.require("sent") + " vs " +
                                                   args.require("received"))
                   .c_str(),
               stdout);
    return 0;
}

int cmd_simulate(const Args& args) {
    args.reject_unknown({"sent", "received", "pd", "pi", "ps", "bits", "len", "seed"});
    const auto p = params_from(args);
    const auto len = args.count<std::size_t>("len", 1000);
    const auto seed = args.count("seed", 1);
    util::Rng rng(seed);
    std::vector<std::uint32_t> sent(len);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));
    core::DeletionInsertionChannel channel(p, seed ^ 0xC11);
    const auto t = channel.transduce(sent);
    estimate::write_trace_file(args.require("sent"), sent,
                               "sent trace, " + p.to_string());
    estimate::write_trace_file(args.require("received"), t.output,
                               "received trace, " + p.to_string());
    std::printf("wrote %zu sent / %zu received symbols (%llu channel uses)\n", sent.size(),
                t.output.size(), static_cast<unsigned long long>(t.channel_uses));
    return 0;
}

int cmd_windows(const Args& args) {
    args.reject_unknown({"sent", "received", "window"});
    const auto sent = estimate::read_trace_file(args.require("sent"));
    const auto received = estimate::read_trace_file(args.require("received"));
    const auto window = args.count<std::size_t>("window", 1000);
    const auto rates = estimate::windowed_rates(sent, received, window);
    std::printf("window,p_d,p_i,p_s\n");
    for (std::size_t i = 0; i < rates.p_d.size(); ++i)
        std::printf("%zu,%.4f,%.4f,%.4f\n", i, rates.p_d[i], rates.p_i[i], rates.p_s[i]);
    const auto change = estimate::detect_rate_change(rates.p_d);
    if (change)
        std::printf("# P_d changepoint at window %zu: %.4f -> %.4f (z=%.1f)\n",
                    change->index, change->mean_before, change->mean_after, change->z_score);
    else
        std::printf("# no P_d changepoint detected\n");
    return 0;
}

int cmd_sweep(const Args& args) {
    args.reject_unknown({"bits", "mi-blocks", "mi-block-len", "seed"}, kMcFlags);
    info::McOptions mi_opts;
    const unsigned threads = mc_flags_from(args, mi_opts);
    // Optional Monte-Carlo MI column: --mi-blocks K (> 0 enables).
    const auto mi_blocks = args.count<std::size_t>("mi-blocks", 0);
    const unsigned bits = mi_blocks > 0 ? bits_from(args, kLatticeMaxBits) : bits_from(args);
    const auto mi_block_len = args.count<std::size_t>("mi-block-len", 64);
    const auto seed = args.count("seed", 1);
    // Materialize the grid up front: the MI column evaluates it as one
    // point sweep, and the verbose tile report needs its size.
    std::vector<std::pair<double, double>> grid;
    for (double pd = 0.0; pd <= 0.501; pd += 0.05)
        for (double pi = 0.0; pi <= 0.301; pi += 0.05)
            if (pd + pi < 1.0) grid.emplace_back(pd, pi);
    mi_opts.block_len = mi_block_len;
    mi_opts.num_blocks = mi_blocks > 0 ? mi_blocks : 1;
    mi_opts.threads = threads;
    if (args.values.count("verbose")) {
        // stderr: stdout is the CSV. Every grid point shares one MC shape,
        // so one report covers the sweep.
        info::DriftParams dp;
        dp.alphabet = 1U << bits;
        print_lattice_verbose(stderr, mi_opts, dp, threads, grid.size());
    }
    // The MI column goes through the points API: without --mc-point-tile it
    // reproduces the historical independent per-point substreams bit for
    // bit; with it, tiles of grid points share each block's variate tape
    // (common random numbers) and ride one per-lane lattice sweep.
    std::vector<info::MiEstimate> mi;
    if (mi_blocks > 0) {
        std::vector<info::CapacityPoint> points;
        points.reserve(grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            info::DriftParams dp;
            dp.p_d = grid[i].first;
            dp.p_i = grid[i].second;
            dp.alphabet = 1U << bits;
            points.push_back({dp, util::substream_seed(seed, i)});
        }
        mi = info::iid_mutual_information_rate_points(points, mi_opts);
    }
    std::vector<std::string> rows(grid.size());
    util::parallel_for(
        util::ThreadPool::shared(), grid.size(),
        [&](std::size_t i) {
            const auto [pd, pi] = grid[i];
            const core::DiChannelParams p{pd, pi, 0.0, bits};
            const auto band = core::capacity_band(p);
            char line[160];
            int len = std::snprintf(line, sizeof line, "%.2f,%.2f,%.4f,%.4f,%.4f,%.4f", pd,
                                    pi, band.lower, band.exact_protocol, band.upper,
                                    core::degraded_capacity(static_cast<double>(bits), p));
            if (mi_blocks > 0) {
                std::snprintf(line + len, sizeof line - static_cast<std::size_t>(len),
                              ",%.4f\n", mi[i].rate);
            } else {
                std::snprintf(line + len, sizeof line - static_cast<std::size_t>(len), "\n");
            }
            rows[i] = line;
        },
        threads);
    std::printf(mi_blocks > 0 ? "p_d,p_i,thm5_lower,exact,thm1_upper,degraded,mc_mi\n"
                              : "p_d,p_i,thm5_lower,exact,thm1_upper,degraded\n");
    for (const auto& row : rows) std::fputs(row.c_str(), stdout);
    return 0;
}

int cmd_mi(const Args& args) {
    args.reject_unknown({"pd", "pi", "ps", "bits", "block", "blocks", "seed", "markov-stay"},
                        kMcPointFlags);
    info::McOptions opts;
    opts.threads = mc_flags_from(args, opts);
    info::DriftParams p;
    p.p_d = args.number("pd", 0.0);
    p.p_i = args.number("pi", 0.0);
    p.p_s = args.number("ps", 0.0);
    p.alphabet = 1U << bits_from(args, kLatticeMaxBits);
    opts.block_len = args.count<std::size_t>("block", 128);
    opts.num_blocks = args.count<std::size_t>("blocks", 32);
    // --markov-stay Q: binary repeat-Q Markov inputs instead of iid ones.
    const bool markov = args.values.count("markov-stay") != 0;
    const double stay = args.number("markov-stay", 0.0);
    if (markov && !(stay >= 0.0 && stay <= 1.0))
        throw UsageError("option --markov-stay expects a value in [0,1]");
    if (markov && p.alphabet != 2)
        throw UsageError("option --markov-stay needs --bits 1 (a binary source)");
    if (args.values.count("verbose")) print_lattice_verbose(stdout, opts, p, opts.threads);
    util::Rng rng(args.count("seed", 1));

    info::MiEstimate est;
    if (markov) {
        est = info::markov_mutual_information_rate(
            p, info::MarkovSource::binary_repeat(stay), opts, rng);
    } else {
        est = info::iid_mutual_information_rate(p, opts, rng);
    }
    std::printf("achievable rate: %.4f bits/use (sem %.4f, 95%% CI +-%.4f)\n", est.rate,
                est.sem, 1.96 * est.sem);
    std::printf("blocks: %zu x %zu symbols, threads: %u\n", est.blocks, est.block_len,
                workers_for(opts.threads));
    if (opts.target_sem > 0.0)
        std::printf("adaptive: target sem %.4g, spent %zu of %zu blocks, %s\n",
                    opts.target_sem, est.blocks, info::mc_block_cap(opts),
                    est.converged ? "converged" : "hit block cap");
    return 0;
}

/// `--profile NAME` + explicit knob overrides, shared by `protocol` and
/// `track`. The preset (core::named_fault_profile) supplies the defaults;
/// any explicit --storm-*/--drift-*/--stuck-* flag overrides its field.
core::FaultProfile fault_profile_from(const Args& args) {
    core::FaultProfile profile;
    const std::string name = args.text("profile", "none");
    if (!core::named_fault_profile(name, profile))
        throw UsageError("unknown --profile '" + name +
                         "' (presets: " + core::fault_profile_presets_help() + ")");
    const bool explicit_knobs =
        args.values.count("storm-period") || args.values.count("storm-len") ||
        args.values.count("drift-amp") || args.values.count("drift-period") ||
        args.values.count("stuck-period") || args.values.count("stuck-len") ||
        args.values.count("stuck-symbol");
    profile.storm_period = args.count("storm-period", profile.storm_period);
    profile.storm_len = args.count("storm-len", profile.storm_len);
    profile.drift_amplitude = args.number("drift-amp", profile.drift_amplitude);
    profile.drift_period = args.count("drift-period", profile.drift_period);
    profile.stuck_period = args.count("stuck-period", profile.stuck_period);
    profile.stuck_len = args.count("stuck-len", profile.stuck_len);
    profile.stuck_symbol =
        args.count<std::uint32_t>("stuck-symbol", profile.stuck_symbol);
    if (explicit_knobs) profile.name = profile.is_null() ? "none" : "cli";
    profile.validate();
    return profile;
}

int cmd_protocol(const Args& args) {
    args.reject_unknown({"proto", "pd", "pi", "ps", "bits", "len", "seed", "p-ack-loss",
                         "p-ack-corrupt", "ack-delay", "ack-jitter", "timeout",
                         "backoff-mult", "backoff-cap", "use-cap", "profile",
                         "storm-period", "storm-len", "drift-amp", "drift-period",
                         "stuck-period", "stuck-len", "stuck-symbol"});
    const auto p = params_from(args);
    const std::string proto = args.text("proto", "saw");
    const auto len = args.count<std::size_t>("len", 2000);
    const auto seed = args.count("seed", 1);

    core::FeedbackLinkParams lp;
    lp.p_loss = args.number("p-ack-loss", 0.0);
    lp.p_corrupt = args.number("p-ack-corrupt", 0.0);
    lp.delay = args.count("ack-delay", 0);
    lp.jitter = args.count("ack-jitter", 0);
    lp.validate();

    core::HardenedOptions opt;
    opt.timeout = args.count("timeout", 8);
    opt.backoff_mult = args.count("backoff-mult", 2);
    opt.backoff_cap = args.count("backoff-cap", 64);
    opt.channel_use_cap = args.count("use-cap", 0);
    opt.validate();

    const core::FaultProfile profile = fault_profile_from(args);

    util::Rng rng(seed);
    std::vector<std::uint32_t> message(len);
    for (auto& s : message) s = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));

    core::DeletionInsertionChannel inner(p, seed ^ 0xC11);
    core::FaultyChannel channel(inner, profile, seed ^ 0xFA17);
    core::FeedbackLink link(lp, seed ^ 0xACC);

    core::ProtocolRun run;
    if (proto == "saw")
        run = core::run_hardened_stop_and_wait(channel, message, link, opt);
    else if (proto == "counter")
        run = core::run_hardened_counter_protocol(channel, message, link, opt);
    else if (proto == "gbn")
        run = core::run_hardened_go_back_n(channel, message, link, opt);
    else
        throw UsageError("unknown --proto (use saw, counter or gbn)");

    std::printf("protocol %s over %s, link loss=%.2f corrupt=%.2f delay=%llu jitter=%llu\n",
                proto.c_str(), p.to_string().c_str(), lp.p_loss, lp.p_corrupt,
                static_cast<unsigned long long>(lp.delay),
                static_cast<unsigned long long>(lp.jitter));
    std::printf("reliable: %s, delivered %zu/%zu symbols in %llu uses\n",
                run.reliable ? "yes" : "no", run.received.size(), message.size(),
                static_cast<unsigned long long>(run.channel_uses));
    std::printf("measured rate: %.4f bits/use (%.4f symbols/use)\n",
                run.measured_info_rate(p.bits_per_symbol), run.symbols_per_use());
    std::printf("retransmissions: %llu, timeouts: %llu, resyncs: %llu\n",
                static_cast<unsigned long long>(run.retransmissions),
                static_cast<unsigned long long>(run.timeouts),
                static_cast<unsigned long long>(run.resync_events));
    std::printf("acks lost: %llu, acks corrupted: %llu, injected faults: %llu\n",
                static_cast<unsigned long long>(run.acks_lost),
                static_cast<unsigned long long>(run.acks_corrupted),
                static_cast<unsigned long long>(channel.stats().injected_faults()));
    // The closed form models the stationary stop-and-wait chain only; a
    // fault profile drives the realized parameters away from it.
    if (proto == "saw" && profile.is_null()) {
        const double predicted = core::hardened_stop_and_wait_rate(p, lp, opt);
        std::printf("predicted rate: %.4f bits/use (gap %.4f)\n", predicted,
                    run.rate_gap(predicted, p.bits_per_symbol));
    }
    return 0;
}

int cmd_contend(const Args& args) {
    args.reject_unknown({"flows", "load", "ticks", "slices", "domain", "queue-cap",
                         "deadline", "collision-rate", "pd", "pi", "ps", "grid-step",
                         "mi-block", "mi-blocks", "seed", "cache", "interp"},
                        kMcFlags);
    // The per-node options take the flag group; the engine takes the
    // threads and warms its nodes with them.
    info::CapacityCache::Config cc;
    sched::ContentionConfig cfg;
    cfg.threads = mc_flags_from(args, cc.mc);
    cc.base.p_d = args.number("pd", 0.0);
    cc.base.p_i = args.number("pi", 0.0);
    cc.base.p_s = args.number("ps", 0.0);
    const double grid_step = args.number("grid-step", 0.01);
    if (!(grid_step > 0.0)) throw UsageError("option --grid-step expects a value > 0");
    cc.grid.pd_step = grid_step;
    cc.grid.pi_step = grid_step;
    cc.mc.block_len = args.count<std::size_t>("mi-block", 48);
    cc.mc.num_blocks = args.count<std::size_t>("mi-blocks", 8);
    const std::string cache_flag = args.text("cache", "on");
    if (cache_flag == "on")
        cc.enabled = true;
    else if (cache_flag == "off")
        cc.enabled = false;
    else
        throw UsageError("option --cache expects on or off, got '" + cache_flag + "'");
    info::CapacityCache cache(cc);

    cfg.flows = args.count<std::size_t>("flows", 4096);
    cfg.offered_load = args.number("load", 0.8);
    cfg.ticks = args.count("ticks", 1024);
    cfg.slices = args.count<std::size_t>("slices", 64);
    cfg.domain_flows = args.count<std::size_t>("domain", 16);
    cfg.queue_cap = args.count<std::size_t>("queue-cap", 16);
    cfg.deadline = args.count("deadline", 0);
    cfg.collision_rate = args.number("collision-rate", 0.10);
    if (args.values.count("interp")) {
        const std::string v = args.text("interp", "off");
        if (v == "on")
            cfg.quantize_exact = false;
        else if (v == "off")
            cfg.quantize_exact = true;
        else
            throw UsageError("option --interp expects on or off, got '" + v + "'");
    }
    cfg.seed = args.count("seed", 1);
    sched::ContentionEngine engine(cfg, cache);

    if (args.values.count("verbose")) print_lattice_verbose(stdout, cc.mc, cc.base, cfg.threads);

    const sched::ContentionReport report = engine.run();
    std::printf("contention: %zu flows, offered load %.2f, %llu ticks, "
                "%.1f symbols/tick service\n",
                cfg.flows, cfg.offered_load, static_cast<unsigned long long>(cfg.ticks),
                engine.service_per_tick());
    std::printf("traffic: offered %llu, served %llu, dropped %llu (%.1f%%)\n",
                static_cast<unsigned long long>(report.total_offered),
                static_cast<unsigned long long>(report.total_served),
                static_cast<unsigned long long>(report.total_dropped),
                report.total_offered > 0
                    ? 100.0 * static_cast<double>(report.total_dropped) /
                          static_cast<double>(report.total_offered)
                    : 0.0);
    std::printf("effective channel (served-flow mean): P_d %.4f, P_i %.4f\n",
                report.mean_pd_eff, report.mean_pi_eff);
    std::printf("capacity: %.4f bits/use mean, %.4f bits/tick aggregate",
                report.mean_capacity, report.aggregate_capacity_per_tick);
    if (!cfg.quantize_exact)
        std::printf(" (+- %.4f certified)", report.aggregate_err_bound_per_tick);
    std::printf("\n");
    std::printf("capacity nodes: %zu distinct for %zu flows; cache hits %llu, "
                "misses %llu, entries %llu\n",
                report.distinct_nodes, cfg.flows,
                static_cast<unsigned long long>(report.cache.hits),
                static_cast<unsigned long long>(report.cache.misses),
                static_cast<unsigned long long>(report.cache.entries));
    if (cc.mc.target_sem > 0.0)
        std::printf("adaptive mc: %llu blocks across nodes (target sem %.4g, %s)\n",
                    static_cast<unsigned long long>(report.mc_blocks_spent),
                    cc.mc.target_sem,
                    report.mc_converged ? "all converged" : "some nodes hit block cap");
    return 0;
}

/// One tracker status line; flushed immediately (the mode is long-lived and
/// often watched through a pipe).
void print_track_line(const estimate::TrackerUpdate& u) {
    std::printf("window %llu %-8s P_d %.4f P_i %.4f cap %.4f +-%.4f bits/use "
                "served %.4f slope %+.5f resyncs %llu",
                static_cast<unsigned long long>(u.window),
                estimate::tracker_status_name(u.status), u.p_d, u.p_i, u.capacity,
                u.bound, u.served_rate, u.trend_slope,
                static_cast<unsigned long long>(u.resyncs));
    if (u.stale_windows > 0)
        std::printf(" stale %llu", static_cast<unsigned long long>(u.stale_windows));
    std::printf("\n");
    std::fflush(stdout);
}

int cmd_track(const Args& args) {
    args.reject_unknown({"sent", "received", "pd", "pi", "ps", "bits", "profile",
                         "storm-period", "storm-len", "drift-amp", "drift-period",
                         "stuck-period", "stuck-len", "stuck-symbol", "window",
                         "windows", "seed", "smoothing", "trend-window", "drift-slope",
                         "drift-sustain", "resync-jump", "ps-tolerance", "warmup",
                         "aimd-increase",
                         "aimd-beta", "headroom", "prefetch", "grid-step", "mi-block",
                         "mi-blocks", "checkpoint", "checkpoint-every", "resume",
                         "status-every"},
                        kMcFlags);
    // The cache nodes take the flag group; the threads are the prefetch
    // warm-up's workers.
    estimate::TrackerConfig tc;
    tc.threads = mc_flags_from(args, tc.cache.mc);
    tc.window_len = args.count<std::size_t>("window", 2000);
    tc.smoothing = args.number("smoothing", 0.3);
    tc.trend_window = args.count<std::size_t>("trend-window", 8);
    tc.drift_slope = args.number("drift-slope", 0.004);
    tc.drift_sustain = args.count<std::size_t>("drift-sustain", 3);
    tc.resync_jump = args.number("resync-jump", 0.05);
    tc.ps_tolerance = args.number("ps-tolerance", 0.1);
    tc.warmup_windows = args.count<std::size_t>("warmup", 2);
    tc.aimd_increase = args.number("aimd-increase", 0.02);
    tc.aimd_beta = args.number("aimd-beta", 0.85);
    tc.headroom = args.number("headroom", 0.95);
    tc.prefetch = args.count<std::size_t>("prefetch", 0);
    const unsigned bits = bits_from(args, kLatticeMaxBits);
    tc.cache.base.p_s = args.number("ps", 0.0);
    tc.cache.base.alphabet = 1U << bits;
    const double grid_step = args.number("grid-step", 0.02);
    if (!(grid_step > 0.0)) throw UsageError("option --grid-step expects a value > 0");
    tc.cache.grid.pd_step = grid_step;
    tc.cache.grid.pi_step = grid_step;
    tc.cache.mc.block_len = args.count<std::size_t>("mi-block", 48);
    tc.cache.mc.num_blocks = args.count<std::size_t>("mi-blocks", 8);
    if (args.values.count("verbose"))
        print_lattice_verbose(stderr, tc.cache.mc, tc.cache.base, tc.threads);

    // --resume FILE restores state (typed CheckpointIoError -> exit 1 on a
    // corrupt/mismatched file); otherwise start fresh.
    const std::string resume_path = args.text("resume", "");
    estimate::CapacityTracker tracker =
        resume_path.empty()
            ? estimate::CapacityTracker(tc)
            : estimate::CapacityTracker::resume(tc, util::Checkpoint::read_file(resume_path));

    // Source: a trace pair when --sent/--received are given, otherwise a
    // live simulated channel under the fault profile. The live channel's
    // flags mean nothing next to a trace pair (--ps stays: the cache's
    // base substitution rate reads it).
    std::unique_ptr<core::ChunkSource> source;
    if (args.values.count("sent") || args.values.count("received")) {
        for (const char* live : {"pd", "pi", "profile", "storm-period", "storm-len",
                                 "drift-amp", "drift-period", "stuck-period", "stuck-len",
                                 "stuck-symbol", "windows", "seed"})
            if (args.values.count(live))
                throw UsageError(std::string("option --") + live +
                                 " configures the live channel; it cannot be combined "
                                 "with --sent/--received");
        source = std::make_unique<estimate::TraceChunkSource>(
            estimate::read_trace_file(args.require("sent")),
            estimate::read_trace_file(args.require("received")), tc.window_len);
    } else {
        core::FaultStreamSource::Config sc;
        sc.params = params_from(args);
        sc.profile = fault_profile_from(args);
        sc.window_len = tc.window_len;
        sc.windows = args.count("windows", 0);
        sc.seed = args.count("seed", 1);
        source = std::make_unique<core::FaultStreamSource>(sc);
    }
    // A resumed tracker replays (and discards) the windows it has already
    // ingested, so the source lines up with the uninterrupted run and
    // subsequent outputs are bit-identical.
    source->skip(tracker.windows());

    const std::string checkpoint_path = args.text("checkpoint", "");
    const std::uint64_t checkpoint_every = args.count("checkpoint-every", 16);
    const std::uint64_t status_every = args.count("status-every", 1);

    // SIGINT/SIGTERM set a flag; the loop finishes the in-flight window,
    // flushes a final checkpoint + report, and exits 0.
    util::install_shutdown_flag();
    bool interrupted = false;
    while (!(interrupted = util::shutdown_requested())) {
        const std::optional<core::StreamChunk> chunk = source->next();
        if (!chunk) break;
        const estimate::TrackerUpdate u = tracker.ingest(*chunk);
        if (status_every != 0 && u.window % status_every == 0) print_track_line(u);
        if (!checkpoint_path.empty() && checkpoint_every != 0 &&
            tracker.windows() % checkpoint_every == 0)
            tracker.checkpoint().write_file(checkpoint_path);
    }
    if (!checkpoint_path.empty() && tracker.windows() > 0)
        tracker.checkpoint().write_file(checkpoint_path);

    const estimate::TrackerUpdate& last = tracker.last();
    std::printf("track %s after %llu windows: capacity %.4f +-%.4f bits/use, "
                "served %.4f, resyncs %llu, status %s\n",
                interrupted ? "interrupted (state flushed)" : "finished",
                static_cast<unsigned long long>(tracker.windows()), last.capacity,
                last.bound, last.served_rate,
                static_cast<unsigned long long>(last.resyncs),
                estimate::tracker_status_name(last.status));
    std::fflush(stdout);
    return 0;
}

void usage() {
    std::fputs(
        "usage: ccap <command> [options]\n"
        "  bounds    --pd X [--pi Y --ps Z --bits N --uses-per-sec R]\n"
        "  analyze   --sent FILE --received FILE [--bits N --uses-per-sec R\n"
        "            --estimator mle|align]\n"
        "  simulate  --sent FILE --received FILE [--pd X --pi Y --ps Z --bits N\n"
        "            --len L --seed S]\n"
        "  sweep     [--bits N --mi-blocks K --mi-block-len L --seed S MC]\n"
        "  mi        [--pd X --pi Y --ps Z --bits N --block L --blocks K\n"
        "            --seed S --markov-stay Q MC, without --mc-point-tile]\n"
        "  windows   --sent FILE --received FILE [--window W]\n"
        "  protocol  [--proto saw|counter|gbn --pd X --ps Z --bits N --len L\n"
        "            --seed S --p-ack-loss P --p-ack-corrupt Q --ack-delay D\n"
        "            --ack-jitter J --timeout T --backoff-mult M --backoff-cap C\n"
        "            --use-cap U --storm-period/--storm-len\n"
        "            --drift-amp/--drift-period\n"
        "            --stuck-period/--stuck-len/--stuck-symbol]\n"
        "  contend   [--flows F --load R --ticks T --slices S --domain D\n"
        "            --queue-cap Q --deadline A --collision-rate K --pd X --pi Y\n"
        "            --ps Z --grid-step G --mi-block L --mi-blocks K --seed S\n"
        "            --cache on|off --interp on|off MC]\n"
        "  track     [--sent FILE --received FILE | --pd X --pi Y --ps Z\n"
        "            --profile NAME --windows N --seed S] [--bits N --window W\n"
        "            --smoothing A --trend-window K --drift-slope D\n"
        "            --drift-sustain C --resync-jump J --ps-tolerance Z --warmup U\n"
        "            --aimd-increase I --aimd-beta B --headroom H --prefetch P\n"
        "            --grid-step G --mi-block L --mi-blocks K --checkpoint FILE\n"
        "            --checkpoint-every N --resume FILE --status-every N MC]\n"
        "MC, the Monte-Carlo flags: --threads T --simd P --verbose\n"
        "            --mc-target-sem S --mc-max-blocks M --mc-point-tile G|auto\n"
        "--threads 0 (default) uses every hardware thread; 1 runs serially.\n"
        "Monte-Carlo results are bit-identical for every --threads value.\n"
        "--bits N is 1..16, but 1..8 for the drift lattice (mi, track, and\n"
        "sweep with --mi-blocks), which holds one symbol per byte.\n"
        "--mc-point-tile G evaluates G grid points per lattice sweep from one\n"
        "shared variate tape (common random numbers: same per-point law,\n"
        "positively correlated neighbors; auto = a vector-width multiple).\n"
        "0 (default) keeps independent per-point streams bit for bit.\n"
        "--mc-target-sem S > 0 makes the Monte-Carlo estimators adaptive:\n"
        "blocks run in rounds until the standard error reaches S or\n"
        "--mc-max-blocks M is spent (0 = 64 rounds). Stopping reads only the\n"
        "deterministic fold, so results stay bit-identical across --threads;\n"
        "S = 0 keeps the fixed block count exactly.\n"
        "--simd scalar|neon|avx2|avx512 pins the lattice kernel path (same as\n"
        "the CCAP_SIMD env var; requests clamp down to what the CPU has).\n"
        "All paths are bit-identical. --verbose prints the\n"
        "resolved kernel path and Monte-Carlo tile shape before estimating\n"
        "(sweep and track print it to stderr).\n"
        "`track` runs until its stream ends, --windows N are ingested, or\n"
        "SIGINT/SIGTERM arrives — then flushes a final checkpoint + report\n"
        "and exits 0. --resume continues bit-identically from a checkpoint.\n",
        stderr);
    std::fprintf(stderr,
                 "--profile presets (protocol, track): %s.\n"
                 "Explicit --storm-*/--drift-*/--stuck-* flags override preset "
                 "fields.\n",
                 core::fault_profile_presets_help());
}

/// One line, for the exit-code-2 paths; the full block above is for `help`.
void usage_hint() {
    std::fputs(
        "usage: ccap {bounds|analyze|simulate|sweep|mi|windows|protocol|contend|track|"
        "help} [--option value ...]\n",
        stderr);
}

const char* trace_error_kind(estimate::TraceError kind) {
    switch (kind) {
        case estimate::TraceError::unreadable: return "unreadable";
        case estimate::TraceError::malformed: return "malformed";
        case estimate::TraceError::truncated: return "truncated";
    }
    return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    try {
        const Args args = parse_args(argc, argv, 2);
        if (command == "bounds") return cmd_bounds(args);
        if (command == "analyze") return cmd_analyze(args);
        if (command == "simulate") return cmd_simulate(args);
        if (command == "sweep") return cmd_sweep(args);
        if (command == "mi") return cmd_mi(args);
        if (command == "windows") return cmd_windows(args);
        if (command == "protocol") return cmd_protocol(args);
        if (command == "contend") return cmd_contend(args);
        if (command == "track") return cmd_track(args);
        std::fprintf(stderr, "ccap: unknown command '%s'\n", command.c_str());
        usage_hint();
        return 2;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "ccap %s: %s\n", command.c_str(), e.what());
        usage_hint();
        return 2;
    } catch (const estimate::TraceIoError& e) {
        std::fprintf(stderr, "ccap %s: trace %s: %s\n", command.c_str(),
                     trace_error_kind(e.kind()), e.what());
        return 1;
    } catch (const util::CheckpointIoError& e) {
        std::fprintf(stderr, "ccap %s: checkpoint %s: %s\n", command.c_str(),
                     util::checkpoint_error_name(e.kind()), e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ccap %s: %s\n", command.c_str(), e.what());
        return 1;
    }
}
