// `analyze`: estimate::read_trace_file twice, then estimate::analyze_traces
// with the default estimator (the `ccap analyze` path), on trace pairs the
// benchmark generates from the seed through a Definition-1 channel with
// injected mixed (P_d, P_i, P_s). One closed-loop request is one pair read
// and analyzed; a pass covers every pair once.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/estimate/analyzer.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/estimate/trace_io.hpp"
#include "ccap/info/batch_lattice.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccap::estimate::AnalysisReport;
using ccap::estimate::AnalyzerConfig;
using ccap::estimate::ParamEstimate;

constexpr std::size_t kPairs = 8;
constexpr std::size_t kSentLen = 4096;
constexpr double kPd = 0.10, kPi = 0.05, kPs = 0.02;

struct TracePair {
    std::string sent, received;
    std::size_t sent_len = 0;
};

/// Write trace pair `k` (seed substream k) as `ccap simulate` would, into
/// file slot k % kPairs; returns its paths.
TracePair write_pair(const Options& opt, std::uint64_t k) {
    const ccap::core::DiChannelParams p{kPd, kPi, kPs, 1};
    const std::uint64_t seed = ccap::util::substream_seed(opt.seed, k);
    ccap::util::Rng rng(seed);
    std::vector<std::uint32_t> sent(kSentLen);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    ccap::core::DeletionInsertionChannel channel(p, seed ^ 0xC11);
    const auto t = channel.transduce(sent);
    const std::string slot = std::to_string(k % kPairs) + ".txt";
    TracePair tp;
    tp.sent = opt.workdir + "/analyze_sent_" + slot;
    tp.received = opt.workdir + "/analyze_received_" + slot;
    tp.sent_len = sent.size();
    ccap::estimate::write_trace_file(tp.sent, sent, "sent trace, " + p.to_string());
    ccap::estimate::write_trace_file(tp.received, t.output, "received trace, " + p.to_string());
    return tp;
}

/// Write the first kPairs seeded trace pairs; returns their paths.
std::vector<TracePair> write_pairs(const Options& opt) {
    std::filesystem::create_directories(opt.workdir);
    std::vector<TracePair> pairs;
    for (std::size_t k = 0; k < kPairs; ++k) pairs.push_back(write_pair(opt, k));
    return pairs;
}

std::uint64_t digest_of(const ParamEstimate& e) {
    Digest d;
    for (const auto* r : {&e.p_d, &e.p_i, &e.p_s}) {
        d.add(r->value);
        d.add(r->ci_low);
        d.add(r->ci_high);
    }
    d.add_u64(e.channel_uses);
    d.add_u64(e.blocks);
    return d.value();
}

bool finite_estimate(const ParamEstimate& e) {
    for (const auto* r : {&e.p_d, &e.p_i, &e.p_s})
        if (!std::isfinite(r->value) || !std::isfinite(r->ci_low) || !std::isfinite(r->ci_high))
            return false;
    return true;
}

double param_error(const ParamEstimate& e) {
    return std::max({std::fabs(e.p_d.value - kPd), std::fabs(e.p_i.value - kPi),
                     std::fabs(e.p_s.value - kPs)});
}

AnalysisReport fit(const TracePair& tp) {
    const auto sent = ccap::estimate::read_trace_file(tp.sent);
    const auto received = ccap::estimate::read_trace_file(tp.received);
    return ccap::estimate::analyze_traces(sent, received, AnalyzerConfig{});
}

}  // namespace

void run_analyze(const Options& opt, RunResult& r) {
    LoopStats s;
    // Set-up: generate the seeded trace pairs, write them to disk and read
    // them back once (the reader's warm-up).
    std::vector<double> setups;
    std::vector<TracePair> pairs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Stamp t0;
        pairs = write_pairs(opt);
        for (const TracePair& tp : pairs)
            if (ccap::estimate::read_trace_file(tp.sent).size() != tp.sent_len)
                r.fail("analyze: trace read back short");
        setups.push_back(t0.cpu_s());
    }
    s.setup_cpu_s = median(setups);

    // Request k fits pair k (seed substream k), so one run averages the
    // data-dependent search cost over many pairs. Pairs past the first
    // kPairs are written, untimed, just before their request.
    std::vector<std::uint64_t> digests;
    double err = 0.0;
    std::uint64_t k = 0;
    Calibrator cal(1);
    const Stamp loop0;
    do {
        cal.sample();
        const TracePair tp = k < kPairs ? pairs[k] : write_pair(opt, k);
        ++k;
        ++r.attempted;
        const Stamp t0;
        try {
            const AnalysisReport rep = fit(tp);
            s.add_op(t0);
            digests.push_back(digest_of(rep.params));
            err += param_error(rep.params);
            if (finite_estimate(rep.params)) {
                s.work += static_cast<double>(tp.sent_len);
            } else {
                ++r.failed;
                r.fail("analyze: non-finite parameter estimate");
            }
        } catch (const std::exception& e) {
            ++r.failed;
            r.fail(std::string("analyze threw: ") + e.what());
            digests.push_back(0);
        }
    } while (loop0.wall_s() < opt.seconds);

    // Reference: fresh fits of the first and last pairs reproduce the
    // loop's bits.
    for (std::uint64_t i : {std::uint64_t{0}, k - 1})
        if (digest_of(fit(write_pair(opt, i)).params) != digests[i]) {
            ++r.failed;
            r.fail("analyze digest differs from the reference fit");
        }
    report_loop(s, cal, r);
    std::printf("analyze fit_sym_per_s %.4f sym/s\n", s.work / s.loop_s);
    std::printf("analyze fit_param_err %.6f (max |estimate - injected| over P_d, P_i, P_s, "
                "mean of %llu pairs)\n",
                err / static_cast<double>(k), static_cast<unsigned long long>(k));
}

void trace_analyze(const Options& opt, RunResult& r) {
    const std::vector<TracePair> pairs = write_pairs(opt);

    // Untraced pass, for the tracing overhead and the reference digests.
    std::vector<std::uint64_t> ref(kPairs);
    const auto tu = Clock::now();
    for (std::size_t k = 0; k < kPairs; ++k) ref[k] = digest_of(fit(pairs[k]).params);
    const double untraced = seconds_since(tu);

    // Traced pass: spans around the two reads and analyze_traces; the
    // alignment estimator and the report stage are reached only inside
    // analyze_traces and are replayed on the same inputs (estimate_params,
    // then analyze_params on the fitted parameters). The rest of the
    // analyze span is the likelihood search.
    SpanLog log;
    Stopwatch wall;
    const AnalyzerConfig cfg{};
    double sent_total = 0.0, err = 0.0;
    for (std::size_t k = 0; k < kPairs; ++k) {
        wall.start();
        auto t0 = Clock::now();
        const auto sent = ccap::estimate::read_trace_file(pairs[k].sent);
        const auto received = ccap::estimate::read_trace_file(pairs[k].received);
        log.add("io", seconds_since(t0));
        t0 = Clock::now();
        const AnalysisReport rep = ccap::estimate::analyze_traces(sent, received, cfg);
        const int analyze = log.add("analyze", seconds_since(t0));
        wall.stop();
        ++r.attempted;
        if (digest_of(rep.params) != ref[k] || !finite_estimate(rep.params)) {
            ++r.failed;
            r.fail("traced analyze fit differs from the untraced one");
        }
        err += param_error(rep.params);
        sent_total += static_cast<double>(sent.size());

        t0 = Clock::now();
        const ParamEstimate align = ccap::estimate::estimate_params(sent, received, cfg.estimator);
        log.add("align", seconds_since(t0), analyze);
        if (!finite_estimate(align)) r.fail("analyze: alignment replay is not finite");
        t0 = Clock::now();
        const AnalysisReport again = ccap::estimate::analyze_params(
            rep.params.params(cfg.bits_per_symbol), cfg.uses_per_second);
        log.add("report", seconds_since(t0), analyze);
        if (again.degraded_bits_per_use != rep.degraded_bits_per_use)
            r.fail("analyze: report replay differs");
    }
    const double search = log.self_seconds("analyze");
    report_shares("analyze",
                  {{"io", log.total_seconds("io")},
                   {"align", log.total_seconds("align")},
                   {"search", search},
                   {"report", log.total_seconds("report")}},
                  wall.seconds(), wall.seconds() / untraced - 1.0, r);
    r.metrics.set("estimate.align.msym_per_s.analyze",
                  sent_total / log.total_seconds("align") / 1e6, "Msym/s");
    r.metrics.set("analyze.fit_param_err", err / static_cast<double>(kPairs), "abs");

    // One likelihood pass over the first pair's blocks, as the MLE search
    // evaluates them: the blockwise end-free split (estimate_window gives
    // each block's received extent) and a drift clamp of max |drift| + 32.
    const auto sent = ccap::estimate::read_trace_file(pairs[0].sent);
    const auto received = ccap::estimate::read_trace_file(pairs[0].received);
    std::vector<std::vector<std::uint8_t>> tx, rx;
    int max_diff = 1;
    for (std::size_t sp = 0, rp = 0, used = 0; sp < sent.size() && used < 2048;) {
        const std::size_t n = std::min<std::size_t>(256, sent.size() - sp);
        const std::size_t w = std::min(n + n / 2 + 32, received.size() - rp);
        const std::size_t consumed =
            ccap::estimate::estimate_window(std::span(sent).subspan(sp, n),
                                            std::span(received).subspan(rp, w))
                .received_consumed;
        tx.emplace_back(sent.begin() + static_cast<std::ptrdiff_t>(sp),
                        sent.begin() + static_cast<std::ptrdiff_t>(sp + n));
        rx.emplace_back(received.begin() + static_cast<std::ptrdiff_t>(rp),
                        received.begin() + static_cast<std::ptrdiff_t>(rp + consumed));
        max_diff = std::max(max_diff, static_cast<int>(std::llabs(
                                          static_cast<long long>(consumed) -
                                          static_cast<long long>(n))));
        sp += n;
        rp += consumed;
        used += n;
    }
    ccap::info::DriftParams dp;
    dp.p_d = kPd;
    dp.p_i = kPi;
    dp.p_s = kPs;
    dp.alphabet = 2;
    dp.max_drift = max_diff + 32;
    dp.max_insert_run = 10;
    const ccap::info::DriftHmm hmm(dp);
    ccap::info::LatticeWorkspace ws;
    std::vector<double> scalar_t, batch_t;
    bool same = true;
    const auto tall = Clock::now();
    while (scalar_t.size() < 5 || seconds_since(tall) < 0.5) {
        auto t0 = Clock::now();
        std::vector<double> a;
        for (std::size_t b = 0; b < tx.size(); ++b) a.push_back(hmm.log2_likelihood(tx[b], rx[b]));
        scalar_t.push_back(seconds_since(t0));
        t0 = Clock::now();
        std::vector<double> c;
        for (std::size_t b = 0; b < tx.size(); ++b) {
            const ccap::info::DriftHmm::SymbolSpan t1[1] = {tx[b]};
            const ccap::info::DriftHmm::SymbolSpan r1[1] = {rx[b]};
            c.push_back(hmm.log2_likelihood_batch(t1, r1, ws)[0].log2_evidence);
        }
        batch_t.push_back(seconds_since(t0));
        same = same && a == c;
    }
    if (!same) r.fail("analyze: batch engine at one lane differs from the scalar engine");
    r.metrics.set("check.b1_bit_identity", same ? 1.0 : 0.0, "bool");
    const double pass_s = median(scalar_t);
    r.metrics.set("info.lattice.scalar_pass_s", pass_s, "s");
    r.metrics.set("info.lattice.b1_over_scalar", pass_s / median(batch_t), "x");
    r.metrics.set("estimate.search.pass_equiv", search / static_cast<double>(kPairs) / pass_s,
                  "passes");
}

}  // namespace perfbench
