// E11 — microbenchmarks of the numerical engines (google-benchmark): the
// Blahut-Arimoto solver, the drift-lattice forward pass, trace alignment,
// parameter MLE building blocks, and the protocol simulators. These bound
// the cost of every reproduction harness in E1-E10.

#include <benchmark/benchmark.h>

#include "ccap/coding/watermark.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/estimate/alignment.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/info/blahut_arimoto.hpp"
#include "ccap/info/deletion_bounds.hpp"

namespace {

using namespace ccap;

void BM_BlahutArimotoBsc(benchmark::State& state) {
    const auto channel = info::make_bsc(0.11);
    for (auto _ : state) benchmark::DoNotOptimize(info::blahut_arimoto(channel).capacity);
}
BENCHMARK(BM_BlahutArimotoBsc);

void BM_BlahutArimotoMary(benchmark::State& state) {
    const auto channel = info::make_mary_symmetric(static_cast<unsigned>(state.range(0)), 0.1);
    for (auto _ : state) benchmark::DoNotOptimize(info::blahut_arimoto(channel).capacity);
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BlahutArimotoMary)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_DriftLikelihood(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    info::DriftParams dp{0.05, 0.05, 0.01, 2, 32, 8};
    const info::DriftHmm hmm(dp);
    util::Rng rng(1);
    std::vector<std::uint8_t> tx(n);
    for (auto& b : tx) b = static_cast<std::uint8_t>(rng.next() & 1);
    const auto rx = info::simulate_drift_channel(tx, dp, rng);
    for (auto _ : state) benchmark::DoNotOptimize(hmm.log2_likelihood(tx, rx));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DriftLikelihood)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_DriftPosteriors(benchmark::State& state) {
    info::DriftParams dp{0.05, 0.05, 0.01, 2, 32, 8};
    const info::DriftHmm hmm(dp);
    util::Rng rng(2);
    std::vector<std::uint8_t> tx(512);
    for (auto& b : tx) b = static_cast<std::uint8_t>(rng.next() & 1);
    const auto rx = info::simulate_drift_channel(tx, dp, rng);
    const util::Matrix priors(512, 2, 0.5);
    for (auto _ : state) benchmark::DoNotOptimize(hmm.posteriors(priors, rx));
}
BENCHMARK(BM_DriftPosteriors);

void BM_Alignment(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(3);
    std::vector<std::uint32_t> a(n), b(n);
    for (auto& s : a) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    b = a;
    for (auto& s : b)
        if (rng.bernoulli(0.05)) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    for (auto _ : state) benchmark::DoNotOptimize(estimate::align(a, b).distance);
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alignment)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

void BM_CounterProtocol(benchmark::State& state) {
    const core::DiChannelParams p{0.1, 0.1, 0.0, 1};
    util::Rng rng(4);
    std::vector<std::uint32_t> msg(10000);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    for (auto _ : state) {
        core::DeletionInsertionChannel ch(p, 5);
        benchmark::DoNotOptimize(core::run_counter_protocol(ch, msg).channel_uses);
    }
}
BENCHMARK(BM_CounterProtocol);

void BM_WatermarkDecode(benchmark::State& state) {
    coding::WatermarkParams wp;
    wp.bits_per_symbol = 4;
    wp.chunk_bits = 6;
    wp.num_symbols = 48;
    wp.num_checks = 16;
    const coding::WatermarkCode code(wp);
    const info::DriftParams dp{0.01, 0.01, 0.0, 2, 32, 8};
    util::Rng rng(6);
    const auto info_bits = coding::random_bits(code.info_bits(), 7);
    const auto rx = info::simulate_drift_channel(code.encode(info_bits), dp, rng);
    for (auto _ : state) benchmark::DoNotOptimize(code.decode(rx, dp).ldpc_converged);
}
BENCHMARK(BM_WatermarkDecode);

void BM_ParamMle(benchmark::State& state) {
    const core::DiChannelParams truth{0.1, 0.05, 0.0, 2};
    core::DeletionInsertionChannel ch(truth, 8);
    util::Rng rng(9);
    std::vector<std::uint32_t> sent(2000);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    const auto t = ch.transduce(sent);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            estimate::estimate_params_mle(sent, t.output, 2).p_d.value);
}
BENCHMARK(BM_ParamMle);

void BM_IidMiRate(benchmark::State& state) {
    info::DriftParams dp;
    dp.p_d = 0.1;
    for (auto _ : state) {
        util::Rng rng(10);
        benchmark::DoNotOptimize(info::iid_mutual_information_rate(dp, {96, 4}, rng).rate);
    }
}
BENCHMARK(BM_IidMiRate);

}  // namespace
