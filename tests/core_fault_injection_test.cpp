#include "ccap/core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>

#include "ccap/core/feedback_protocols.hpp"
#include "ccap/core/protocol_analysis.hpp"
#include "ccap/core/stream_source.hpp"
#include "ccap/util/thread_pool.hpp"

namespace {

using namespace ccap::core;

std::vector<std::uint32_t> message(std::size_t n, unsigned bits, std::uint64_t seed) {
    ccap::util::Rng rng(seed);
    std::vector<std::uint32_t> m(n);
    for (auto& s : m) s = static_cast<std::uint32_t>(rng.uniform_below(1ULL << bits));
    return m;
}

FeedbackLink perfect_link(std::uint64_t seed = 99) { return {FeedbackLinkParams{}, seed}; }

FeedbackLink delayed_link(std::uint64_t delay, std::uint64_t seed = 99) {
    FeedbackLinkParams p;
    p.delay = delay;
    return {p, seed};
}

// ---------------------------------------------------------------------------
// FaultStreamSource runs the faulty channel's step on its concrete inner
// channel: its chunks must be what FaultyChannel(DeletionInsertionChannel)
// gives through the virtual use(), seeded as the source seeds them.
// ---------------------------------------------------------------------------

/// `windows` chunks of a FaultStreamSource with `cfg`, rebuilt by driving
/// the decorator through SymbolChannel::use().
std::vector<StreamChunk> virtual_loop_chunks(const FaultStreamSource::Config& cfg,
                                             std::uint64_t windows, FaultStats& stats) {
    DeletionInsertionChannel inner(cfg.params, ccap::util::substream_seed(cfg.seed, 0xC11));
    FaultyChannel faulty(inner, cfg.profile, ccap::util::substream_seed(cfg.seed, 0xFA17));
    SymbolChannel& channel = faulty;
    std::vector<StreamChunk> out;
    for (std::uint64_t w = 0; w < windows; ++w) {
        StreamChunk chunk;
        chunk.index = w;
        ccap::util::Rng msg_rng(ccap::util::substream_seed(cfg.seed, w));
        for (std::size_t i = 0; i < cfg.window_len; ++i)
            chunk.sent.push_back(
                static_cast<std::uint32_t>(msg_rng.uniform_below(cfg.params.alphabet())));
        for (const std::uint32_t queued : chunk.sent) {
            for (;;) {
                const ChannelUseOutcome o = channel.use(queued);
                ++chunk.channel_uses;
                if (o.delivered) chunk.received.push_back(*o.delivered);
                if (o.consumed) break;
            }
        }
        out.push_back(std::move(chunk));
    }
    stats = faulty.stats();
    return out;
}

void expect_same_chunk(const StreamChunk& got, const StreamChunk& want, const std::string& what) {
    EXPECT_EQ(got.index, want.index) << what;
    EXPECT_EQ(got.sent, want.sent) << what;
    EXPECT_EQ(got.received, want.received) << what;
    EXPECT_EQ(got.channel_uses, want.channel_uses) << what;
}

TEST(FaultStreamSource, ChunksMatchTheVirtualChannelLoop) {
    for (const char* preset : {"none", "storms", "drift", "stuck"})
        for (const double p_i : {0.0, 0.15})
            for (const double p_s : {0.0, 0.05})
                for (const unsigned bits : {1U, 2U, 3U}) {
                    FaultStreamSource::Config cfg;
                    cfg.params = {0.1, p_i, p_s, bits};
                    ASSERT_TRUE(named_fault_profile(preset, cfg.profile));
                    cfg.window_len = 1500;
                    cfg.seed = 31 + bits;
                    const std::string what = std::string(preset) + " p_i " + std::to_string(p_i) +
                                             " p_s " + std::to_string(p_s) + " bits " +
                                             std::to_string(bits);
                    FaultStats want_stats;
                    const std::vector<StreamChunk> want = virtual_loop_chunks(cfg, 6, want_stats);
                    FaultStreamSource src(cfg);
                    std::uint64_t uses = 0;
                    for (const StreamChunk& w : want) {
                        const std::optional<StreamChunk> got = src.next();
                        ASSERT_TRUE(got.has_value()) << what;
                        expect_same_chunk(*got, w, what);
                        uses += w.channel_uses;
                    }
                    const FaultStats& got_stats = src.fault_stats();
                    EXPECT_EQ(got_stats.uses, uses) << what;
                    EXPECT_EQ(got_stats.uses, want_stats.uses) << what;
                    EXPECT_EQ(got_stats.storm_drops, want_stats.storm_drops) << what;
                    EXPECT_EQ(got_stats.drift_drops, want_stats.drift_drops) << what;
                    EXPECT_EQ(got_stats.stuck_overrides, want_stats.stuck_overrides) << what;
                }
}

// ---------------------------------------------------------------------------
// Golden digests of whole streams, recorded from the direct per-use
// cos() schedule: the drift table must hand back the same doubles on every
// pass over the period, and the direct fallback above its cap must too.
// ---------------------------------------------------------------------------

/// FNV-1a over little-endian 64-bit words.
struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFFU;
            h *= 1099511628211ULL;
        }
    }
};

/// Digest of every chunk (index, sent, received, channel_uses) of a
/// bounded stream, then its use clock and fault totals.
std::uint64_t stream_digest(const FaultStreamSource::Config& cfg) {
    FaultStreamSource src(cfg);
    Fnv d;
    while (const std::optional<StreamChunk> c = src.next()) {
        d.add(c->index);
        d.add(c->sent.size());
        for (const std::uint32_t s : c->sent) d.add(s);
        d.add(c->received.size());
        for (const std::uint32_t s : c->received) d.add(s);
        d.add(c->channel_uses);
    }
    // The pins fold the use clock twice: as the stream's total and as the
    // fault schedule's clock, which always agree.
    const FaultStats& st = src.fault_stats();
    for (const std::uint64_t v :
         {st.uses, st.uses, st.storm_drops, st.drift_drops, st.stuck_overrides})
        d.add(v);
    return d.h;
}

/// 25 binary windows of 2000 symbols at nominal P_d 0.1 under `profile`
/// (the perfbench `track` stream's shape).
FaultStreamSource::Config pinned_stream(const FaultProfile& profile, std::uint64_t seed) {
    FaultStreamSource::Config cfg;
    cfg.params = {0.1, 0.0, 0.0, 1};
    cfg.profile = profile;
    cfg.window_len = 2000;
    cfg.windows = 25;
    cfg.seed = seed;
    return cfg;
}

TEST(FaultStreamSource, DriftStreamsMatchPinnedDigests) {
    FaultProfile drift;
    ASSERT_TRUE(named_fault_profile("drift", drift));
    // The preset over about six of its 8192-use periods.
    EXPECT_EQ(stream_digest(pinned_stream(drift, 1)), 0xa918f693282af222ULL)
        << "drift preset";
    // A period past the table's cap runs the direct schedule.
    EXPECT_EQ(stream_digest(pinned_stream(FaultProfile::drifting(0.3, 20011), 2)),
              0x418c1124e43a0fb6ULL)
        << "period 20011";
    // Periods 1 and 3: every use on phase 0, and the table wrapping each
    // third use.
    EXPECT_EQ(stream_digest(pinned_stream(FaultProfile::drifting(0.4, 1), 3)),
              0x3b9bdb5a5130b4aeULL)
        << "period 1";
    EXPECT_EQ(stream_digest(pinned_stream(FaultProfile::drifting(0.4, 3), 4)),
              0x18289b57a7736fb2ULL)
        << "period 3";
    // Every component at once, over a 4-ary channel with insertions and
    // substitutions.
    FaultProfile mixed = FaultProfile::drifting(0.2, 5000);
    mixed.storm_period = 7000;
    mixed.storm_len = 300;
    mixed.stuck_period = 9000;
    mixed.stuck_len = 400;
    mixed.stuck_symbol = 3;
    FaultStreamSource::Config cfg = pinned_stream(mixed, 5);
    cfg.params = {0.1, 0.08, 0.03, 2};
    EXPECT_EQ(stream_digest(cfg), 0xfa50f9711ee17a8aULL) << "mixed";
}

TEST(FaultStreamSource, SkipThenNextMatchesUninterruptedStream) {
    for (const char* preset : {"none", "storms", "drift", "stuck"}) {
        FaultStreamSource::Config cfg;
        cfg.params = {0.15, 0.05, 0.02, 2};
        ASSERT_TRUE(named_fault_profile(preset, cfg.profile));
        cfg.window_len = 1200;
        cfg.windows = 9;
        cfg.seed = 5;
        FaultStreamSource full(cfg);
        std::vector<StreamChunk> chunks;
        while (auto c = full.next()) chunks.push_back(std::move(*c));
        ASSERT_EQ(chunks.size(), 9U) << preset;
        for (const std::uint64_t k : {0U, 1U, 4U, 8U}) {
            FaultStreamSource resumed(cfg);
            resumed.skip(k);
            for (std::uint64_t w = k; w < chunks.size(); ++w) {
                const std::optional<StreamChunk> got = resumed.next();
                ASSERT_TRUE(got.has_value()) << preset << " skip " << k;
                expect_same_chunk(*got, chunks[w], std::string(preset) + " skip " +
                                                       std::to_string(k));
            }
            EXPECT_FALSE(resumed.next().has_value()) << preset << " skip " << k;
            EXPECT_EQ(resumed.fault_stats().uses, full.fault_stats().uses)
                << preset << " skip " << k;
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-fault passthrough: decorating with a null profile must not change a
// single bit of any protocol run, for any seed.
// ---------------------------------------------------------------------------

TEST(FaultyChannel, NullProfileIsBitIdenticalAcrossSeeds) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL}) {
        const auto msg = message(3000, 2, seed);
        DeletionInsertionChannel plain({0.25, 0.1, 0.05, 2}, seed);
        DeletionInsertionChannel inner({0.25, 0.1, 0.05, 2}, seed);
        FaultyChannel faulty(inner, FaultProfile{}, seed ^ 0xF0F0);

        const ProtocolRun a = run_counter_protocol(plain, msg);
        const ProtocolRun b = run_counter_protocol(faulty, msg);
        EXPECT_EQ(a, b) << "seed=" << seed;
        EXPECT_EQ(faulty.stats().injected_faults(), 0U);
    }
}

TEST(FaultyChannel, NullProfileEventStreamMatchesUndecorated) {
    // Compare the per-use outcome stream itself, not just protocol totals.
    for (std::uint64_t seed : {3ULL, 11ULL, 2026ULL}) {
        DeletionInsertionChannel plain({0.2, 0.15, 0.1, 3}, seed);
        DeletionInsertionChannel inner({0.2, 0.15, 0.1, 3}, seed);
        FaultyChannel faulty(inner, FaultProfile{}, seed);
        for (std::uint32_t q = 0; q < 2000; ++q) {
            const auto a = plain.use(q & 7U);
            const auto b = faulty.use(q & 7U);
            ASSERT_EQ(a.kind, b.kind) << "seed=" << seed << " use=" << q;
            ASSERT_EQ(a.delivered, b.delivered);
            ASSERT_EQ(a.consumed, b.consumed);
        }
    }
}

TEST(HardenedProtocols, ZeroFaultBitIdenticalToPlain) {
    const HardenedOptions opts;
    for (std::uint64_t seed : {1ULL, 5ULL, 99ULL, 4242ULL}) {
        const auto msg = message(2000, 1, seed);
        {
            DeletionInsertionChannel a({0.3, 0.0, 0.0, 1}, seed);
            DeletionInsertionChannel b({0.3, 0.0, 0.0, 1}, seed);
            auto link = perfect_link(seed);
            EXPECT_EQ(run_stop_and_wait(a, msg),
                      run_hardened_stop_and_wait(b, msg, link, opts))
                << "stop-and-wait seed=" << seed;
        }
        {
            DeletionInsertionChannel a({0.2, 0.1, 0.05, 1}, seed);
            DeletionInsertionChannel b({0.2, 0.1, 0.05, 1}, seed);
            auto link = perfect_link(seed);
            EXPECT_EQ(run_counter_protocol(a, msg),
                      run_hardened_counter_protocol(b, msg, link, opts))
                << "counter seed=" << seed;
        }
    }
}

TEST(HardenedProtocols, ZeroFaultBitIdenticalToDelayedVariants) {
    HardenedOptions opts;
    opts.timeout = 16;  // must cover the link delay
    for (std::uint64_t delay : {1ULL, 4ULL, 9ULL}) {
        for (std::uint64_t seed : {2ULL, 17ULL, 301ULL}) {
            const auto msg = message(1500, 1, seed);
            {
                DeletionInsertionChannel a({0.25, 0.0, 0.0, 1}, seed);
                DeletionInsertionChannel b({0.25, 0.0, 0.0, 1}, seed);
                auto link = delayed_link(delay, seed);
                EXPECT_EQ(run_delayed_stop_and_wait(a, msg, delay),
                          run_hardened_stop_and_wait(b, msg, link, opts))
                    << "delayed SAW delay=" << delay << " seed=" << seed;
            }
            {
                DeletionInsertionChannel a({0.25, 0.0, 0.0, 1}, seed);
                DeletionInsertionChannel b({0.25, 0.0, 0.0, 1}, seed);
                auto link = delayed_link(delay, seed);
                EXPECT_EQ(run_go_back_n(a, msg, delay),
                          run_hardened_go_back_n(b, msg, link, opts))
                    << "go-back-N delay=" << delay << " seed=" << seed;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault schedules: deterministic replay and per-component behavior.
// ---------------------------------------------------------------------------

TEST(FaultyChannel, ReplayedScheduleIsDeterministic) {
    const auto profile = [] {
        FaultProfile p = FaultProfile::storms(50, 5);
        p.drift_amplitude = 0.3;
        p.drift_period = 200;
        p.stuck_period = 97;
        p.stuck_len = 3;
        return p;
    }();
    const auto msg = message(4000, 2, 8);

    auto run_once = [&] {
        DeletionInsertionChannel inner({0.1, 0.05, 0.0, 2}, 8);
        FaultyChannel faulty(inner, profile, 77);
        const ProtocolRun run = run_counter_protocol(faulty, msg);
        return std::tuple{run, faulty.stats().storm_drops, faulty.stats().drift_drops,
                          faulty.stats().stuck_overrides};
    };
    const auto first = run_once();
    const auto second = run_once();
    EXPECT_EQ(std::get<0>(first), std::get<0>(second));
    EXPECT_EQ(std::get<1>(first), std::get<1>(second));
    EXPECT_EQ(std::get<2>(first), std::get<2>(second));
    EXPECT_EQ(std::get<3>(first), std::get<3>(second));
    EXPECT_GT(std::get<1>(first) + std::get<2>(first) + std::get<3>(first), 0U);
}

TEST(FaultyChannel, StormWindowsBlackOutDeliveries) {
    // A clean inner channel delivers every use; storms must blank exactly
    // the scheduled windows.
    DeletionInsertionChannel inner({0.0, 0.0, 0.0, 1}, 1);
    FaultyChannel faulty(inner, FaultProfile::storms(10, 3), 1);
    for (std::uint64_t t = 0; t < 100; ++t) {
        const auto out = faulty.use(1);
        const bool in_storm = (t % 10) < 3;
        EXPECT_EQ(out.delivered.has_value(), !in_storm) << "t=" << t;
        EXPECT_TRUE(out.consumed);  // sender-side semantics untouched
    }
    // Every drop was a storm's, none another fault's.
    EXPECT_EQ(faulty.stats().storm_drops, 30U);
    EXPECT_EQ(faulty.stats().injected_faults(), 30U);
}

TEST(FaultyChannel, StuckWindowsForceTheStuckSymbol) {
    DeletionInsertionChannel inner({0.0, 0.0, 0.0, 2}, 2);
    FaultyChannel faulty(inner, FaultProfile::stuck_at(8, 4, 3), 2);
    for (std::uint64_t t = 0; t < 64; ++t) {
        const auto out = faulty.use(static_cast<std::uint32_t>(t % 4));
        ASSERT_TRUE(out.delivered.has_value());
        if ((t % 8) < 4)
            EXPECT_EQ(*out.delivered, 3U) << "t=" << t;
        else
            EXPECT_EQ(*out.delivered, static_cast<std::uint32_t>(t % 4)) << "t=" << t;
    }
    // 32 uses in stuck windows, a quarter of which already queued symbol 3.
    EXPECT_EQ(faulty.stats().stuck_overrides, 24U);
}

TEST(FaultyChannel, DriftAddsDeletionsMidPeriod) {
    DeletionInsertionChannel inner({0.0, 0.0, 0.0, 1}, 3);
    FaultyChannel faulty(inner, FaultProfile::drifting(0.5, 1000), 3);
    std::uint64_t delivered = 0;
    for (std::uint64_t t = 0; t < 10000; ++t)
        if (faulty.use(1).delivered) ++delivered;
    // Mean extra deletion probability over a full period is amplitude/2.
    EXPECT_GT(faulty.stats().drift_drops, 1500U);
    EXPECT_LT(faulty.stats().drift_drops, 3500U);
    EXPECT_EQ(delivered + faulty.stats().drift_drops, 10000U);
}

TEST(FaultProfile, ValidateRejectsMalformedSchedules) {
    FaultProfile bad;
    bad.drift_amplitude = 1.5;
    EXPECT_THROW(bad.validate(), std::domain_error);
    bad.drift_amplitude = std::nan("");
    EXPECT_THROW(bad.validate(), std::domain_error);
    bad = FaultProfile{};
    bad.storm_len = 5;  // active storms need a period
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = FaultProfile{};
    bad.storm_period = 4;
    bad.storm_len = 5;  // window longer than period
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    DeletionInsertionChannel inner({0.0, 0.0, 0.0, 1}, 1);
    EXPECT_THROW((void)FaultyChannel(inner, bad, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hardened behavior under real faults.
// ---------------------------------------------------------------------------

TEST(HardenedStopAndWait, AcceptanceRateMatchesTheoryUnderAckLoss) {
    // ISSUE acceptance: ack loss 0.2, finite timeout, ~1e5-use seeded run:
    // still reliable, measured rate within 5% of the closed form.
    const DiChannelParams p{0.2, 0.0, 0.0, 1};
    FeedbackLinkParams lp;
    lp.p_loss = 0.2;
    lp.delay = 2;
    HardenedOptions opts;
    opts.timeout = 6;
    const double predicted = hardened_stop_and_wait_rate(p, lp, opts);

    DeletionInsertionChannel ch(p, 2026);
    FeedbackLink link(lp, 515);
    const auto msg = message(20000, 1, 2026);  // ~1e5 uses at this loss/delay
    const ProtocolRun run = run_hardened_stop_and_wait(ch, msg, link, opts);
    ASSERT_TRUE(run.reliable);
    EXPECT_GT(run.channel_uses, 90000U);
    EXPECT_GT(run.timeouts, 0U);
    EXPECT_GT(run.resync_events, 0U);
    const double measured =
        static_cast<double>(msg.size()) / static_cast<double>(run.channel_uses);
    EXPECT_NEAR(measured / predicted, 1.0, 0.05);
    EXPECT_NEAR(run.rate_gap(predicted, 1), 0.0, 0.05 * predicted);
}

TEST(HardenedStopAndWait, TheoryCollapsesToDelayedFormAsLossVanishes) {
    const DiChannelParams p{0.3, 0.0, 0.0, 2};
    for (std::uint64_t delay : {0ULL, 3ULL}) {
        FeedbackLinkParams lp;
        lp.p_loss = 1e-9;
        lp.delay = delay;
        HardenedOptions opts;
        opts.timeout = delay + 4;
        EXPECT_NEAR(hardened_stop_and_wait_rate(p, lp, opts),
                    delayed_stop_and_wait_rate(p, delay), 1e-6)
            << "delay=" << delay;
    }
}

TEST(HardenedStopAndWait, SurvivesCorruptedAcks) {
    // Corrupted ACK frames are CRC-detected and never misread as ACKs, so
    // the run stays reliable; every corruption shows up in the counters.
    const DiChannelParams p{0.1, 0.0, 0.0, 1};
    DeletionInsertionChannel ch(p, 7);
    FeedbackLinkParams lp;
    lp.p_corrupt = 0.3;
    FeedbackLink link(lp, 8);
    const auto msg = message(4000, 1, 7);
    const ProtocolRun run = run_hardened_stop_and_wait(ch, msg, link, HardenedOptions{});
    EXPECT_TRUE(run.reliable);
    EXPECT_GT(run.acks_corrupted, 0U);
    EXPECT_EQ(run.acks_lost, 0U);
    EXPECT_GT(run.retransmissions, run.acks_corrupted / 2);
}

TEST(HardenedStopAndWait, BackoffEscalatesTimeoutCost) {
    // Same loss pattern, bigger backoff multiplier => strictly more idle
    // uses spent waiting.
    const DiChannelParams p{0.1, 0.0, 0.0, 1};
    FeedbackLinkParams lp;
    lp.p_loss = 0.4;
    const auto msg = message(3000, 1, 9);
    HardenedOptions flat;
    flat.timeout = 4;
    flat.backoff_mult = 1;
    flat.backoff_cap = 4;
    HardenedOptions doubling;
    doubling.timeout = 4;
    doubling.backoff_mult = 2;
    doubling.backoff_cap = 64;
    DeletionInsertionChannel c1(p, 9);
    FeedbackLink l1(lp, 10);
    DeletionInsertionChannel c2(p, 9);
    FeedbackLink l2(lp, 10);
    const ProtocolRun a = run_hardened_stop_and_wait(c1, msg, l1, flat);
    const ProtocolRun b = run_hardened_stop_and_wait(c2, msg, l2, doubling);
    EXPECT_TRUE(a.reliable);
    EXPECT_TRUE(b.reliable);
    EXPECT_EQ(a.timeouts, b.timeouts);  // identical loss pattern (same seeds)
    EXPECT_GT(b.channel_uses, a.channel_uses);
    EXPECT_GT(hardened_stop_and_wait_rate(p, lp, flat),
              hardened_stop_and_wait_rate(p, lp, doubling));
}

TEST(HardenedCounter, ResyncsAfterLostAndCorruptedCounts) {
    const DiChannelParams p{0.15, 0.1, 0.0, 2};
    DeletionInsertionChannel ch(p, 21);
    FeedbackLinkParams lp;
    lp.p_loss = 0.2;
    lp.p_corrupt = 0.1;
    FeedbackLink link(lp, 22);
    const auto msg = message(5000, 2, 21);
    const ProtocolRun run = run_hardened_counter_protocol(ch, msg, link, HardenedOptions{});
    EXPECT_EQ(run.received.size(), msg.size());
    EXPECT_GT(run.resync_events, 0U);
    EXPECT_GT(run.acks_lost, 0U);
    EXPECT_GT(run.acks_corrupted, 0U);
    // Stale counts cost extra garbage/errors but the run still terminates
    // with a full-length stream — degradation, not collapse.
    EXPECT_LT(run.symbol_errors, msg.size() / 2);
}

TEST(HardenedGoBackN, DeliversReliablyDespiteLostReports) {
    const DiChannelParams p{0.2, 0.0, 0.0, 1};
    for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
        DeletionInsertionChannel ch(p, seed);
        FeedbackLinkParams lp;
        lp.p_loss = 0.25;
        lp.delay = 3;
        FeedbackLink link(lp, seed ^ 0xAB);
        const auto msg = message(3000, 1, seed);
        const ProtocolRun run = run_hardened_go_back_n(ch, msg, link, HardenedOptions{});
        EXPECT_TRUE(run.reliable) << "seed=" << seed;
        EXPECT_GT(run.acks_lost, 0U);
    }
}

TEST(HardenedProtocols, ChannelUseCapStopsPathologicalRuns) {
    // A link that loses everything can never complete; the cap turns an
    // infinite loop into a clean unreliable result.
    const DiChannelParams p{0.1, 0.0, 0.0, 1};
    DeletionInsertionChannel ch(p, 41);
    FeedbackLinkParams lp;
    lp.p_loss = 1.0;
    FeedbackLink link(lp, 42);
    HardenedOptions opts;
    opts.channel_use_cap = 5000;
    const auto msg = message(100, 1, 41);
    const ProtocolRun run = run_hardened_stop_and_wait(ch, msg, link, opts);
    EXPECT_FALSE(run.reliable);
    EXPECT_GE(run.symbol_errors, msg.size() - run.received.size());

    // Go-back-N survives even total report loss: its deadlock breaker
    // restarts the window from the last known count, so in-order deliveries
    // still accumulate — it completes reliably instead of hitting the cap.
    DeletionInsertionChannel ch2(p, 41);
    FeedbackLink link2(lp, 42);
    const ProtocolRun gbn = run_hardened_go_back_n(ch2, msg, link2, opts);
    EXPECT_TRUE(gbn.reliable);
    EXPECT_LE(gbn.channel_uses, opts.channel_use_cap);
}

TEST(HardenedProtocols, StormsDegradeRateNotReliability) {
    const DiChannelParams p{0.1, 0.0, 0.0, 1};
    DeletionInsertionChannel inner({0.1, 0.0, 0.0, 1}, 51);
    FaultyChannel faulty(inner, FaultProfile::storms(40, 10), 52);
    auto link = perfect_link(53);
    const auto msg = message(4000, 1, 51);
    const ProtocolRun run = run_hardened_stop_and_wait(faulty, msg, link, HardenedOptions{});
    EXPECT_TRUE(run.reliable);
    EXPECT_GT(faulty.stats().storm_drops, 0U);
    // Rate sits below the fault-free closed form by roughly the storm duty
    // cycle; it must still be positive and the gap must be visible.
    const double clean = delayed_stop_and_wait_rate(p, 0);
    EXPECT_GT(run.measured_info_rate(1), 0.0);
    EXPECT_GT(run.rate_gap(clean, 1), 0.0);
}

// ---------------------------------------------------------------------------
// Concurrency: independent fault-injected runs on a shared pool must be
// bit-identical to their serial counterparts (exercised under TSan in
// tier-1; see scripts/tier1.sh).
// ---------------------------------------------------------------------------

TEST(FaultInjectionParallel, IndependentRunsMatchSerialResults) {
    constexpr std::size_t kRuns = 8;
    std::vector<ProtocolRun> serial(kRuns);
    auto run_one = [](std::size_t i) {
        const std::uint64_t seed = 1000 + i;
        DeletionInsertionChannel inner({0.2, 0.0, 0.0, 1}, seed);
        FaultyChannel faulty(inner, FaultProfile::storms(30, 5), seed ^ 0x11);
        FeedbackLinkParams lp;
        lp.p_loss = 0.1;
        FeedbackLink link(lp, seed ^ 0x22);
        const auto msg = message(1000, 1, seed);
        return run_hardened_stop_and_wait(faulty, msg, link, HardenedOptions{});
    };
    for (std::size_t i = 0; i < kRuns; ++i) serial[i] = run_one(i);

    ccap::util::ThreadPool pool(4);
    std::vector<ProtocolRun> parallel(kRuns);
    std::atomic<int> mismatches{0};
    ccap::util::parallel_for(pool, kRuns, [&](std::size_t i) {
        parallel[i] = run_one(i);
        if (!(parallel[i] == serial[i])) mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0);
    for (std::size_t i = 0; i < kRuns; ++i) EXPECT_EQ(parallel[i], serial[i]) << i;
}

}  // namespace
