// Online capacity tracker (estimate/capacity_tracker.hpp): null-profile
// streams reproduce the offline batch estimate bit for bit, outputs are
// invariant in the prefetch thread count (the TSan-gated TrackerParallel
// suite), checkpoints resume bit-identically, drift triggers resync, AIMD
// backs the served rate off, and pathological inputs degrade explicitly
// without ever leaking a NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/capacity_tracker.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/util/checkpoint_io.hpp"

namespace {

using ccap::core::FaultProfile;
using ccap::core::FaultStreamSource;
using ccap::core::StreamChunk;
using ccap::estimate::CapacityTracker;
using ccap::estimate::TraceChunkSource;
using ccap::estimate::TrackerConfig;
using ccap::estimate::TrackerStatus;
using ccap::estimate::TrackerUpdate;

/// Small-MC tracker config shared by the suite: coarse grid, cheap nodes.
TrackerConfig small_config() {
    TrackerConfig tc;
    tc.window_len = 1500;
    tc.cache.grid.pd_step = 0.05;
    tc.cache.grid.pi_step = 0.05;
    tc.cache.base.alphabet = 2;
    tc.cache.mc.block_len = 32;
    tc.cache.mc.num_blocks = 6;
    return tc;
}

FaultStreamSource::Config source_config(double pd, FaultProfile profile,
                                        std::size_t window_len,
                                        std::uint64_t windows, std::uint64_t seed) {
    FaultStreamSource::Config sc;
    sc.params.p_d = pd;
    sc.params.bits_per_symbol = 1;
    sc.profile = std::move(profile);
    sc.window_len = window_len;
    sc.windows = windows;
    sc.seed = seed;
    return sc;
}

/// The no-NaN contract: every double field of every update is finite.
void expect_all_finite(const TrackerUpdate& u) {
    EXPECT_TRUE(std::isfinite(u.p_d)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.p_i)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.p_s)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.window_capacity)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.window_sem)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.capacity)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.sem)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.bound)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.trend_slope)) << "window " << u.window;
    EXPECT_TRUE(std::isfinite(u.served_rate)) << "window " << u.window;
}

TEST(TrackerConfigTest, ValidationRejectsBadKnobs) {
    TrackerConfig tc = small_config();
    tc.smoothing = 0.0;
    EXPECT_THROW(tc.validate(), std::domain_error);
    tc = small_config();
    tc.smoothing = std::nan("");
    EXPECT_THROW(tc.validate(), std::domain_error);
    tc = small_config();
    tc.trend_window = 2;
    EXPECT_THROW(tc.validate(), std::invalid_argument);
    tc = small_config();
    tc.aimd_beta = 1.0;
    EXPECT_THROW(tc.validate(), std::domain_error);
    tc = small_config();
    tc.window_len = 0;
    EXPECT_THROW(tc.validate(), std::invalid_argument);
    EXPECT_NO_THROW(small_config().validate());
}

TEST(TrackerConfigTest, FingerprintSeparatesOutputAffectingKnobs) {
    const TrackerConfig base = small_config();
    TrackerConfig other = small_config();
    other.smoothing = 0.5;
    EXPECT_NE(base.fingerprint(), other.fingerprint());
    other = small_config();
    other.cache.grid.pd_step = 0.01;
    EXPECT_NE(base.fingerprint(), other.fingerprint());
    // Perf knobs must NOT change the fingerprint: a checkpoint taken at one
    // thread count resumes at another.
    other = small_config();
    other.threads = 8;
    other.prefetch = 4;
    other.cache.enabled = false;
    EXPECT_EQ(base.fingerprint(), other.fingerprint());
}

TEST(TrackerStatusTest, Names) {
    EXPECT_STREQ(ccap::estimate::tracker_status_name(TrackerStatus::warmup), "warmup");
    EXPECT_STREQ(ccap::estimate::tracker_status_name(TrackerStatus::tracking),
                 "tracking");
    EXPECT_STREQ(ccap::estimate::tracker_status_name(TrackerStatus::drifting),
                 "drifting");
    EXPECT_STREQ(ccap::estimate::tracker_status_name(TrackerStatus::resync), "resync");
    EXPECT_STREQ(ccap::estimate::tracker_status_name(TrackerStatus::degraded),
                 "degraded");
}

// The acceptance anchor: a stationary (null-profile) stream must reproduce
// the offline batch estimate *bit for bit* — same parameter node, same
// Monte-Carlo machinery, and an EWMA pinned to a constant.
TEST(TrackerTest, NullProfileReproducesBatchEstimate) {
    const TrackerConfig tc = small_config();
    FaultStreamSource src(source_config(0.2, FaultProfile{}, tc.window_len, 6, 7));

    std::vector<StreamChunk> chunks;
    std::vector<std::uint32_t> all_sent, all_received;
    while (auto c = src.next()) {
        all_sent.insert(all_sent.end(), c->sent.begin(), c->sent.end());
        all_received.insert(all_received.end(), c->received.begin(),
                            c->received.end());
        chunks.push_back(std::move(*c));
    }
    ASSERT_EQ(chunks.size(), 6U);

    CapacityTracker tracker(tc);
    std::vector<TrackerUpdate> updates;
    for (const auto& c : chunks) updates.push_back(tracker.ingest(c));

    // Offline batch estimate over the concatenated trace, evaluated through
    // the same cache (node purity makes this the bit-exact comparison).
    const ccap::estimate::ParamEstimate batch =
        ccap::estimate::estimate_params(all_sent, all_received);
    const auto key = tracker.cache().quantize(batch.p_d.value, batch.p_i.value);
    const auto mi = tracker.cache().at(key);

    for (const TrackerUpdate& u : updates) {
        expect_all_finite(u);
        EXPECT_NE(u.status, TrackerStatus::degraded);
        // Every window lands on the batch node, so the windowed capacity IS
        // the batch capacity and the EWMA holds it exactly.
        EXPECT_EQ(u.window_capacity, mi.rate) << "window " << u.window;
        EXPECT_EQ(u.capacity, mi.rate) << "window " << u.window;
        EXPECT_EQ(u.resyncs, 0U);
    }
    EXPECT_EQ(tracker.last().capacity, mi.rate);
}

// TSan-gated (tier1.sh runs this suite under ThreadSanitizer): concurrent
// prefetch warm-up at 8 threads must race-free reproduce the 1-thread
// output stream bit for bit.
TEST(TrackerParallel, ThreadInvariantUnderPrefetch) {
    auto run = [](unsigned threads) {
        TrackerConfig tc = small_config();
        tc.window_len = 1000;
        tc.cache.grid.pd_step = 0.02;
        tc.cache.grid.pi_step = 0.02;
        tc.cache.mc.block_len = 24;
        tc.cache.mc.num_blocks = 4;
        tc.prefetch = 4;
        tc.threads = threads;
        CapacityTracker tracker(tc);
        FaultStreamSource src(
            source_config(0.1, FaultProfile::drifting(0.4, 4000), 1000, 10, 21));
        std::vector<TrackerUpdate> updates;
        while (auto c = src.next()) updates.push_back(tracker.ingest(*c));
        return updates;
    };
    const std::vector<TrackerUpdate> serial = run(1);
    const std::vector<TrackerUpdate> parallel = run(8);
    ASSERT_EQ(serial.size(), 10U);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << "window " << i;
}

// Checkpoint at window 6 of 12, rebuild a tracker from the serialized text,
// replay the source cursor — the resumed half must be bit-identical.
TEST(TrackerTest, CheckpointResumeIsBitIdentical) {
    TrackerConfig tc = small_config();
    tc.window_len = 1000;
    const auto sc = source_config(0.15, FaultProfile::drifting(0.3, 6000), 1000, 12, 33);

    CapacityTracker full(tc);
    FaultStreamSource full_src(sc);
    std::vector<TrackerUpdate> full_updates;
    ccap::util::Checkpoint mid;
    while (auto c = full_src.next()) {
        full_updates.push_back(full.ingest(*c));
        if (full.windows() == 6) mid = full.checkpoint();
    }
    ASSERT_EQ(full_updates.size(), 12U);

    // Serialize through text — the same bytes a --checkpoint file holds.
    std::stringstream ss;
    mid.write(ss);
    const ccap::util::Checkpoint loaded = ccap::util::Checkpoint::read(ss);

    CapacityTracker resumed = CapacityTracker::resume(tc, loaded);
    EXPECT_EQ(resumed.windows(), 6U);
    // last() survives the round trip: a resume with no window left to
    // ingest reports the checkpointed update, not a zeroed one.
    EXPECT_TRUE(resumed.last() == full_updates[5]);
    FaultStreamSource resumed_src(sc);
    resumed_src.skip(6);
    std::vector<TrackerUpdate> tail;
    while (auto c = resumed_src.next()) tail.push_back(resumed.ingest(*c));
    ASSERT_EQ(tail.size(), 6U);
    for (std::size_t i = 0; i < tail.size(); ++i)
        EXPECT_TRUE(tail[i] == full_updates[6 + i]) << "window " << (6 + i);
    EXPECT_TRUE(resumed.last() == full.last());
}

TEST(TrackerTest, ResumeRejectsMismatchedConfig) {
    const CapacityTracker tracker(small_config());
    const ccap::util::Checkpoint cp = tracker.checkpoint();
    TrackerConfig other = small_config();
    other.window_len = 999;
    try {
        (void)CapacityTracker::resume(other, cp);
        FAIL() << "fingerprint mismatch did not throw";
    } catch (const ccap::util::CheckpointIoError& e) {
        EXPECT_EQ(e.kind(), ccap::util::CheckpointError::malformed);
    }
    // Same config resumes fine.
    EXPECT_NO_THROW((void)CapacityTracker::resume(small_config(), cp));
}

TEST(TrackerTest, ResumeRejectsMissingStateField) {
    ccap::util::Checkpoint cp;
    cp.set_u64("fingerprint", small_config().fingerprint());
    EXPECT_THROW((void)CapacityTracker::resume(small_config(), cp),
                 ccap::util::CheckpointIoError);
}

TEST(TrackerTest, ResumeRejectsUnknownLastStatus) {
    std::stringstream ss;
    CapacityTracker(small_config()).checkpoint().write(ss);
    std::string text = ss.str();
    const std::size_t at = text.find("last_status 0\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 13, "last_status 9");
    std::istringstream in(text);
    const ccap::util::Checkpoint cp = ccap::util::Checkpoint::read(in);
    try {
        (void)CapacityTracker::resume(small_config(), cp);
        FAIL() << "out-of-range last_status did not throw";
    } catch (const ccap::util::CheckpointIoError& e) {
        EXPECT_EQ(e.kind(), ccap::util::CheckpointError::malformed);
    }
}

// A fast hard swing in P_d must trigger drift detection and at least one
// change-point resync; the resync window re-pins the smoothed estimate to
// the window node exactly.
TEST(TrackerTest, DriftTriggersResyncAndRepins) {
    TrackerConfig tc = small_config();
    tc.window_len = 1000;
    tc.trend_window = 4;
    tc.drift_slope = 0.01;
    tc.drift_sustain = 2;
    CapacityTracker tracker(tc);
    FaultStreamSource src(
        source_config(0.1, FaultProfile::drifting(0.5, 8000), 1000, 16, 5));
    bool saw_drift_or_resync = false;
    std::uint64_t resyncs = 0;
    while (auto c = src.next()) {
        const TrackerUpdate u = tracker.ingest(*c);
        expect_all_finite(u);
        if (u.status == TrackerStatus::drifting || u.status == TrackerStatus::resync)
            saw_drift_or_resync = true;
        if (u.status == TrackerStatus::resync) {
            // The reset discards the stale EWMA: smoothed == window node.
            EXPECT_EQ(u.capacity, u.window_capacity);
        }
        resyncs = u.resyncs;
    }
    EXPECT_TRUE(saw_drift_or_resync);
    EXPECT_GT(resyncs, 0U);
}

TEST(TrackerTest, AimdRampsUpAndBacksOffMultiplicatively) {
    TrackerConfig tc = small_config();
    CapacityTracker tracker(tc);
    FaultStreamSource src(source_config(0.2, FaultProfile{}, tc.window_len, 8, 11));
    double prev_served = 0.0;
    TrackerUpdate u;
    while (auto c = src.next()) {
        u = tracker.ingest(*c);
        // Stationary stream: additive ramp toward headroom * capacity,
        // never past it.
        EXPECT_GE(u.served_rate, prev_served);
        EXPECT_LE(u.served_rate, tc.headroom * u.capacity + 1e-12);
        prev_served = u.served_rate;
    }
    // A blind window backs off by exactly beta.
    const double before = u.served_rate;
    const TrackerUpdate degraded = tracker.ingest(StreamChunk{});
    EXPECT_EQ(degraded.status, TrackerStatus::degraded);
    EXPECT_DOUBLE_EQ(degraded.served_rate, before * tc.aimd_beta);
}

TEST(TrackerPathological, EmptyWindowDegradesExplicitly) {
    CapacityTracker tracker(small_config());
    StreamChunk empty;
    const TrackerUpdate u = tracker.ingest(empty);
    EXPECT_EQ(u.status, TrackerStatus::degraded);
    EXPECT_EQ(u.stale_windows, 1U);
    EXPECT_FALSE(u.converged);
    expect_all_finite(u);
    // Repeats accumulate the stale count — the staleness is visible, not
    // silently absorbed.
    const TrackerUpdate v = tracker.ingest(empty);
    EXPECT_EQ(v.stale_windows, 2U);
}

TEST(TrackerPathological, AllDeletedWindowDegrades) {
    CapacityTracker tracker(small_config());
    StreamChunk chunk;
    chunk.sent.assign(1000, 1U);
    // Receiver saw nothing: P_d estimates to 1, far outside the tracked
    // grid — must degrade, not clamp to the edge node.
    const TrackerUpdate u = tracker.ingest(chunk);
    EXPECT_EQ(u.status, TrackerStatus::degraded);
    EXPECT_NEAR(u.p_d, 1.0, 1e-12);
    expect_all_finite(u);
}

TEST(TrackerPathological, InsertionFloodDegrades) {
    CapacityTracker tracker(small_config());
    StreamChunk chunk;
    chunk.sent.assign(200, 0U);
    // Received is a flood of unmatched symbols: P_i lands far beyond the
    // grid's pi_max.
    chunk.received.assign(4000, 1U);
    const TrackerUpdate u = tracker.ingest(chunk);
    EXPECT_EQ(u.status, TrackerStatus::degraded);
    expect_all_finite(u);
}

TEST(TrackerPathological, DegradedHoldsLastGoodEstimateThenRecovers) {
    const TrackerConfig tc = small_config();
    CapacityTracker tracker(tc);
    FaultStreamSource src(source_config(0.2, FaultProfile{}, tc.window_len, 4, 17));
    TrackerUpdate good;
    std::vector<StreamChunk> replay;
    while (auto c = src.next()) {
        replay.push_back(*c);
        good = tracker.ingest(*c);
    }
    const TrackerUpdate stale = tracker.ingest(StreamChunk{});
    EXPECT_EQ(stale.status, TrackerStatus::degraded);
    // The smoothed capacity is held, flagged stale — not zeroed, not NaN.
    EXPECT_EQ(stale.capacity, good.capacity);
    EXPECT_EQ(stale.stale_windows, 1U);
    // A good window clears the staleness.
    const TrackerUpdate back = tracker.ingest(replay.front());
    EXPECT_NE(back.status, TrackerStatus::degraded);
    EXPECT_EQ(back.stale_windows, 0U);
    expect_all_finite(back);
}

TEST(TrackerPathological, ZeroLengthStreamEndsImmediately) {
    TraceChunkSource source({}, {}, 500);
    EXPECT_FALSE(source.next().has_value());
    EXPECT_THROW(TraceChunkSource({}, {}, 0), std::invalid_argument);
}

// The trace source must carve without losing symbols: chunk sent/received
// concatenations reproduce the full trace (the last window absorbs the
// tail of the received stream).
TEST(TraceChunkSourceTest, CarvingIsLossless) {
    FaultStreamSource src(source_config(0.15, FaultProfile{}, 1700, 3, 13));
    std::vector<std::uint32_t> all_sent, all_received;
    while (auto c = src.next()) {
        all_sent.insert(all_sent.end(), c->sent.begin(), c->sent.end());
        all_received.insert(all_received.end(), c->received.begin(),
                            c->received.end());
    }
    TraceChunkSource trace(all_sent, all_received, 600);
    std::vector<std::uint32_t> got_sent, got_received;
    std::uint64_t index = 0;
    while (auto c = trace.next()) {
        EXPECT_EQ(c->index, index++);
        EXPECT_LE(c->sent.size(), 600U);
        got_sent.insert(got_sent.end(), c->sent.begin(), c->sent.end());
        got_received.insert(got_received.end(), c->received.begin(),
                            c->received.end());
    }
    EXPECT_EQ(got_sent, all_sent);
    EXPECT_EQ(got_received, all_received);
}

}  // namespace
