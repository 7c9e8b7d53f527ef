// Stream framing for the online capacity tracker: fixed-size windows of
// matched sent/received observations.
//
// The offline estimators consume complete traces; the tracker
// (estimate/capacity_tracker.hpp) instead ingests a *stream* one window at
// a time. This module defines the chunk framing and the live source: a
// FaultStreamSource drives a Definition-1 channel under a FaultProfile —
// burst storms, P_d(t) drift, stuck-at windows — and emits exactly what a
// measurement tap would see per window. The trace-file source lives in the
// estimate layer (it needs alignment to carve a received stream).
//
// Determinism discipline: window w's transmitted symbols come from the
// substream substream_seed(seed, w) while the channel and fault clocks run
// continuously across windows (so a drift period can span many windows).
// The whole stream is a pure function of (config, seed), so
// ChunkSource::skip(k) replays k windows deterministically — which is how
// `ccap track --resume` reproduces the uninterrupted run bit for bit, for a
// live source and a trace pair alike.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/core/fault_injection.hpp"

namespace ccap::core {

/// One window of stream observation: the symbols the sender pushed and the
/// symbols the receiver saw while they were consumed, in order.
struct StreamChunk {
    std::uint64_t index = 0;  ///< 0-based window index in the stream
    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> received;
    /// Channel uses this window consumed; 0 when unknown (trace sources
    /// cannot see the use clock).
    std::uint64_t channel_uses = 0;
};

/// A window-at-a-time observation stream. next() returns chunks until the
/// stream ends (nullopt); sources backed by a live channel never end unless
/// configured with a window budget.
class ChunkSource {
public:
    virtual ~ChunkSource() = default;
    [[nodiscard]] virtual std::optional<StreamChunk> next() = 0;

    /// Deterministic fast-forward: pull and discard up to `windows` chunks
    /// (fewer when the stream ends first). After skip(k), next() returns
    /// exactly the chunk an uninterrupted source would return as its
    /// (k+1)-th — the checkpoint-resume path.
    void skip(std::uint64_t windows);
};

/// Live simulation source: a DeletionInsertionChannel wrapped in a
/// FaultyChannel, driven window_len sent symbols per window.
class FaultStreamSource final : public ChunkSource {
public:
    struct Config {
        DiChannelParams params;
        FaultProfile profile;        ///< null profile = the plain channel
        std::size_t window_len = 2000;
        std::uint64_t windows = 0;   ///< chunks to emit; 0 = unbounded
        std::uint64_t seed = 1;

        /// Throws std::domain_error / std::invalid_argument when malformed.
        /// Beyond the member validations, requires p_d + p_i < 1: with
        /// P_t = 0 and P_d = 0 a queued symbol would never be consumed and
        /// next() could not terminate.
        void validate() const;
    };

    explicit FaultStreamSource(Config cfg);

    /// Channel uses (the fault-schedule clock) and fault totals injected
    /// so far (storms/drift/stuck overrides).
    [[nodiscard]] const FaultStats& fault_stats() const noexcept { return faulty_.stats(); }

    [[nodiscard]] std::optional<StreamChunk> next() override;

private:
    Config cfg_;
    DeletionInsertionChannel inner_;
    FaultyChannel faulty_;
    std::uint64_t emitted_ = 0;
};

}  // namespace ccap::core
