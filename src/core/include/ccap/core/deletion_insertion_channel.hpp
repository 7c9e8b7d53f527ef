// Executable model of the paper's Definition-1 channel.
//
// Two interfaces:
//  * use(queued)  — one channel use at a time, telling the caller exactly
//    what happened. This is what the feedback protocols (Theorem 3,
//    Appendix A) build on: with a perfect feedback path the sender learns
//    the outcome of every use.
//  * transduce(message) — fire-and-forget block transmission (no feedback),
//    with a ground-truth event log for oracle experiments and for deriving
//    the matched erasure-channel view of Definition 2.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ccap/core/channel_params.hpp"
#include "ccap/util/rng.hpp"

namespace ccap::core {

enum class ChannelEvent : std::uint8_t { deletion, insertion, transmission };

/// Per-use outcome shared by every symbol-channel implementation.
struct ChannelUseOutcome {
    ChannelEvent kind = ChannelEvent::transmission;
    /// Present when the receiver saw a symbol (transmission/insertion).
    std::optional<std::uint32_t> delivered;
    /// True when the queued symbol was consumed (deletion/transmission).
    bool consumed = false;
};

/// One use as a flat pair, for per-use loops that hold a concrete channel:
/// the event, and the symbol the receiver saw unless it is a deletion.
/// Whether the queued symbol was consumed follows from the channel's own
/// event (not an insertion).
struct UseEvent {
    ChannelEvent kind = ChannelEvent::transmission;
    std::uint32_t symbol = 0;
};

/// Interface for channels the feedback protocols can drive: the
/// Definition-1 channel, and variants such as the Markov-modulated bursty
/// channel (bursty_channel.hpp).
class SymbolChannel {
public:
    virtual ~SymbolChannel() = default;
    /// One channel use with `queued` at the head of the sender's queue.
    [[nodiscard]] virtual ChannelUseOutcome use(std::uint32_t queued) = 0;
    /// Nominal (long-run average) parameters; protocols use these for
    /// validity checks such as "stop-and-wait needs P_i == 0".
    [[nodiscard]] virtual const DiChannelParams& params() const noexcept = 0;
};

struct EventRecord {
    ChannelEvent kind = ChannelEvent::transmission;
    std::uint32_t offered = 0;    ///< queued symbol (meaningless for insertions)
    std::uint32_t delivered = 0;  ///< symbol the receiver saw (meaningless for deletions)
    bool substituted = false;     ///< transmission corrupted by noise
};

class DeletionInsertionChannel final : public SymbolChannel {
public:
    DeletionInsertionChannel(DiChannelParams params, std::uint64_t seed);

    [[nodiscard]] const DiChannelParams& params() const noexcept override { return params_; }

    using UseOutcome = ChannelUseOutcome;

    /// One channel use with `queued` at the head of the sender's queue.
    [[nodiscard]] UseOutcome use(std::uint32_t queued) override {
        const UseEvent e = draw(queued);
        UseOutcome out;
        out.kind = e.kind;
        if (e.kind != ChannelEvent::deletion) out.delivered = e.symbol;
        out.consumed = e.kind != ChannelEvent::insertion;
        return out;
    }

    /// use() as a flat pair. Inline, so a caller holding the concrete
    /// channel (the stream source's per-use loop) runs it without a virtual
    /// call or an optional to unpack.
    [[nodiscard]] UseEvent draw(std::uint32_t queued) {
        if (queued >= params_.alphabet())
            throw std::out_of_range("DeletionInsertionChannel::use: symbol out of alphabet");
        const double u = rng_.uniform();
        if (u < params_.p_i) return {ChannelEvent::insertion, random_symbol()};
        if (u < params_.p_i + params_.p_d) return {ChannelEvent::deletion, 0};
        return {ChannelEvent::transmission, substitute(queued)};
    }

    struct Transduction {
        std::vector<std::uint32_t> output;  ///< what the receiver saw, in order
        std::vector<EventRecord> events;    ///< ground truth, one per channel use
        std::uint64_t channel_uses = 0;
    };

    /// Send a whole message with no feedback. When `trailing_insertions` is
    /// true the channel keeps inserting after the queue drains (matching the
    /// drift-HMM generative model).
    [[nodiscard]] Transduction transduce(std::span<const std::uint32_t> message,
                                         bool trailing_insertions = true);

private:
    [[nodiscard]] std::uint32_t random_symbol() noexcept {
        return static_cast<std::uint32_t>(rng_.uniform_below(params_.alphabet()));
    }
    [[nodiscard]] std::uint32_t substitute(std::uint32_t s) noexcept {
        if (params_.p_s <= 0.0 || !rng_.bernoulli(params_.p_s)) return s;
        auto r = static_cast<std::uint32_t>(rng_.uniform_below(params_.alphabet() - 1));
        return r >= s ? r + 1 : r;
    }

    DiChannelParams params_;
    util::Rng rng_;
};

}  // namespace ccap::core
