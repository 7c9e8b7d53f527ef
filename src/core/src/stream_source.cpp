#include "ccap/core/stream_source.hpp"

#include <stdexcept>

#include "ccap/util/rng.hpp"

namespace ccap::core {

void ChunkSource::skip(std::uint64_t windows) {
    // Replay-and-discard: a live source's channel, fault RNG and use clock
    // advance exactly as a real run would, so the next emitted chunk is
    // bit-identical to the uninterrupted stream's.
    for (std::uint64_t i = 0; i < windows; ++i)
        if (!next()) break;
}

void FaultStreamSource::Config::validate() const {
    params.validate();
    profile.validate();
    if (window_len == 0)
        throw std::invalid_argument("FaultStreamSource: window_len must be > 0");
    if (!(params.p_d + params.p_i < 1.0))
        throw std::domain_error(
            "FaultStreamSource: p_d + p_i must be < 1 (a queued symbol must "
            "eventually be consumed)");
}

FaultStreamSource::FaultStreamSource(Config cfg)
    : cfg_((cfg.validate(), std::move(cfg))),
      inner_(cfg_.params, util::substream_seed(cfg_.seed, 0xC11)),
      faulty_(inner_, cfg_.profile, util::substream_seed(cfg_.seed, 0xFA17)) {}

std::optional<StreamChunk> FaultStreamSource::next() {
    if (cfg_.windows != 0 && emitted_ >= cfg_.windows) return std::nullopt;

    StreamChunk chunk;
    chunk.index = emitted_;
    chunk.sent.reserve(cfg_.window_len);
    chunk.received.reserve(cfg_.window_len);
    // Per-window message substream: order-free, so a resumed source only
    // needs the channel replayed (skip), not a serialized generator.
    util::Rng msg_rng(util::substream_seed(cfg_.seed, emitted_));
    const std::uint32_t alphabet = cfg_.params.alphabet();
    for (std::size_t i = 0; i < cfg_.window_len; ++i)
        chunk.sent.push_back(static_cast<std::uint32_t>(msg_rng.uniform_below(alphabet)));

    // Drive the faulty channel one use at a time until each queued symbol
    // is consumed (faulty_.use(), without its virtual call to the inner
    // channel or its outcome's optional); insertions deliver without
    // consuming (they extend the received stream), deletions consume
    // without delivering, and a fault's drop leaves consumption as the
    // inner channel decided it. Config validation guarantees P_d + P_t > 0
    // so each symbol terminates.
    for (const std::uint32_t queued : chunk.sent) {
        for (;;) {
            const UseEvent drawn = inner_.draw(queued);
            const UseEvent seen = faulty_.apply(drawn);
            ++chunk.channel_uses;
            if (seen.kind != ChannelEvent::deletion) chunk.received.push_back(seen.symbol);
            if (drawn.kind != ChannelEvent::insertion) break;
        }
    }
    ++emitted_;
    return chunk;
}

}  // namespace ccap::core
