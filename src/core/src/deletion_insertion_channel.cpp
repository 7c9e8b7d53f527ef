#include "ccap/core/deletion_insertion_channel.hpp"

namespace ccap::core {

DeletionInsertionChannel::DeletionInsertionChannel(DiChannelParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
    params_.validate();
}

DeletionInsertionChannel::Transduction DeletionInsertionChannel::transduce(
    std::span<const std::uint32_t> message, bool trailing_insertions) {
    Transduction t;
    t.output.reserve(message.size());
    for (std::uint32_t symbol : message) {
        for (;;) {
            const UseEvent e = draw(symbol);
            ++t.channel_uses;
            EventRecord rec;
            rec.kind = e.kind;
            rec.offered = symbol;
            if (e.kind != ChannelEvent::deletion) {
                rec.delivered = e.symbol;
                rec.substituted = e.kind == ChannelEvent::transmission && e.symbol != symbol;
                t.output.push_back(e.symbol);
            }
            t.events.push_back(rec);
            if (e.kind != ChannelEvent::insertion) break;
        }
    }
    if (trailing_insertions) {
        while (rng_.bernoulli(params_.p_i)) {
            ++t.channel_uses;
            EventRecord rec;
            rec.kind = ChannelEvent::insertion;
            rec.delivered = random_symbol();
            t.output.push_back(rec.delivered);
            t.events.push_back(rec);
        }
    }
    return t;
}

}  // namespace ccap::core
