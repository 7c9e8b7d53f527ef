// Per-flow FIFO queues drained round-robin — the queueing half of the
// pacer pair (see pacing.hpp). Each flow owns a bounded FIFO of pending
// symbols; the drain rotates over flows with backlog, serving one symbol
// per visit, so a heavy flow cannot starve its neighbours. Two loss
// mechanisms model contention-induced deletions:
//
//   * overflow  — an arrival to a full per-flow FIFO is dropped on push;
//   * expiry    — a symbol older than `deadline` ticks when it reaches the
//                 head is dropped lazily at serve time (0 disables).
//
// Only expiry reads a symbol's arrival tick, so the per-flow rings of
// arrival timestamps exist only with a deadline; without one a flow's
// FIFO is just its backlog count. Everything is O(1) per push/pop
// (amortized) and allocation-free after construction: flow rings live in
// one flat array, and the active-flow rotation is an intrusive circular
// list over flow ids. push and pop are defined here, inline, because the
// contention engine's slice loop calls them once per arrival and per
// serve; ring indices wrap with a compare and subtract (every index sum
// stays below 2 * cap), not a division.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ccap/sched/event_queue.hpp"

namespace ccap::sched {

struct FlowCounters {
    std::uint64_t enqueued = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped_overflow = 0;
    std::uint64_t dropped_expired = 0;
};

class RoundRobinFlowQueue {
public:
    /// `per_flow_cap` bounds each flow's backlog (1 to 2^32 - 1);
    /// `deadline` is the maximum age in ticks a symbol may reach before
    /// being dropped at the head (0 = symbols never expire, and no
    /// timestamps are kept).
    RoundRobinFlowQueue(std::size_t num_flows, std::size_t per_flow_cap,
                        SimTime deadline = 0);

    /// Enqueue one symbol of `flow` arriving at `now`. Returns false (and
    /// counts an overflow drop) when the flow's ring is full.
    bool push(std::size_t flow, SimTime now) {
        FlowRing& r = rings_[flow];
        FlowCounters& c = counters_[flow];
        if (r.size == cap_) {
            ++c.dropped_overflow;
            return false;
        }
        if (deadline_ != 0) {
            std::size_t tail = std::size_t{r.head} + r.size;  // head, size < cap_
            if (tail >= cap_) tail -= cap_;
            slots_[flow * cap_ + tail] = now;
        }
        ++r.size;
        ++c.enqueued;
        ++backlog_;
        activate(static_cast<std::uint32_t>(flow));
        return true;
    }

    struct Served {
        std::size_t flow = 0;
        SimTime enqueued_at = 0;  ///< arrival tick; 0 when there is no deadline
    };

    /// Serve one symbol round-robin: the next backlogged flow gives up its
    /// oldest non-expired symbol and rotates to the back. Expired heads are
    /// dropped (counted per flow) until a serveable symbol or an empty ring
    /// is found. Returns nullopt when no flow has backlog.
    std::optional<Served> pop(SimTime now) {
        while (active_head_ != kNil) {
            const std::uint32_t f = rotate_front();
            FlowRing& r = rings_[f];
            FlowCounters& c = counters_[f];
            Served out;
            out.flow = f;
            if (deadline_ != 0) {
                const SimTime* ring = slots_.data() + std::size_t{f} * cap_;
                // Lazy expiry: age is measured when the symbol reaches the head.
                while (r.size > 0 && now - ring[r.head] > deadline_) {
                    advance_head(r);
                    ++c.dropped_expired;
                }
                if (r.size == 0) continue;  // drained by expiry; drop out of rotation
                out.enqueued_at = ring[r.head];
            }
            advance_head(r);
            ++c.served;
            if (r.size > 0) activate(f);  // rotate to the back of the ring
            return out;
        }
        return std::nullopt;
    }

    [[nodiscard]] std::size_t backlog() const noexcept { return backlog_; }
    [[nodiscard]] const FlowCounters& flow(std::size_t f) const { return counters_[f]; }

    /// Aggregate counters over all flows.
    [[nodiscard]] FlowCounters totals() const noexcept;

private:
    struct FlowRing {
        std::uint32_t head = 0;  // index into slots_ ring, relative to base
        std::uint32_t size = 0;
        std::uint32_t next = kNil;  // next flow in the active rotation
        bool active = false;
    };
    static constexpr std::uint32_t kNil = 0xffffffffu;

    void activate(std::uint32_t f) {
        FlowRing& r = rings_[f];
        if (r.active) return;
        r.active = true;
        r.next = kNil;
        if (active_tail_ == kNil) {
            active_head_ = active_tail_ = f;
        } else {
            rings_[active_tail_].next = f;
            active_tail_ = f;
        }
    }

    std::uint32_t rotate_front() {
        const std::uint32_t f = active_head_;
        active_head_ = rings_[f].next;
        if (active_head_ == kNil) active_tail_ = kNil;
        rings_[f].active = false;
        rings_[f].next = kNil;
        return f;
    }

    /// Drop the head symbol of a non-empty ring.
    void advance_head(FlowRing& r) {
        if (++r.head == cap_) r.head = 0;
        --r.size;
        --backlog_;
    }

    std::size_t cap_;
    SimTime deadline_;
    std::vector<SimTime> slots_;  // num_flows * cap_ flat rings; empty without a deadline
    std::vector<FlowRing> rings_;
    std::vector<FlowCounters> counters_;
    std::uint32_t active_head_ = kNil;  // circular list cursor (next to serve)
    std::uint32_t active_tail_ = kNil;
    std::size_t backlog_ = 0;
};

}  // namespace ccap::sched
