// Discrete-event simulation core: a time-ordered queue of callbacks.
//
// Ties are broken by insertion order (FIFO): every item carries a stable
// sequence number and the heap orders by the *total* key (when, seq).
// Because the comparator never reports two items equivalent, the dequeue
// order is fully determined by the keys and therefore identical under any
// conforming heap implementation (libstdc++, libc++, ...) — a partial
// time-only order would leave tie order up to heap internals and make
// large contention simulations irreproducible across standard libraries.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ccap::sched {

using SimTime = std::uint64_t;

class EventQueue {
public:
    using Callback = std::function<void(SimTime)>;

    /// Schedule `cb` at absolute time `when` (must be >= now()).
    void schedule_at(SimTime when, Callback cb);
    /// Schedule `cb` `delay` ticks from now.
    void schedule_in(SimTime delay, Callback cb) { schedule_at(now_ + delay, std::move(cb)); }

    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Pop and run the earliest event; advances now(). Returns false if empty.
    bool step();

    /// Run until the queue drains or now() exceeds `until`.
    void run_until(SimTime until);

private:
    struct Item {
        SimTime when = 0;
        std::uint64_t seq = 0;
        Callback cb;
    };
    struct Later {
        bool operator()(const Item& a, const Item& b) const noexcept {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    // Explicit push_heap/pop_heap over a vector (rather than
    // std::priority_queue) so step() can *move* the popped item out — the
    // adaptor only exposes a const top(), which forces a std::function copy
    // (an allocation per event, measurable at millions of events).
    std::vector<Item> heap_;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

}  // namespace ccap::sched
