#include "ccap/sched/flow_queue.hpp"

#include <cstdint>
#include <stdexcept>

namespace ccap::sched {

RoundRobinFlowQueue::RoundRobinFlowQueue(std::size_t num_flows, std::size_t per_flow_cap,
                                         SimTime deadline)
    : cap_(per_flow_cap), deadline_(deadline) {
    if (num_flows == 0)
        throw std::invalid_argument("RoundRobinFlowQueue: num_flows must be > 0");
    if (per_flow_cap == 0)
        throw std::invalid_argument("RoundRobinFlowQueue: per_flow_cap must be > 0");
    // A ring's head and size are 32-bit, and n * cap then stays below 2^64.
    if (per_flow_cap > UINT32_MAX)
        throw std::invalid_argument("RoundRobinFlowQueue: per_flow_cap must be < 2^32");
    if (num_flows >= kNil)
        throw std::invalid_argument("RoundRobinFlowQueue: too many flows");
    if (deadline != 0) slots_.resize(num_flows * cap_);
    rings_.resize(num_flows);
    counters_.resize(num_flows);
}

FlowCounters RoundRobinFlowQueue::totals() const noexcept {
    FlowCounters t;
    for (const FlowCounters& c : counters_) {
        t.enqueued += c.enqueued;
        t.served += c.served;
        t.dropped_overflow += c.dropped_overflow;
        t.dropped_expired += c.dropped_expired;
    }
    return t;
}

}  // namespace ccap::sched
