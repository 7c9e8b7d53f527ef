// Millen's finite-state noiseless covert channel capacity (CSFW 1989).
//
// A covert channel is modeled as a finite-state machine: states are system
// configurations, edges are operations the sender can perform, and each edge
// takes a (possibly non-uniform) amount of time. The receiver observes the
// operation sequence perfectly (noiseless). The capacity in bits per unit
// time is log2(X0), where X0 is the unique value for which the spectral
// radius of the edge-weight matrix B(X), B_ij(X) = sum over edges i->j of
// X^{-t_edge}, equals 1. With unit edge times this reduces to the classic
// log2 of the largest eigenvalue of the adjacency matrix.
//
// This is one of the "traditional methods" whose output the paper's
// Section 4.3 recipe multiplies by (1 - P_d).
#pragma once

#include <cstddef>
#include <vector>

namespace ccap::info {

struct FsmEdge {
    std::size_t from = 0;
    std::size_t to = 0;
    double duration = 1.0;  ///< time units the operation takes; must be > 0
};

class FsmChannel {
public:
    explicit FsmChannel(std::size_t num_states);

    /// Add a usable operation (edge). Self-loops and parallel edges allowed.
    void add_edge(std::size_t from, std::size_t to, double duration = 1.0);

    [[nodiscard]] std::size_t num_states() const noexcept { return num_states_; }
    [[nodiscard]] const std::vector<FsmEdge>& edges() const noexcept { return edges_; }

    /// Capacity in bits per unit time. Returns 0 for machines that admit no
    /// infinite transmission (e.g. no cycles reachable).
    [[nodiscard]] double capacity() const;

private:
    std::size_t num_states_;
    std::vector<FsmEdge> edges_;
};

}  // namespace ccap::info
