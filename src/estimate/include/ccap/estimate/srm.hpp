// Kemmerer's Shared Resource Matrix methodology (TOCS 1983) — the paper's
// reference [1] and the canonical covert channel *identification* step that
// precedes capacity estimation.
//
// Model: shared resources have attributes; system operations Read (R) or
// Modify (M) attributes. An attribute is a potential covert channel medium
// when some operation modifies it and another reads it, and the two
// operations are available to differently-cleared subjects. Indirect flows
// (operation O reads attribute A and modifies attribute B, so A's value can
// reach B's readers) are found by transitive closure over the matrix.
//
// The output feeds this library's pipeline: each identified channel is a
// candidate to measure (sched::covert_pair), estimate (param_estimator) and
// bound (core::capacity_bounds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ccap::estimate {

class SharedResourceMatrix {
public:
    /// Register an attribute (e.g. "file.lock", "disk.arm_position").
    /// Returns its index; re-registering a name returns the existing index.
    std::size_t add_attribute(const std::string& name);

    /// Register an operation with the sets of attributes it reads and
    /// modifies (attribute names are auto-registered).
    void add_operation(const std::string& name, const std::vector<std::string>& reads,
                       const std::vector<std::string>& modifies);

    struct Channel {
        std::string attribute;    ///< the shared medium
        std::string sender_op;    ///< modifies the attribute
        std::string receiver_op;  ///< reads it (possibly via indirect flow)
        bool indirect = false;    ///< receiver senses it through a derived attribute
    };

    /// Candidates: (attribute, modifier, reader) triples with modifier !=
    /// reader. A reader of the attribute itself is a direct channel; one
    /// that only senses it through the transitive closure (an operation
    /// that reads A and modifies B propagates A's information into B, "A
    /// flows to B", so reading B senses A) is an indirect one.
    [[nodiscard]] std::vector<Channel> all_channels() const;

    /// Attribute-to-attribute information-flow closure: flow(a, b) iff some
    /// operation chain carries a's value into b (reflexive).
    [[nodiscard]] std::vector<std::vector<bool>> flow_closure() const;

private:
    struct Operation {
        std::string name;
        std::vector<std::size_t> reads;
        std::vector<std::size_t> modifies;
    };

    std::vector<std::string> attributes_;
    std::vector<Operation> operations_;
};

}  // namespace ccap::estimate
