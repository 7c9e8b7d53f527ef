// Hidden-Markov "drift" lattice for insertion/deletion channels
// (Davey & MacKay, IEEE Trans. IT 2001 — the paper's reference [13]).
//
// Generative model, matching the paper's Definition 1: while a symbol is
// queued, each channel use is an insertion with probability P_i (emitting a
// uniformly random symbol), a deletion with probability P_d (the queued
// symbol is consumed, nothing emitted), or a transmission with probability
// P_t = 1 - P_i - P_d (the queued symbol is consumed and emitted, flipped to
// a uniformly chosen other symbol with probability P_s). After the queue
// empties, trailing insertions continue with probability P_i per use.
//
// The hidden state after consuming j queued symbols is the *drift*
// d_j = (received symbols so far) - j. Forward/backward over the drift
// lattice give:
//   * exact log-likelihood  log2 P(received | transmitted)   — used by the
//     Monte-Carlo mutual-information bounds in deletion_bounds.hpp, and
//   * per-position posteriors P(t_j = s | received)           — the inner
//     decoder of the watermark code in coding/watermark.hpp.
//
// Per-symbol insertion runs are truncated at max_insert_run (probability
// mass P_i^{run} is geometrically negligible past ~10); drift is clamped to
// [-max_drift, +max_drift]. Both truncations only *lower* reported
// likelihoods. The MI estimators subtract a truncated marginal from a
// truncated conditional, so the net effect on an estimate has no proven
// sign.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "ccap/util/matrix.hpp"

namespace ccap::info {

class LatticeWorkspace;  // lattice_engine.hpp
struct DriftTables;      // lattice_engine.hpp

/// First-order Markov symbol source: initial distribution + row-stochastic
/// transition matrix over the channel alphabet. Davey & MacKay observed
/// that correlated (run-length-biased) inputs raise the achievable rate of
/// deletion channels above the iid-input rate; markov_mutual_information_
/// rate in deletion_bounds.hpp quantifies that with this source.
struct MarkovSource {
    std::vector<double> initial;   ///< length M
    util::Matrix transition;       ///< M x M, rows P(next | current)

    /// Throws std::domain_error / std::invalid_argument when malformed or
    /// when the dimensions disagree with `alphabet`.
    void validate(unsigned alphabet) const;

    /// Binary source that repeats the previous symbol with probability
    /// `stay` (stay = 0.5 gives iid uniform).
    [[nodiscard]] static MarkovSource binary_repeat(double stay);
};

struct DriftParams {
    double p_d = 0.0;          ///< deletion probability per channel use
    double p_i = 0.0;          ///< insertion probability per channel use
    double p_s = 0.0;          ///< substitution probability given transmission
    unsigned alphabet = 2;     ///< symbol alphabet size M in [2, 256] (one byte per symbol)
    int max_drift = 48;        ///< |received - consumed| clamp
    int max_insert_run = 10;   ///< per-symbol insertion run truncation

    /// Transmission probability per channel use.
    [[nodiscard]] double p_t() const noexcept { return 1.0 - p_d - p_i; }
    /// Throws std::domain_error on invalid combinations.
    void validate() const;
};

/// One lane's result of a batched evidence call.
struct LaneEvidence {
    double log2_evidence = -std::numeric_limits<double>::infinity();
};

class DriftHmm {
public:
    explicit DriftHmm(DriftParams params);

    [[nodiscard]] const DriftParams& params() const noexcept { return params_; }

    /// Immutable transition/emission lookup tables, shareable across
    /// threads (built once at construction).
    [[nodiscard]] const DriftTables& tables() const noexcept { return *tables_; }

    /// log2 P(received | transmitted) under the truncated generative model.
    /// Returns -infinity when the pair is unreachable within the truncations.
    /// The overload without a workspace leases a thread-local one; passing
    /// your own LatticeWorkspace makes repeated calls allocation-free.
    [[nodiscard]] double log2_likelihood(std::span<const std::uint8_t> transmitted,
                                         std::span<const std::uint8_t> received) const;
    [[nodiscard]] double log2_likelihood(std::span<const std::uint8_t> transmitted,
                                         std::span<const std::uint8_t> received,
                                         LatticeWorkspace& ws) const;

    /// log2 P(received) when transmitted symbols are drawn independently
    /// from the per-position priors (n = priors.rows()): the forward pass
    /// of posteriors() without the backward sweep, bit-identical to the
    /// evidence posteriors() reports but at half the cost. The Monte-Carlo
    /// iid marginal is computed this way.
    [[nodiscard]] double log2_prior_marginal(const util::Matrix& priors,
                                             std::span<const std::uint8_t> received,
                                             LatticeWorkspace& ws) const;

    /// Forward-backward posteriors. `priors` is an n x M row-stochastic
    /// matrix of per-position transmitted-symbol priors. Returns an n x M
    /// matrix of posteriors P(t_j = s | received). If `log2_evidence` is
    /// non-null it receives log2 P(received) under the priors.
    /// Positions whose symbol was deleted (no emission observed) fall back
    /// towards their prior, as they must.
    [[nodiscard]] util::Matrix posteriors(const util::Matrix& priors,
                                          std::span<const std::uint8_t> received,
                                          double* log2_evidence = nullptr) const;
    [[nodiscard]] util::Matrix posteriors(const util::Matrix& priors,
                                          std::span<const std::uint8_t> received,
                                          LatticeWorkspace& ws,
                                          double* log2_evidence = nullptr) const;

    /// Candidate provider for segment_likelihoods: returns the candidate
    /// blocks (each seg_len symbols) for one segment. The count must be the
    /// same for every segment.
    using CandidateFn =
        std::function<std::span<const std::vector<std::uint8_t>>(std::size_t segment)>;

    /// Davey-MacKay inner-decoder operation: split the n transmitted
    /// positions into consecutive segments of length seg_len (n must be a
    /// multiple) and, for each segment t, compute the relative likelihood of
    /// every candidate block:
    ///   L(t, c) proportional to P(received | segment t equals candidate c,
    ///                             other positions ~ priors).
    /// The surrounding context is weighted by the forward/backward lattices
    /// run under `priors` — exactly the approximation of Davey & MacKay.
    /// Returns a (n/seg_len) x num_candidates row-normalized matrix.
    [[nodiscard]] util::Matrix segment_likelihoods(const util::Matrix& priors,
                                                   std::span<const std::uint8_t> received,
                                                   std::size_t seg_len,
                                                   std::size_t num_candidates,
                                                   const CandidateFn& candidates_for,
                                                   LatticeWorkspace& ws) const;

    /// log2 P(received) when the transmitted sequence of length `tx_len` is
    /// drawn from a first-order Markov source: the forward pass runs over
    /// the joint (drift, previous-symbol) state. Needed because the
    /// per-position independent `priors` of posteriors() cannot express
    /// symbol correlation. Returns -infinity when unreachable.
    [[nodiscard]] double log2_markov_marginal(const MarkovSource& source, std::size_t tx_len,
                                              std::span<const std::uint8_t> received,
                                              LatticeWorkspace& ws) const;

    // Batched lockstep evidence (BatchLatticeEngine, batch_lattice.hpp;
    // implemented in batch_lattice.cpp). Each takes one lane per sequence;
    // transmitted lengths must agree across lanes (that is the lockstep
    // shape), received lengths may be ragged. Every lane's result is
    // bit-identical to the scalar call on that lane alone. The batch engine
    // is forward-only: posteriors() has no batched form and runs one
    // sequence at a time.
    using SymbolSpan = std::span<const std::uint8_t>;

    /// Batched log2_likelihood: lane i pairs transmitted[i] with
    /// received[i].
    [[nodiscard]] std::vector<LaneEvidence> log2_likelihood_batch(
        std::span<const SymbolSpan> transmitted, std::span<const SymbolSpan> received,
        LatticeWorkspace& ws) const;

    /// Batched log2_prior_marginal: one shared priors matrix, one received
    /// sequence per lane.
    [[nodiscard]] std::vector<LaneEvidence> log2_prior_marginal_batch(
        const util::Matrix& priors, std::span<const SymbolSpan> received,
        LatticeWorkspace& ws) const;

private:
    DriftParams params_;
    /// Shared so DriftHmm stays cheaply copyable; the tables are immutable.
    std::shared_ptr<const DriftTables> tables_;
};

}  // namespace ccap::info
