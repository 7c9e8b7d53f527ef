// Batched evidence entry points over BatchLatticeEngine (batch_lattice.hpp).
//
// Each operation packs its lanes into the workspace's SoA arenas, runs the
// lockstep forward pass with one of the emission-plane fillers below, and
// reads back each lane's evidence — bit-identical to the scalar call on
// that lane, by the engine's row identity.
#include "ccap/info/batch_lattice.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ccap::info {

namespace {

void check_symbols(std::span<const std::uint8_t> seq, unsigned alphabet, const char* what) {
    for (std::uint8_t s : seq)
        if (s >= alphabet)
            throw std::out_of_range(std::string("DriftHmm: ") + what +
                                    " symbol out of alphabet");
}

/// Lockstep shape check: every lane must share one transmitted length.
std::size_t lockstep_tx_len(std::span<const DriftHmm::SymbolSpan> transmitted,
                            const char* who) {
    const std::size_t n = transmitted.empty() ? 0 : transmitted[0].size();
    for (const auto& t : transmitted)
        if (t.size() != n)
            throw std::invalid_argument(std::string(who) +
                                        ": lockstep lanes need equal transmitted lengths");
    return n;
}

/// Emission-plane fills, one call per row over the row's emission window
/// (BatchLatticeEngine::forward). Plane p of the window holds lane l's
/// factor for received symbol rxr[p * lanes + l]; `lanes` is the padded
/// lane stride (BatchLatticeEngine::lane_stride()), and the pad lanes'
/// selectors are valid symbol 0, so pad entries stay finite.
///
/// Tx-conditioned operations: the value at lane l is
/// emit_tab[rxr[l] * alphabet + tx_l], a gather no vector path can touch.
/// The binary-alphabet fast path (every Monte-Carlo and watermark channel)
/// builds two lane vectors per row — the emissions a lane would produce for
/// received 0 and received 1 — and the window fill becomes the dispatched
/// select_lanes_row kernel. Every selected value is the exact table entry
/// the gather would have loaded (the scalar reference select and the vector
/// blends pick the same bits), so all paths are bit-identical.
struct TxEmitPlane {
    const DriftTables* tables;
    unsigned alphabet;
    const std::uint8_t* tx;  // SoA pack: symbol of lane l at row j is tx[j * lanes + l]
    std::size_t lanes;
    std::span<double> e01;  // 2 * lanes scratch: emissions for received 0 | received 1
    const LaneKernels* kernels;

    void operator()(double* ed, std::size_t j, const std::uint8_t* rxr, std::size_t planes) {
        const std::size_t L = lanes;
        const std::uint8_t* txr = tx + j * L;
        const double* tab = tables->emit_tab.data();
        if (alphabet == 2) {
            kernels->select_const(e01.data(), txr, tab[0], tab[1], L);
            kernels->select_const(e01.data() + L, txr, tab[2], tab[3], L);
            kernels->select_lanes_row(ed, rxr, e01.data(), e01.data() + L, planes, L);
        } else {
            for (std::size_t p = 0; p < planes; ++p)
                for (std::size_t l = 0; l < L; ++l)
                    ed[p * L + l] =
                        tab[static_cast<std::size_t>(rxr[p * L + l]) * alphabet + txr[l]];
        }
    }
};

/// Prior-weighted operations: the factor depends only on (row, received
/// symbol), so each row costs alphabet dot products (DriftTables::
/// emit_prior, as the scalar engine) and the window fill is a tiny-table
/// lookup — one select_const over the whole window when binary.
struct PriorEmitPlane {
    const util::Matrix* priors;
    const DriftTables* tables;
    unsigned alphabet;
    std::size_t lanes;
    std::span<double> vals;
    const LaneKernels* kernels;

    void operator()(double* ed, std::size_t j, const std::uint8_t* rxr, std::size_t planes) {
        const auto q = priors->row(j);
        for (unsigned rr = 0; rr < alphabet; ++rr)
            vals[rr] = tables->emit_prior(static_cast<std::uint8_t>(rr), q);
        if (alphabet == 2) {
            // Same exact-table-entry select as TxEmitPlane.
            kernels->select_const(ed, rxr, vals[0], vals[1], planes * lanes);
        } else {
            for (std::size_t i = 0; i < planes * lanes; ++i) ed[i] = vals[rxr[i]];
        }
    }
};

/// Per-lane-parameter variant of TxEmitPlane: the emission table differs by
/// lane, so the two per-row lane vectors select between the engine's SoA
/// emission-table planes instead of two scalar entries. Every selected
/// value is the exact per-lane table entry a scalar gather would load, so
/// all SIMD paths stay bit-identical. Padding columns of the planes
/// replicate lane 0.
struct TxEmitPlanePerLane {
    const BatchLatticeEngine* eng;
    unsigned alphabet;
    const std::uint8_t* tx;  // SoA pack: symbol of lane l at row j is tx[j * lanes + l]
    std::size_t lanes;
    std::span<double> e01;   // 2 * lanes scratch: emissions for received 0 | received 1
    const LaneKernels* kernels;

    void operator()(double* ed, std::size_t j, const std::uint8_t* rxr, std::size_t planes) {
        const std::size_t L = lanes;
        const std::uint8_t* txr = tx + j * L;
        if (alphabet == 2) {
            kernels->select_lanes(e01.data(), txr, eng->etab_plane(0, 0),
                                  eng->etab_plane(0, 1), L);
            kernels->select_lanes(e01.data() + L, txr, eng->etab_plane(1, 0),
                                  eng->etab_plane(1, 1), L);
            kernels->select_lanes_row(ed, rxr, e01.data(), e01.data() + L, planes, L);
        } else {
            for (std::size_t p = 0; p < planes; ++p)
                for (std::size_t l = 0; l < L; ++l)
                    ed[p * L + l] = eng->emit_lane(l, rxr[p * L + l], txr[l]);
        }
    }
};

/// Per-lane-parameter variant of PriorEmitPlane: each row costs alphabet
/// per-lane dot products accumulated with the axpy kernel — the multiply
/// q[s] * etab[r][s] matches LatticeEngine::emit_prior bit for bit (IEEE
/// multiplication commutes, adds run in the same s-ascending order).
struct PriorEmitPlanePerLane {
    const util::Matrix* priors;
    const BatchLatticeEngine* eng;
    unsigned alphabet;
    std::size_t lanes;
    std::span<double> vals;  // alphabet * lanes plane: row r's per-lane factors
    const LaneKernels* kernels;

    void operator()(double* ed, std::size_t j, const std::uint8_t* rxr, std::size_t planes) {
        const std::size_t L = lanes;
        const auto q = priors->row(j);
        for (unsigned rr = 0; rr < alphabet; ++rr) {
            double* vr = vals.data() + static_cast<std::size_t>(rr) * L;
            std::fill(vr, vr + L, 0.0);
            for (std::size_t s = 0; s < q.size(); ++s)
                kernels->axpy(vr, eng->etab_plane(static_cast<std::uint8_t>(rr),
                                                  static_cast<std::uint8_t>(s)),
                              q[s], L);
        }
        if (alphabet == 2) {
            kernels->select_lanes_row(ed, rxr, vals.data(), vals.data() + L, planes, L);
        } else {
            for (std::size_t p = 0; p < planes; ++p)
                for (std::size_t l = 0; l < L; ++l)
                    ed[p * L + l] = vals[static_cast<std::size_t>(rxr[p * L + l]) * L + l];
        }
    }
};

void check_priors(const util::Matrix& priors, unsigned alphabet, const char* who) {
    if (priors.cols() != alphabet)
        throw std::invalid_argument(std::string(who) + ": priors cols != alphabet");
    if (!priors.is_row_stochastic(1e-6) && priors.rows() > 0)
        throw std::invalid_argument(std::string(who) + ": priors not row-stochastic");
}

/// SoA pack of the transmitted lanes into the workspace: the symbol of
/// lane l at row j lands at [j * lane_stride + l].
const std::uint8_t* pack_tx(std::span<const DriftHmm::SymbolSpan> transmitted,
                            std::size_t n, std::size_t lane_stride, LatticeWorkspace& ws) {
    const std::span<std::uint8_t> tx =
        ws.tx_bytes(std::max<std::size_t>(1, n * lane_stride));
    std::fill(tx.begin(), tx.end(), 0);  // pad lanes carry valid symbol 0
    for (std::size_t l = 0; l < transmitted.size(); ++l)
        for (std::size_t j = 0; j < n; ++j) tx[j * lane_stride + l] = transmitted[l][j];
    return tx.data();
}

}  // namespace

std::vector<LaneEvidence> DriftHmm::log2_likelihood_batch(
    std::span<const SymbolSpan> transmitted, std::span<const SymbolSpan> received,
    LatticeWorkspace& ws) const {
    if (transmitted.size() != received.size())
        throw std::invalid_argument("DriftHmm::log2_likelihood_batch: lane count mismatch");
    const std::size_t L = transmitted.size();
    std::vector<LaneEvidence> out(L);
    if (L == 0) return out;
    const std::size_t n = lockstep_tx_len(transmitted, "DriftHmm::log2_likelihood_batch");
    for (std::size_t l = 0; l < L; ++l) {
        check_symbols(transmitted[l], params_.alphabet, "transmitted");
        check_symbols(received[l], params_.alphabet, "received");
    }

    BatchLatticeEngine eng(params_, *tables_, received, n, ws);
    const std::size_t Lp = eng.lane_stride();
    TxEmitPlane emit_pt{tables_.get(),
                        params_.alphabet,
                        pack_tx(transmitted, n, Lp, ws),
                        Lp,
                        ws.scratch2(2 * Lp),
                        &eng.kernels()};
    eng.forward(emit_pt);
    for (std::size_t l = 0; l < L; ++l) out[l].log2_evidence = eng.evidence(l);
    return out;
}

std::vector<LaneEvidence> DriftHmm::log2_prior_marginal_batch(
    const util::Matrix& priors, std::span<const SymbolSpan> received,
    LatticeWorkspace& ws) const {
    check_priors(priors, params_.alphabet, "DriftHmm::log2_prior_marginal_batch");
    const std::size_t L = received.size();
    std::vector<LaneEvidence> out(L);
    if (L == 0) return out;
    for (std::size_t l = 0; l < L; ++l)
        check_symbols(received[l], params_.alphabet, "received");

    BatchLatticeEngine eng(params_, *tables_, received, priors.rows(), ws);
    PriorEmitPlane emit_p{&priors,
                          tables_.get(),
                          params_.alphabet,
                          eng.lane_stride(),
                          ws.scratch3(params_.alphabet),
                          &eng.kernels()};
    eng.forward(emit_p);
    for (std::size_t l = 0; l < L; ++l) out[l].log2_evidence = eng.evidence(l);
    return out;
}

std::vector<LaneEvidence> log2_likelihood_batch_per_lane(
    std::span<const DriftParams> lane_params,
    std::span<const std::span<const std::uint8_t>> transmitted,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws) {
    if (transmitted.size() != received.size() || transmitted.size() != lane_params.size())
        throw std::invalid_argument("log2_likelihood_batch_per_lane: lane count mismatch");
    const std::size_t L = transmitted.size();
    std::vector<LaneEvidence> out(L);
    if (L == 0) return out;
    const std::size_t n = lockstep_tx_len(transmitted, "log2_likelihood_batch_per_lane");
    const unsigned alphabet = lane_params[0].alphabet;
    for (std::size_t l = 0; l < L; ++l) {
        check_symbols(transmitted[l], alphabet, "transmitted");
        check_symbols(received[l], alphabet, "received");
    }

    BatchLatticeEngine eng(lane_params, received, n, ws);
    const std::size_t Lp = eng.lane_stride();
    TxEmitPlanePerLane emit_pt{&eng,
                               alphabet,
                               pack_tx(transmitted, n, Lp, ws),
                               Lp,
                               ws.scratch2(2 * Lp),
                               &eng.kernels()};
    eng.forward(emit_pt);
    for (std::size_t l = 0; l < L; ++l) out[l].log2_evidence = eng.evidence(l);
    return out;
}

std::vector<LaneEvidence> log2_prior_marginal_batch_per_lane(
    std::span<const DriftParams> lane_params, const util::Matrix& priors,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws) {
    if (received.size() != lane_params.size())
        throw std::invalid_argument(
            "log2_prior_marginal_batch_per_lane: lane count mismatch");
    const std::size_t L = received.size();
    std::vector<LaneEvidence> out(L);
    if (L == 0) return out;
    const unsigned alphabet = lane_params[0].alphabet;
    check_priors(priors, alphabet, "log2_prior_marginal_batch_per_lane");
    for (std::size_t l = 0; l < L; ++l) check_symbols(received[l], alphabet, "received");

    BatchLatticeEngine eng(lane_params, received, priors.rows(), ws);
    const std::size_t Lp = eng.lane_stride();
    PriorEmitPlanePerLane emit_p{&priors, &eng, alphabet, Lp,
                                 ws.scratch3(static_cast<std::size_t>(alphabet) * Lp),
                                 &eng.kernels()};
    eng.forward(emit_p);
    for (std::size_t l = 0; l < L; ++l) out[l].log2_evidence = eng.evidence(l);
    return out;
}

}  // namespace ccap::info
