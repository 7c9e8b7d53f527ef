#include "ccap/info/deletion_bounds.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/entropy.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/thread_pool.hpp"

namespace ccap::info {

double erasure_upper_bound(double p_d, unsigned bits_per_symbol) {
    if (p_d < 0.0 || p_d > 1.0) throw std::domain_error("erasure_upper_bound: p_d outside [0,1]");
    if (bits_per_symbol == 0) throw std::invalid_argument("erasure_upper_bound: zero-bit symbols");
    return static_cast<double>(bits_per_symbol) * (1.0 - p_d);
}

double gallager_deletion_lower_bound(double p_d) {
    if (p_d < 0.0 || p_d > 1.0)
        throw std::domain_error("gallager_deletion_lower_bound: p_d outside [0,1]");
    // The random-coding argument behind 1 - H(p) only applies for p <= 1/2;
    // past that point the expression rises again and would cross the
    // erasure upper bound, so we report 0 there.
    if (p_d > 0.5) return 0.0;
    return std::max(0.0, 1.0 - binary_entropy(p_d));
}

double mitzenmacher_drinea_lower_bound(double p_d) {
    if (p_d < 0.0 || p_d > 1.0)
        throw std::domain_error("mitzenmacher_drinea_lower_bound: p_d outside [0,1]");
    return (1.0 - p_d) / 9.0;
}

double small_p_deletion_expansion(double p_d) {
    if (p_d < 0.0 || p_d > 1.0)
        throw std::domain_error("small_p_deletion_expansion: p_d outside [0,1]");
    if (p_d == 0.0) return 1.0;
    constexpr double kA = 1.15416377;  // Kanoria & Montanari (2013)
    return std::max(0.0, 1.0 + p_d * std::log2(p_d) - kA * p_d);
}

std::vector<std::uint8_t> simulate_drift_channel(std::span<const std::uint8_t> transmitted,
                                                 const DriftParams& params, util::Rng& rng) {
    params.validate();
    const unsigned m = params.alphabet;
    for (std::uint8_t s : transmitted)
        if (s >= m) throw std::out_of_range("simulate_drift_channel: symbol out of alphabet");

    std::vector<std::uint8_t> received;
    received.reserve(transmitted.size() + 8);
    const auto random_symbol = [&] {
        return static_cast<std::uint8_t>(rng.uniform_below(m));
    };
    const auto substitute = [&](std::uint8_t s) {
        if (params.p_s <= 0.0 || !rng.bernoulli(params.p_s)) return s;
        // Uniform over the other m-1 symbols.
        auto r = static_cast<std::uint8_t>(rng.uniform_below(m - 1));
        return static_cast<std::uint8_t>(r >= s ? r + 1 : r);
    };

    for (std::uint8_t s : transmitted) {
        for (;;) {
            const double u = rng.uniform();
            if (u < params.p_i) {
                received.push_back(random_symbol());  // insertion, symbol stays queued
            } else if (u < params.p_i + params.p_d) {
                break;  // deletion consumes the queued symbol silently
            } else {
                received.push_back(substitute(s));  // transmission
                break;
            }
        }
    }
    // Trailing insertions after the queue empties.
    while (rng.bernoulli(params.p_i)) received.push_back(random_symbol());
    return received;
}

std::vector<std::uint8_t> simulate_markov_source(const MarkovSource& source, unsigned alphabet,
                                                 std::size_t length, util::Rng& rng) {
    source.validate(alphabet);
    std::vector<std::uint8_t> out(length);
    if (length == 0) return out;
    // categorical guarantees an in-range draw for the validated (hence
    // non-empty, stochastic) rows, so no clamping is needed.
    out[0] = static_cast<std::uint8_t>(rng.categorical(source.initial));
    for (std::size_t i = 1; i < length; ++i)
        out[i] = static_cast<std::uint8_t>(rng.categorical(source.transition.row(out[i - 1])));
    return out;
}

namespace {

/// Information per input symbol of one block. A non-finite evidence means
/// the block fell outside the lattice truncation: score it zero
/// information.
double info_per_symbol(double log_cond, double log_marg, std::size_t block_len) {
    return (std::isfinite(log_cond) && std::isfinite(log_marg))
               ? (log_cond - log_marg) / static_cast<double>(block_len)
               : 0.0;
}

/// Adaptive-precision Monte-Carlo driver shared by every estimator.
///
/// One root seed is split off the caller's Rng; block b always runs on
/// substream b of that root and the per-block samples fold in block order
/// through the compensated accumulator — so the samples, the fold, and
/// therefore the SEM trajectory are pure functions of (root, options,
/// params), independent of threads and scheduling.
///
/// Fixed mode (target_sem == 0) runs one round of exactly num_blocks
/// blocks: the historical behavior, bit for bit. Adaptive mode runs rounds
/// of mc_round_blocks blocks and re-checks the fold-order SEM after each
/// round, stopping at the first round boundary where SEM <= target_sem or
/// at mc_block_cap blocks. Because the check only reads the deterministic
/// fold, the data-dependent stopping time is itself seed-deterministic.
///
/// Within a round, work is parallelized at lockstep-tile granularity with
/// tile boundaries aligned to global multiples of `batch` counted from
/// block 0 (never from the round start), so the tile partition of blocks
/// [0, spent) is independent of where the rounds fell.
/// sample_range(root, b0, out) must fill out[i] with the sample of block
/// b0 + i, serially (the driver owns the parallelism); every range it
/// receives lies within one aligned tile.
template <typename RangeFn>
MiEstimate adaptive_mc_estimate(const McOptions& opts, std::size_t batch, util::Rng& rng,
                                RangeFn&& sample_range) {
    const std::uint64_t root = rng.next();
    const std::size_t cap = mc_block_cap(opts);
    const bool adaptive = opts.target_sem > 0.0;
    const std::size_t round = adaptive ? mc_round_blocks(opts) : cap;

    util::CompensatedStats stats;
    std::vector<double> samples;
    std::size_t spent = 0;
    bool converged = !adaptive;
    while (spent < cap) {
        const std::size_t b0 = spent;
        const std::size_t b1 = std::min(cap, b0 + round);
        samples.assign(b1 - b0, 0.0);
        const std::size_t t0 = b0 / batch;
        const std::size_t t1 = (b1 + batch - 1) / batch;
        util::parallel_for(
            util::ThreadPool::shared(), t1 - t0,
            [&](std::size_t ti) {
                const std::size_t t = t0 + ti;
                const std::size_t lo = std::max(b0, t * batch);
                const std::size_t hi = std::min(b1, (t + 1) * batch);
                sample_range(root, lo, std::span<double>(samples).subspan(lo - b0, hi - lo));
            },
            opts.threads);
        for (double v : samples) stats.add(v);
        spent = b1;
        if (adaptive && spent >= 2 && stats.sem() <= opts.target_sem) {
            converged = true;
            break;
        }
    }
    return {std::max(0.0, stats.mean()), stats.sem(), spent, opts.block_len, converged};
}

}  // namespace

std::size_t mc_round_blocks(const McOptions& opts) {
    return std::max<std::size_t>(2, opts.num_blocks);
}

std::size_t mc_block_cap(const McOptions& opts) {
    if (!(opts.target_sem > 0.0)) return opts.num_blocks;
    constexpr std::size_t kDefaultCapRounds = 64;
    const std::size_t cap =
        opts.max_blocks ? opts.max_blocks : kDefaultCapRounds * mc_round_blocks(opts);
    return std::max<std::size_t>(2, cap);
}

std::size_t resolved_point_tile(const McOptions& opts, std::size_t num_points) {
    if (opts.point_tile == 0 || num_points == 0) return 0;
    std::size_t g = opts.point_tile;
    if (g == kMcPointTileAuto) {
        // Auto: a small multiple of the active vector width — enough points
        // per tile to amortize the shared tape and fill vectors, few enough
        // that the lanes' union drift window, which follows the longest
        // received sequence, stays close to each lane's own.
        const std::size_t W = util::simd_vector_doubles(util::active_simd_path());
        g = std::max<std::size_t>(W, 8);
        g = g / W * W;
    }
    // Clamp, never pad: a tile smaller than the vector width runs unpadded
    // through the masked-tail kernels instead of paying for dead lanes.
    return std::min(g, num_points);
}

std::size_t resolved_mc_batch(const McOptions& opts, const DriftParams& params) {
    // Size the tile so the hot set of a lockstep row step — previous and
    // current alpha rows plus the emission plane, each width * batch
    // doubles — stays around 32 KiB (L1-resident on common cores), clamped
    // to a sensible lane range.
    const std::size_t width = static_cast<std::size_t>(2 * params.max_drift + 1);
    constexpr std::size_t kTileBytes = 32 * 1024;
    std::size_t b = kTileBytes / (3 * width * sizeof(double));
    b = std::clamp<std::size_t>(b, 4, 32);
    // Shape the tile for the active SIMD path: a multiple of the vector
    // width (the batched engine pads lanes to it, so anything else wastes
    // kernel lanes). Lanes are bit-identical at any tile width, so this is
    // a speed choice only; it does not read opts.threads, so one
    // configuration runs one tile shape at every thread count.
    const std::size_t W = util::simd_vector_doubles(util::active_simd_path());
    b = std::max(W, b / W * W);
    // A round never fills more lanes than it has blocks. Clamping to the
    // round (at least 2) rather than num_blocks keeps adaptive one-block
    // rounds on two-lane tiles.
    if (opts.num_blocks > 0) b = std::min(b, mc_round_blocks(opts));
    return b;
}

std::size_t crn_sweep_blocks(const McOptions& opts, const DriftParams& params,
                             std::size_t tile_points) {
    // The chunk width is a LANE-count target: a tile of G points packs G
    // lanes per block, so dividing by G already scales it down. Resolve it
    // without the round clamp — in adaptive mode num_blocks is the (small)
    // round size, and clamping would shrink chunks to one block each,
    // rebuilding the engine and the per-lane tables per block instead of
    // per ~batch lanes.
    McOptions lane_target = opts;
    lane_target.num_blocks = 0;
    const std::size_t kb =
        std::max<std::size_t>(1, resolved_mc_batch(lane_target, params) / tile_points);
    // No chunk crosses a round boundary, so a wider one would only split.
    return std::min({kb, mc_round_blocks(opts), mc_block_cap(opts)});
}

namespace {

/// Per-estimate memo of the uniform-prior marginal log2-evidence, keyed by
/// received length (docs/THEORY.md section 17). When the prior rows are
/// identical and every received symbol r gets the same prior emission
/// factor — the same double — nothing in the exact forward pass reads the
/// symbols, so log2 P(y) is a function of |y| alone, bit for bit. Enabled
/// only then; otherwise it stays empty and every lookup misses. Slots
/// cover lengths 0 .. 2n + max_drift, NaN marking an unfilled one:
/// trailing insertions make any length reachable, and with P_i up to
/// about 0.3 the received lengths routinely pass n + max_drift.
/// Longer ones are computed but not kept. The slots are atomics because
/// the tiles of one estimate may run concurrently, and a racing fill
/// stores identical bits.
class MarginalLengthMemo {
public:
    MarginalLengthMemo(const DriftHmm& hmm, const util::Matrix& priors) {
        if (!length_only(hmm, priors)) return;
        slots_ = std::vector<std::atomic<double>>(
            2 * priors.rows() + static_cast<std::size_t>(hmm.params().max_drift) + 1);
        for (auto& slot : slots_) slot.store(kUnfilled);
    }

    [[nodiscard]] bool enabled() const noexcept { return !slots_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

    /// The cached evidence for received length m, if any.
    [[nodiscard]] bool lookup(std::size_t m, double& out) const noexcept {
        if (m >= slots_.size()) return false;
        out = slots_[m].load();
        return !std::isnan(out);
    }

    void store(std::size_t m, double value) noexcept {
        if (m < slots_.size()) slots_[m].store(value);
    }

private:
    static constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();

    /// Identical prior rows, and one prior emission factor for every
    /// received symbol — compared as bits.
    static bool length_only(const DriftHmm& hmm, const util::Matrix& priors) {
        if (priors.rows() == 0) return false;
        const auto same_bits = [](double a, double b) {
            return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
        };
        const auto q = priors.row(0);
        for (std::size_t j = 1; j < priors.rows(); ++j)
            if (!std::ranges::equal(priors.row(j), q, same_bits)) return false;
        const DriftTables& tables = hmm.tables();
        const double e0 = tables.emit_prior(0, q);
        for (std::size_t r = 1; r < q.size(); ++r)
            if (!same_bits(tables.emit_prior(static_cast<std::uint8_t>(r), q), e0))
                return false;
        return true;
    }

    std::vector<std::atomic<double>> slots_;
};

/// Serial sampler of MI blocks [b0, b0 + out.size()), the one tile loop of
/// both single-point estimators: each block draws its transmitted symbols
/// (Inputs::draw) and then its received symbols on its own substream of
/// `root`, and the point-prior conditionals of a tile sweep the lattice in
/// lockstep. Tiles align to global multiples of `batch` counted from block
/// 0, so the tile partition is a function of the block indices alone and
/// any carve-up of [0, N) into ranges produces the same sweeps.
/// Inputs::marginals gives each lane's log2 P(y); batched lanes are
/// bit-identical to scalar passes. One leased workspace
/// per call: the lattice passes reuse the same arenas, allocation-free at
/// steady state.
template <typename Inputs>
struct TileSampler {
    const DriftHmm& hmm;
    std::size_t block_len;
    std::size_t batch;
    Inputs inputs;

    void operator()(std::uint64_t root, std::size_t b0, std::span<double> out) const {
        const DriftParams& params = hmm.params();
        ScopedWorkspace ws;
        std::size_t pos = 0;
        while (pos < out.size()) {
            const std::size_t b = b0 + pos;
            const std::size_t tile_end = (b / batch + 1) * batch;  // global alignment
            const std::size_t lanes = std::min(out.size() - pos, tile_end - b);
            std::vector<std::vector<std::uint8_t>> tx(lanes), rx(lanes);
            std::vector<DriftHmm::SymbolSpan> txv(lanes), rxv(lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                util::Rng block_rng(util::substream_seed(root, b + i));
                tx[i] = inputs.draw(params.alphabet, block_len, block_rng);
                rx[i] = simulate_drift_channel(tx[i], params, block_rng);
                txv[i] = tx[i];
                rxv[i] = rx[i];
            }
            const std::vector<LaneEvidence> cond = hmm.log2_likelihood_batch(txv, rxv, ws);
            const std::vector<double> marg = inputs.marginals(hmm, rxv, ws);
            for (std::size_t i = 0; i < lanes; ++i)
                out[pos + i] = info_per_symbol(cond[i].log2_evidence, marg[i], block_len);
            pos += lanes;
        }
    }
};

/// iid uniform inputs. The uniform-prior marginal is read from the length
/// memo; a tile with misses runs one marginal pass whose lanes are the
/// distinct missing lengths plus the uncached lengths nearest them (zero
/// symbols: the evidence reads only the length), so every value — cached
/// or not — has the bits of a full pass on the block itself. With the memo
/// disabled the tile sweeps its own received sequences, one lane per block.
struct IidInputs {
    const util::Matrix& priors;
    MarginalLengthMemo& memo;

    static std::vector<std::uint8_t> draw(unsigned m, std::size_t n, util::Rng& rng) {
        std::vector<std::uint8_t> tx(n);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(m));
        return tx;
    }

    /// Marginal log2-evidence of each lane of a tile, at most one lattice
    /// pass.
    std::vector<double> marginals(const DriftHmm& hmm, std::span<const DriftHmm::SymbolSpan> rxv,
                                  LatticeWorkspace& ws) const {
        const std::size_t lanes = rxv.size();
        std::vector<double> marg(lanes);
        if (!memo.enabled()) {
            const std::vector<LaneEvidence> full =
                hmm.log2_prior_marginal_batch(priors, rxv, ws);
            for (std::size_t i = 0; i < lanes; ++i) marg[i] = full[i].log2_evidence;
            return marg;
        }
        std::vector<std::size_t> lengths;  // distinct missing lengths, then spares
        for (std::size_t i = 0; i < lanes; ++i)
            if (!memo.lookup(rxv[i].size(), marg[i]) &&
                std::find(lengths.begin(), lengths.end(), rxv[i].size()) == lengths.end())
                lengths.push_back(rxv[i].size());
        if (lengths.empty()) return marg;
        // Spare lanes ride the same pass: fill them with the uncached
        // lengths nearest the misses, the likeliest next requests.
        const std::size_t misses = lengths.size();
        const auto add_spare = [&](std::size_t len) {
            double cached = 0.0;
            if (lengths.size() < lanes && len < memo.size() && !memo.lookup(len, cached) &&
                std::find(lengths.begin(), lengths.end(), len) == lengths.end())
                lengths.push_back(len);
        };
        for (std::size_t d = 1; d < memo.size() && lengths.size() < lanes; ++d)
            for (std::size_t k = 0; k < misses; ++k) {
                const std::size_t miss = lengths[k];
                if (miss >= d) add_spare(miss - d);
                add_spare(miss + d);
            }
        const std::vector<std::uint8_t> zeros(*std::max_element(lengths.begin(), lengths.end()),
                                              0);
        std::vector<DriftHmm::SymbolSpan> spans;
        spans.reserve(lengths.size());
        for (const std::size_t len : lengths) spans.emplace_back(zeros.data(), len);
        const std::vector<LaneEvidence> pass =
            hmm.log2_prior_marginal_batch(priors, spans, ws);
        for (std::size_t k = 0; k < lengths.size(); ++k)
            memo.store(lengths[k], pass[k].log2_evidence);
        for (std::size_t i = 0; i < lanes; ++i) {
            const std::size_t k = static_cast<std::size_t>(
                std::find(lengths.begin(), lengths.begin() + misses, rxv[i].size()) -
                lengths.begin());
            if (k < misses) marg[i] = pass[k].log2_evidence;
        }
        return marg;
    }
};

/// First-order Markov inputs. The joint (drift, symbol) Markov marginal has
/// no batched form and runs once per lane.
struct MarkovInputs {
    const MarkovSource& source;
    std::size_t block_len;

    std::vector<std::uint8_t> draw(unsigned m, std::size_t n, util::Rng& rng) const {
        return simulate_markov_source(source, m, n, rng);
    }

    std::vector<double> marginals(const DriftHmm& hmm, std::span<const DriftHmm::SymbolSpan> rxv,
                                  LatticeWorkspace& ws) const {
        std::vector<double> marg(rxv.size());
        for (std::size_t i = 0; i < rxv.size(); ++i)
            marg[i] = hmm.log2_markov_marginal(source, block_len, rxv[i], ws);
        return marg;
    }
};

}  // namespace

MiEstimate markov_mutual_information_rate(const DriftParams& params, const MarkovSource& source,
                                          const McOptions& opts, util::Rng& rng) {
    params.validate();
    source.validate(params.alphabet);
    if (opts.block_len == 0 || opts.num_blocks == 0)
        throw std::invalid_argument("markov_mutual_information_rate: empty experiment");

    const DriftHmm hmm(params);
    const std::size_t batch = resolved_mc_batch(opts, params);
    const TileSampler<MarkovInputs> sampler{hmm, opts.block_len, batch,
                                            {source, opts.block_len}};
    return adaptive_mc_estimate(opts, batch, rng, sampler);
}

MiEstimate iid_mutual_information_rate(const DriftParams& params, const McOptions& opts,
                                       util::Rng& rng) {
    params.validate();
    if (opts.block_len == 0 || opts.num_blocks == 0)
        throw std::invalid_argument("iid_mutual_information_rate: empty experiment");

    const DriftHmm hmm(params);
    const util::Matrix uniform_priors(opts.block_len, params.alphabet,
                                      1.0 / static_cast<double>(params.alphabet));
    const std::size_t batch = resolved_mc_batch(opts, params);
    MarginalLengthMemo memo(hmm, uniform_priors);
    const TileSampler<IidInputs> sampler{hmm, opts.block_len, batch, {uniform_priors, memo}};
    return adaptive_mc_estimate(opts, batch, rng, sampler);
}

namespace {

/// Shared common-random-numbers variate tape of one Monte-Carlo block:
/// the transmitted symbols are drawn first (a FIXED number of draws —
/// inversion floor(u*m), never uniform_below's rejection loop, so the
/// tape's layout is a pure function of (root, block)), then channel-use
/// uniform triples (u_event, u_sym, u_sub) are drawn sequentially on
/// demand. Every point of a tile walks the same triple sequence,
/// interpreting each against its own thresholds — the CRN coupling of
/// docs/THEORY.md section 15.
struct CrnTape {
    util::Rng rng;
    std::vector<std::uint8_t> tx;               ///< block_len input symbols
    std::vector<double> u_event, u_sym, u_sub;  ///< per-channel-use triples

    CrnTape(std::uint64_t root, std::size_t block, std::size_t block_len, unsigned m)
        : rng(util::substream_seed(root, block)), tx(block_len) {
        for (auto& s : tx) s = symbol_from(rng.uniform(), m);
    }

    static std::uint8_t symbol_from(double u, unsigned m) {
        const auto v = static_cast<unsigned>(u * static_cast<double>(m));
        return static_cast<std::uint8_t>(v < m ? v : m - 1);
    }

    void ensure(std::size_t n) {
        while (u_event.size() < n) {
            u_event.push_back(rng.uniform());
            u_sym.push_back(rng.uniform());
            u_sub.push_back(rng.uniform());
        }
    }
};

/// Realize the tape's block under `params`: the generative walk of
/// simulate_drift_channel, driven by the shared triples. For any single
/// point the triples are fresh iid uniforms read at a stopping time, so
/// the realized received sequence has EXACTLY the Definition-1 channel law
/// — sharing the tape across points changes joint, not marginal,
/// distributions. Nearby points interpret most triples identically, so
/// their realizations (and MI samples) are positively correlated.
std::vector<std::uint8_t> crn_realize(CrnTape& tape, const DriftParams& params) {
    const unsigned m = params.alphabet;
    std::vector<std::uint8_t> rx;
    rx.reserve(tape.tx.size() + 8);
    std::size_t k = 0;
    const auto take = [&](double& ue, double& us, double& ub) {
        tape.ensure(k + 1);
        ue = tape.u_event[k];
        us = tape.u_sym[k];
        ub = tape.u_sub[k];
        ++k;
    };
    double ue = 0.0, us = 0.0, ub = 0.0;
    for (std::uint8_t s : tape.tx) {
        for (;;) {
            take(ue, us, ub);
            if (ue < params.p_i) {
                rx.push_back(CrnTape::symbol_from(us, m));  // insertion
            } else if (ue < params.p_i + params.p_d) {
                break;  // deletion
            } else {
                std::uint8_t sym = s;  // transmission (maybe substituted)
                if (params.p_s > 0.0 && ub < params.p_s) {
                    const std::uint8_t r = CrnTape::symbol_from(us, m - 1);
                    sym = static_cast<std::uint8_t>(r >= s ? r + 1 : r);
                }
                rx.push_back(sym);
                break;
            }
        }
    }
    for (;;) {  // trailing insertions
        take(ue, us, ub);
        if (!(ue < params.p_i)) break;
        rx.push_back(CrnTape::symbol_from(us, m));
    }
    return rx;
}

/// One CRN point tile: per-point folds plus the per-block sample history
/// the paired-difference SEMs are computed from.
struct CrnTileState {
    std::vector<util::CompensatedStats> stats;   ///< per-point fold
    std::vector<std::vector<double>> history;    ///< per-point samples, block order
    std::vector<std::size_t> spent;              ///< per-point blocks folded
    std::vector<char> converged;
};

/// Advance blocks [b0, b1) of the tile for the active point subset: each
/// sweep chunk covers kb consecutive blocks x active.size() points as
/// lanes of one per-lane-parameter lattice pass (lane = block-major, point
/// minor). Chunk boundaries align to global multiples of kb counted from
/// block 0, and every lane's sample is a pure function of its block index
/// and point: thread- and round-invariant. The fold runs serially in
/// (block, point) order.
void crn_run_round(CrnTileState& st, std::span<const CapacityPoint> points,
                   std::span<const std::size_t> active, const util::Matrix& priors,
                   std::uint64_t root, std::size_t block_len, std::size_t kb, std::size_t b0,
                   std::size_t b1, unsigned threads) {
    const std::size_t ga = active.size();
    const unsigned m = points[active[0]].params.alphabet;
    std::vector<double> samples((b1 - b0) * ga, 0.0);
    const std::size_t t0 = b0 / kb;
    const std::size_t t1 = (b1 + kb - 1) / kb;
    util::parallel_for(
        util::ThreadPool::shared(), t1 - t0,
        [&](std::size_t ti) {
            const std::size_t t = t0 + ti;
            const std::size_t lo = std::max(b0, t * kb);
            const std::size_t hi = std::min(b1, (t + 1) * kb);
            const std::size_t nb = hi - lo;
            const std::size_t lanes = nb * ga;
            ScopedWorkspace ws;
            std::vector<std::vector<std::uint8_t>> txs(nb), rxs(lanes);
            std::vector<DriftParams> lane_params(lanes);
            for (std::size_t i = 0; i < nb; ++i) {
                CrnTape tape(root, lo + i, block_len, m);
                for (std::size_t gi = 0; gi < ga; ++gi) {
                    const std::size_t lane = i * ga + gi;
                    lane_params[lane] = points[active[gi]].params;
                    rxs[lane] = crn_realize(tape, lane_params[lane]);
                }
                txs[i] = std::move(tape.tx);
            }
            std::vector<DriftHmm::SymbolSpan> txv(lanes), rxv(lanes);
            for (std::size_t i = 0; i < nb; ++i)
                for (std::size_t gi = 0; gi < ga; ++gi) {
                    txv[i * ga + gi] = txs[i];
                    rxv[i * ga + gi] = rxs[i * ga + gi];
                }
            const std::vector<LaneEvidence> cond =
                log2_likelihood_batch_per_lane(lane_params, txv, rxv, ws);
            const std::vector<LaneEvidence> marg =
                log2_prior_marginal_batch_per_lane(lane_params, priors, rxv, ws);
            for (std::size_t lane = 0; lane < lanes; ++lane)
                samples[(lo - b0) * ga + lane] = info_per_symbol(
                    cond[lane].log2_evidence, marg[lane].log2_evidence, block_len);
        },
        threads);
    for (std::size_t b = b0; b < b1; ++b)
        for (std::size_t gi = 0; gi < ga; ++gi) {
            const double v = samples[(b - b0) * ga + gi];
            const std::size_t g = active[gi];
            st.stats[g].add(v);
            st.history[g].push_back(v);
            st.spent[g] = b + 1;
        }
}

}  // namespace

std::vector<MiEstimate> iid_mutual_information_rate_points(
    std::span<const CapacityPoint> points, const McOptions& opts, PointSweepReport* report) {
    std::vector<MiEstimate> out(points.size());
    const std::size_t tile = resolved_point_tile(opts, points.size());
    if (report) {
        report->point_tile = tile;
        report->adjacent_diff_sem.assign(points.size() >= 2 ? points.size() - 1 : 0, 0.0);
    }
    if (points.empty()) return out;
    if (opts.block_len == 0 || opts.num_blocks == 0)
        throw std::invalid_argument("iid_mutual_information_rate_points: empty experiment");
    // Independent combination of adjacent SEMs: what every pair reports
    // unless CRN coupling pairs its samples.
    const auto independent_diff_sem = [&](std::size_t i) {
        return std::sqrt(out[i].sem * out[i].sem + out[i + 1].sem * out[i + 1].sem);
    };

    if (tile > 0) {
        // Common-random-numbers mode: tiles of `tile` points share every
        // block's variate tape and ride one per-lane-parameter sweep, so
        // every point needs one lattice shape. Fixed mode (target_sem = 0)
        // is the first round alone: the cap is then num_blocks <= round.
        // Every SEM test is guarded by `adaptive`: at a zero target,
        // `sem <= target_sem` fails for any noisy point and would send
        // fixed-mode points into more rounds.
        const bool adaptive = opts.target_sem > 0.0;
        const std::size_t cap = mc_block_cap(opts);
        const std::size_t round = mc_round_blocks(opts);
        const DriftParams& s0 = points[0].params;
        for (const CapacityPoint& pt : points) {
            pt.params.validate();
            if (pt.params.alphabet != s0.alphabet || pt.params.max_drift != s0.max_drift ||
                pt.params.max_insert_run != s0.max_insert_run)
                throw std::invalid_argument(
                    "iid_mutual_information_rate_points: CRN point tiling needs one "
                    "alphabet/max_drift/max_insert_run across points "
                    "(set point_tile = 0 for heterogeneous spans)");
        }
        // The shared tape is rooted at the first point's seed, split off
        // exactly as a standalone estimator would draw it — unless the
        // caller pins an explicit root (memoizing callers must: a
        // span-derived root makes node values depend on batch grouping).
        std::uint64_t root = opts.crn_root;
        if (root == 0) {
            util::Rng seed_rng(points[0].seed);
            root = seed_rng.next();
        }

        CrnTileState st;
        st.stats.assign(points.size(), {});
        st.history.assign(points.size(), {});
        st.spent.assign(points.size(), 0);
        st.converged.assign(points.size(), 0);
        const util::Matrix priors(opts.block_len, s0.alphabet,
                                  1.0 / static_cast<double>(s0.alphabet));

        for (std::size_t g0 = 0; g0 < points.size(); g0 += tile) {
            const std::size_t gn = std::min(tile, points.size() - g0);
            const std::size_t kb = crn_sweep_blocks(opts, s0, gn);
            std::vector<std::size_t> active(gn);
            for (std::size_t i = 0; i < gn; ++i) active[i] = g0 + i;
            std::size_t b = 0;
            while (!active.empty() && b < cap) {
                const std::size_t b1 = std::min(cap, b + round);
                crn_run_round(st, points, active, priors, root, opts.block_len, kb, b, b1,
                              opts.threads);
                b = b1;
                if (!adaptive) break;
                // Round-synchronous stopping: converged points drop out of
                // later sweeps; the check reads only the point's own
                // deterministic fold, so stopping is thread- and
                // tile-invariant.
                std::vector<std::size_t> still;
                for (std::size_t g : active) {
                    if (st.stats[g].sem() <= opts.target_sem)
                        st.converged[g] = 1;
                    else
                        still.push_back(g);
                }
                active = std::move(still);
            }
        }

        for (std::size_t i = 0; i < points.size(); ++i) {
            const bool conv = !adaptive || st.converged[i] != 0 ||
                              st.stats[i].sem() <= opts.target_sem;
            out[i] = {std::max(0.0, st.stats[i].mean()), st.stats[i].sem(), st.spent[i],
                      opts.block_len, conv};
        }
        if (report) {
            for (std::size_t i = 0; i + 1 < points.size(); ++i) {
                const bool same_tile = i / tile == (i + 1) / tile;
                const std::size_t n =
                    std::min(st.history[i].size(), st.history[i + 1].size());
                if (same_tile && n >= 2) {
                    // Paired over the shared block prefix: the CRN
                    // correlation cancels in the difference.
                    util::CompensatedStats d;
                    for (std::size_t bb = 0; bb < n; ++bb)
                        d.add(st.history[i][bb] - st.history[i + 1][bb]);
                    report->adjacent_diff_sem[i] = d.sem();
                } else {
                    report->adjacent_diff_sem[i] = independent_diff_sem(i);
                }
            }
        }
        return out;
    }

    // Independent streams: every point is the standalone estimator on its
    // own seed, serial inside, so the point axis takes the threads.
    McOptions serial = opts;
    serial.threads = 1;
    util::parallel_for(
        util::ThreadPool::shared(), points.size(),
        [&](std::size_t i) {
            util::Rng rng(points[i].seed);
            out[i] = iid_mutual_information_rate(points[i].params, serial, rng);
        },
        opts.threads);
    if (report)
        for (std::size_t i = 0; i + 1 < out.size(); ++i)
            report->adjacent_diff_sem[i] = independent_diff_sem(i);
    return out;
}

}  // namespace ccap::info
