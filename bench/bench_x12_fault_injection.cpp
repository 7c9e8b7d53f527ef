// X12 (extension) — graceful degradation under fault injection.
//
// The hardened protocols (feedback_protocols.hpp) promise two things the
// paper's perfect-feedback constructions cannot: reliability survives an
// imperfect return path, and throughput degrades smoothly — no cliff — as
// the ACK loss rate and the forward-channel fault profiles worsen. This
// bench measures both:
//   * stop-and-wait rate vs ACK loss, against the exact closed form
//     hardened_stop_and_wait_rate (THEORY.md §12);
//   * counter / go-back-N throughput under the named fault profiles
//     (storms, drift, stuck-at) relative to a fault-free run.
//
// Gates (exit 1 on violation):
//   * every run meets its reliability contract (reliability_rate == 1),
//   * the stop-and-wait rate is within 5% of the closed form at every loss
//     rate,
//   * full-size runs only: each go-back-N and counter rate is at least
//     0.75x the rate recorded for its profile at full size.
// Emits BENCH_JSON; `--smoke` runs a shorter message. The record stamps
// "fault_profile" with the profile suite it was measured under.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/core/fault_injection.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/core/protocol_analysis.hpp"

namespace {

using namespace ccap;

std::vector<std::uint32_t> make_message(std::size_t len, unsigned alphabet,
                                        std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint32_t> msg(len);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(alphabet));
    return msg;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke") smoke = true;

    const std::size_t kMessage = smoke ? 2000 : 20000;
    const core::DiChannelParams p{0.2, 0.0, 0.0, 1};

    ccap::bench::BenchJson json("fault_injection");
    // Identity stamp: which fault-profile suite these numbers were measured
    // under.
    json.field("fault_profile", std::string("none+storms+drift+stuck"));
    json.field("p_d", p.p_d);

    std::size_t runs = 0, reliable_runs = 0;
    bool saw_tracks_closed_form = true, rates_above_floor = true;

    // --- 1. Stop-and-wait rate vs ACK loss, against the closed form -------
    std::printf("X12: hardened stop-and-wait vs ACK loss "
                "(P_d=%.2f, delay=2, timeout=6, %zu symbols)\n\n",
                p.p_d, kMessage);
    std::printf("%-8s | %10s %10s %10s | %s\n", "p_loss", "measured", "predicted",
                "perfect", "reliable");
    for (const double loss : {0.0, 0.1, 0.2, 0.4}) {
        core::FeedbackLinkParams lp;
        lp.p_loss = loss;
        lp.delay = 2;
        core::HardenedOptions opt;
        opt.timeout = 6;
        const auto msg = make_message(kMessage, p.alphabet(), 0xF12);
        core::DeletionInsertionChannel channel(p, 0xF12A);
        core::FeedbackLink link(lp, 0xF12B);
        const auto run = core::run_hardened_stop_and_wait(channel, msg, link, opt);
        const double measured = run.measured_info_rate(1);
        const double predicted = core::hardened_stop_and_wait_rate(p, lp, opt);
        const double perfect = (1.0 - p.p_d) / (1.0 + static_cast<double>(lp.delay));
        std::printf("%-8.2f | %10.4f %10.4f %10.4f | %s\n", loss, measured, predicted,
                    perfect, run.reliable ? "yes" : "NO");
        ++runs;
        reliable_runs += run.reliable ? 1 : 0;
        if (std::fabs(measured - predicted) > 0.05 * predicted) {
            saw_tracks_closed_form = false;
            std::fprintf(stderr, "FAIL: stop-and-wait at loss %.2f is %.4f, >5%% off %.4f\n",
                         loss, measured, predicted);
        }
        char key[48];
        std::snprintf(key, sizeof key, "saw_rate_loss%02.0f", loss * 100.0);
        json.field(key, measured);
        std::snprintf(key, sizeof key, "saw_pred_loss%02.0f", loss * 100.0);
        json.field(key, predicted);
    }

    // --- 2. Counter / go-back-N throughput under the named profiles -------
    struct Named {
        const char* label;
        core::FaultProfile profile;
        double gbn_recorded, ctr_recorded;  // full-size rates the floors are set from
    };
    const std::vector<Named> profiles = {
        {"none", core::FaultProfile{}, 0.560287, 0.616363},
        {"storms", core::FaultProfile::storms(500, 50), 0.503969, 0.554632},
        {"drift", core::FaultProfile::drifting(0.3, 400), 0.41658, 0.540124},
        {"stuck", core::FaultProfile::stuck_at(300, 30, 0), 0.396979, 0.469925},
    };
    core::FeedbackLinkParams lp;
    lp.p_loss = 0.1;
    lp.delay = 2;
    core::HardenedOptions opt;
    opt.timeout = 8;
    // The counter protocol's sender view lags by the report latency, and
    // every lagged use is garbage (documented in feedback_protocols.hpp) —
    // at delay 2 that intrinsic cost swamps the fault profiles this table
    // is about. Run it at its natural delay-0 configuration instead, so
    // the column isolates loss + profile degradation.
    core::FeedbackLinkParams lp_ctr = lp;
    lp_ctr.delay = 0;

    std::printf("\nfault profiles over a 10%%-lossy link "
                "(P_d=%.2f, gbn delay=2, ctr delay=0, timeout=8)\n\n",
                p.p_d);
    std::printf("%-8s | %10s %8s | %10s %8s\n", "profile", "gbn rate", "reliable",
                "ctr rate", "errors");
    for (const auto& [label, profile, gbn_recorded, ctr_recorded] : profiles) {
        const auto msg = make_message(kMessage, p.alphabet(), 0xF12C);

        core::DeletionInsertionChannel inner_g(p, 0xF12D);
        core::FaultyChannel ch_g(inner_g, profile, 0xF12E);
        core::FeedbackLink link_g(lp, 0xF12F);
        const auto gbn = core::run_hardened_go_back_n(ch_g, msg, link_g, opt);

        core::DeletionInsertionChannel inner_c(p, 0xF130);
        core::FaultyChannel ch_c(inner_c, profile, 0xF131);
        core::FeedbackLink link_c(lp_ctr, 0xF132);
        const auto ctr = core::run_hardened_counter_protocol(ch_c, msg, link_c, opt);
        const double gbn_rate = gbn.measured_info_rate(1);
        const double ctr_rate = ctr.measured_info_rate(1);

        std::printf("%-8s | %10.4f %8s | %10.4f %8zu\n", label, gbn_rate,
                    gbn.reliable ? "yes" : "NO", ctr_rate, ctr.symbol_errors);
        runs += 2;
        // Deletion-style profiles must keep go-back-N fully reliable; the
        // stuck-at profile corrupts delivered symbols outright (no FEC
        // here), so its contract is completion with bounded errors instead.
        const bool deletion_style = std::string(label) != "stuck";
        reliable_runs += (deletion_style ? gbn.reliable
                                         : gbn.received.size() == msg.size() &&
                                               gbn.symbol_errors < kMessage / 4)
                             ? 1
                             : 0;
        reliable_runs += ctr.received.size() == msg.size() ? 1 : 0;
        json.field(std::string("gbn_rate_") + label, gbn_rate);
        json.field(std::string("ctr_rate_") + label, ctr_rate);
        if (!smoke && (gbn_rate < 0.75 * gbn_recorded || ctr_rate < 0.75 * ctr_recorded)) {
            rates_above_floor = false;
            std::fprintf(stderr, "FAIL: %s gbn %.4f / ctr %.4f below 0.75x recorded %g / %g\n",
                         label, gbn_rate, ctr_rate, gbn_recorded, ctr_recorded);
        }
    }

    // Fraction of runs that met their reliability contract; it must be 1.
    json.field("reliability_rate",
               static_cast<double>(reliable_runs) / static_cast<double>(runs));
    json.write();

    std::printf("\nShape check: the stop-and-wait column tracks the closed form at\n"
                "every loss rate (no cliff), and every deletion-style profile leaves\n"
                "reliability intact — only stuck-at windows, which corrupt symbols\n"
                "outright, show up as residual symbol errors.\n");
    if (reliable_runs != runs)
        std::fprintf(stderr, "FAIL: %zu of %zu runs broke their reliability contract\n",
                     runs - reliable_runs, runs);
    return reliable_runs == runs && saw_tracks_closed_form && rates_above_floor ? 0 : 1;
}
