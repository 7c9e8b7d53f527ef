// X1 (extension ablation) — input-process design choice for no-feedback
// rates: iid uniform inputs vs first-order Markov (run-length-biased)
// inputs on the deletion channel.
//
// The paper's Section 4.1 cites numerical capacity bounds for
// synchronization-error channels ([18][19]); the modern refinement (Davey &
// MacKay; Diggavi & Grossglauser) is that correlated inputs beat iid ones
// precisely because runs survive deletions. This bench quantifies the
// effect with the joint (drift x symbol) lattice.

#include <cstdio>

#include "ccap/info/deletion_bounds.hpp"

int main() {
    using namespace ccap;

    constexpr std::size_t kBlock = 96;
    constexpr std::size_t kBlocks = 16;
    std::printf("X1: iid vs Markov inputs on the binary deletion channel "
                "[achievable bits/use, blocks of %zu]\n",
                kBlock);
    std::printf("%-6s %10s", "P_d", "iid");
    for (const double stay : {0.6, 0.75, 0.85, 0.95}) std::printf("   stay=%.2f", stay);
    std::printf("   %10s\n", "erasure UB");

    for (const double pd : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
        info::DriftParams p;
        p.p_d = pd;
        util::Rng rng(0xA1);
        const auto iid = info::iid_mutual_information_rate(p, {kBlock, kBlocks}, rng);
        std::printf("%-6.2f %10.4f", pd, iid.rate);
        for (const double stay : {0.6, 0.75, 0.85, 0.95}) {
            util::Rng rng2(0xA1);
            const auto mkv = info::markov_mutual_information_rate(
                p, info::MarkovSource::binary_repeat(stay), {kBlock, kBlocks}, rng2);
            std::printf("   %9.4f", mkv.rate);
        }
        std::printf("   %10.4f\n", info::erasure_upper_bound(pd));
    }
    std::printf("\nShape check: at low P_d iid inputs are near-optimal; as deletions\n"
                "dominate, run-biased Markov inputs pull ahead (the crossover sits\n"
                "around P_d ~ 0.2-0.3), while everything stays under the erasure bound.\n");
    return 0;
}
