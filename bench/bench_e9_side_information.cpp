// E9 — Section 3.3 / Definitions 1-2: what the erasure side information is
// worth. A deletion-insertion channel and its matched (extended) erasure
// channel see the *same* noise realization; only the location knowledge
// differs. The bench quantifies the gap between:
//   * the erasure capacity N(1-P_d) (locations known),
//   * the best analytic lower bounds for the blind deletion channel
//     (Gallager 1-H(p), Mitzenmacher-Drinea (1-p)/9, small-p expansion),
//   * the drift-lattice Monte-Carlo achievable rate (iid inputs).

#include <cstdio>

#include "ccap/info/deletion_bounds.hpp"

int main() {
    using namespace ccap;

    std::printf("E9: deletion channel vs matched erasure channel (binary, no feedback)\n");
    std::printf("%-6s %10s %12s %12s %12s %12s %10s\n", "P_d", "erasure", "MC rate",
                "Gallager", "small-p", "MD (1-p)/9", "gap");

    for (const double pd : {0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4}) {
        util::Rng rng(0xE9);
        info::DriftParams dp;
        dp.p_d = pd;
        const auto mc = info::iid_mutual_information_rate(dp, {128, 16}, rng);
        const double erasure = info::erasure_upper_bound(pd);
        std::printf("%-6.2f %10.4f %12.4f %12.4f %12.4f %12.4f %10.4f\n", pd, erasure,
                    mc.rate, info::gallager_deletion_lower_bound(pd),
                    info::small_p_deletion_expansion(pd),
                    info::mitzenmacher_drinea_lower_bound(pd), erasure - mc.rate);
    }

    std::printf("\nWith insertions as well (P_i = P_d):\n");
    std::printf("%-6s %10s %12s\n", "rate", "erasure", "MC rate");
    for (const double r : {0.02, 0.05, 0.1, 0.2}) {
        util::Rng rng(0xE9F);
        info::DriftParams dp;
        dp.p_d = r;
        dp.p_i = r;
        const auto mc = info::iid_mutual_information_rate(dp, {128, 16}, rng);
        std::printf("%-6.2f %10.4f %12.4f\n", r, info::erasure_upper_bound(r), mc.rate);
    }
    std::printf("\nShape check: the blind (deletion-insertion) rate always sits strictly\n"
                "below the matched erasure capacity, with the gap growing in the error\n"
                "rate — the side information of Definition 2 has real value, which is\n"
                "why the erasure channel only *upper-bounds* the covert channel (Thm 1).\n");
    return 0;
}
