#include "ccap/sched/pacing.hpp"

#include <stdexcept>

namespace ccap::sched {

PacingController::PacingController(PacingConfig cfg) : cfg_(cfg) {
    if (!(cfg_.budget_per_tick > 0.0))
        throw std::invalid_argument("PacingController: budget_per_tick must be > 0");
    if (cfg_.burst_budget < 0.0)
        throw std::invalid_argument("PacingController: burst_budget must be >= 0");
    if (cfg_.burst_budget == 0.0) cfg_.burst_budget = cfg_.budget_per_tick;
}

}  // namespace ccap::sched
