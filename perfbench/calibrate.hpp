// Host-speed calibration for the end-to-end figures.
//
// On a shared host the speed of a core drifts by tens of percent within
// minutes (other tenants' load changes the clock frequency and the share of
// cache and memory bandwidth a core gets), and CPU time, which already
// leaves out the time the core was given away, does not remove that. So
// each timed loop interleaves a fixed reference computation that the
// benchmark owns and no library change can touch, and reports its CPU times
// in reference seconds: measured CPU seconds times kNominalSampleS over the
// median CPU time of one reference sample in the same run. A library change
// moves the reference seconds; host drift moves both clocks alike and
// cancels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU seconds one reference sample takes on one core of the 4-vCPU Intel
/// Xeon (Sapphire Rapids, AVX-512) VM the benchmark was defined on, when
/// that host is quiet. Any constant would do: it only sets the scale.
inline constexpr double kNominalSampleS = 0.012;

class Calibrator {
public:
    /// Samples run on `threads` threads at once, as the workload does.
    explicit Calibrator(unsigned threads);

    /// Runs the reference computation once on every thread and records its
    /// CPU time per thread.
    void sample();

    /// Reference seconds per measured CPU second (1 on the quiet defining
    /// host, below 1 on a faster one). Needs at least one sample.
    [[nodiscard]] double factor() const;

    /// `cpu_s` measured CPU seconds in reference seconds.
    [[nodiscard]] double to_ref(double cpu_s) const { return cpu_s * factor(); }

    [[nodiscard]] std::size_t samples() const { return per_thread_s_.size(); }

private:
    unsigned threads_;
    std::vector<std::vector<double>> state_;  ///< one working set per thread
    std::vector<double> per_thread_s_;
    double sink_ = 0.0;
};

}  // namespace perfbench
