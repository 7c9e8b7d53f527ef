// The four workloads and the layer sections of the traced run.
//
// Each `run_*` function measures one workload end to end with tracing off
// and fills the end-to-end metrics; each `trace_*` function runs the traced
// profile of one workload (spans around the public calls it makes, plus
// replays of the layers reached only inside another call) and fills the
// per-layer metrics. Both record their operation counts and output checks
// in the RunResult.
#pragma once

#include "calibrate.hpp"
#include "common.hpp"

namespace perfbench {

void run_sweep(const Options& opt, RunResult& r);
void run_contend(const Options& opt, RunResult& r);
void run_track(const Options& opt, RunResult& r);
void run_analyze(const Options& opt, RunResult& r);

void trace_sweep(const Options& opt, RunResult& r);
void trace_contend(const Options& opt, RunResult& r);
void trace_track(const Options& opt, RunResult& r);
void trace_analyze(const Options& opt, RunResult& r);

/// Lane-kernel section: bit-identity of every LaneKernels primitive against
/// the scalar table, then per-primitive timings and the per-lane twin
/// ratios, at the lane widths `sweep` and `contend` resolve.
void trace_kernels(const Options& opt, RunResult& r);

/// util and core micro-measures shared by several workloads.
void trace_util(const Options& opt, RunResult& r);

/// Lattice lanes of one sweep MC tile (resolved_mc_batch).
std::size_t sweep_mc_lanes();

/// Contend's CRN point tile for `nodes` distinct nodes (resolved_point_tile).
std::size_t contend_point_tile(std::size_t nodes);

/// Lanes of one contend per-lane lattice sweep: point tile times the node
/// MC tile (resolved_mc_batch).
std::size_t contend_sweep_lanes(std::size_t nodes);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// The end-to-end metrics every workload reports, from its timed loop.
/// The JSON metrics are CPU times in reference seconds (calibrate.hpp); the
/// wall-clock figures are printed as human-readable lines next to them.
struct LoopStats {
    double setup_cpu_s = 0.0;       ///< median CPU time of the set-up repetitions
    double work = 0.0;              ///< units of work completed in the loop
    double loop_s = 0.0;            ///< wall time of the timed requests
    double loop_cpu_s = 0.0;        ///< CPU time of the timed requests
    std::vector<double> op_ms;      ///< wall latency of each closed-loop request
    std::vector<double> op_cpu_ms;  ///< CPU time of each closed-loop request

    /// Records one request timed from `t0`.
    void add_op(const Stamp& t0) {
        const double cpu = t0.cpu_s(), wall = t0.wall_s();
        op_cpu_ms.push_back(1e3 * cpu);
        op_ms.push_back(1e3 * wall);
        loop_cpu_s += cpu;
        loop_s += wall;
    }
};

void report_loop(const LoopStats& s, const Calibrator& cal, RunResult& r);

/// Wall time of a thread-axis run: the workload's call at 1, 2 and nproc
/// threads with one seed. Sets `<name>.speedup_2t` and `<name>.speedup_nt`.
void report_speedups(const std::string& name, double t1, double t2, double tn,
                     RunResult& r);

/// Span shares of one traced workload: self time of each layer over the
/// traced wall time, the unattributed remainder, and the tracing overhead
/// (traced wall minus untraced wall of the same work, as a share of the
/// untraced wall).
void report_shares(const std::string& workload,
                   const std::vector<std::pair<std::string, double>>& layer_self_s,
                   double traced_wall, double trace_overhead, RunResult& r);

}  // namespace perfbench
