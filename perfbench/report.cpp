// Metric reporters shared by the workloads.
#include <sys/resource.h>

#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void report_loop(const LoopStats& s, const Calibrator& cal, RunResult& r) {
    r.metrics.set("setup_s", cal.to_ref(s.setup_cpu_s), "s");
    r.metrics.set("throughput", s.work / cal.to_ref(s.loop_cpu_s), "op/ref-cpu-s");
    r.metrics.set("cpu_p50_ms", cal.to_ref(quantile(s.op_cpu_ms, 0.5)), "ms");
    r.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("wall throughput %.4f op/s, latency p50 %.4f ms (%zu requests, %.4f CPU "
                "cores busy); measured CPU %.4f op/cpu-s, p50 %.4f ms; reference factor "
                "%.4f (%zu samples)\n",
                s.work / s.loop_s, quantile(s.op_ms, 0.5), s.op_ms.size(),
                s.loop_cpu_s / s.loop_s, s.work / s.loop_cpu_s, quantile(s.op_cpu_ms, 0.5),
                cal.factor(), cal.samples());
}

void report_speedups(const std::string& name, double t1, double t2, double tn,
                     RunResult& r) {
    r.metrics.set(name + ".speedup_2t", t1 / t2, "x");
    r.metrics.set(name + ".speedup_nt", t1 / tn, "x");
}

void report_shares(const std::string& workload,
                   const std::vector<std::pair<std::string, double>>& layer_self_s,
                   double traced_wall, double trace_overhead, RunResult& r) {
    double attributed = 0.0;
    for (const auto& [layer, sec] : layer_self_s) {
        r.metrics.set(workload + "." + layer + ".share", sec / traced_wall, "share");
        attributed += sec;
    }
    r.metrics.set(workload + ".unattributed_share", (traced_wall - attributed) / traced_wall,
                  "share");
    r.metrics.set(workload + ".trace_overhead", trace_overhead, "share");
    r.metrics.set(workload + ".traced_wall_s", traced_wall, "s");
}

}  // namespace perfbench
