// ccap_bench — the repository benchmark: four closed-loop workloads (one
// client, seeded inputs) over the library's public entry points.
//
//   ccap_bench --workload sweep|contend|track|analyze --seed N --seconds S
//              --trace 0|1 [--workdir DIR] [--rev REV]
//
// --trace 0 measures the named workload end to end; --trace 1 runs the
// traced layer profile of all four workloads plus the kernel and util
// sections. stdout ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a `# provenance {...}` line and one human-readable line per
// metric. Exit code 0 when the run completed (correct or not), 2 on a
// usage error.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "ccap/info/lattice_simd.hpp"
#include "ccap/util/cpu_features.hpp"
#include "workloads.hpp"

#ifndef CCAP_BENCH_BUILD_TYPE
#define CCAP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

unsigned online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
    return std::max(1U, std::thread::hardware_concurrency());
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

/// Full-precision number for the JSON line.
std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "ccap_bench: %s\nusage: ccap_bench --workload sweep|contend|track|analyze "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR] [--rev REV]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string rev = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("option " + flag + " needs a value").c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = value == "1";
            else if (flag == "--workdir")
                opt.workdir = value;
            else if (flag == "--rev")
                rev = value;
            else
                return usage(("unknown option " + flag).c_str());
        } catch (const std::exception&) {
            return usage(("malformed value for " + flag).c_str());
        }
    }
    if (opt.workload != "sweep" && opt.workload != "contend" && opt.workload != "track" &&
        opt.workload != "analyze")
        return usage("--workload must be sweep, contend, track or analyze");
    if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
    opt.nproc = online_cpus();

    // Provenance: the resolved kernel path and CPU features, the machine's
    // CPU count and the threads each workload runs with, the resolved lanes
    // and point tile, build type, seed and source revision.
    const ccap::info::LaneKernels& k = ccap::info::active_lane_kernels();
    const std::size_t wide = static_cast<std::size_t>(-1) / 2;
    std::printf("# provenance {\"workload\": \"%s\", \"trace\": %d, \"seed\": %llu, "
                "\"seconds\": %g, \"rev\": \"%s\", \"build_type\": \"%s\", "
                "\"simd\": \"%s\", \"vector_doubles\": %zu, \"cpu\": \"%s\", "
                "\"nproc\": %u, \"threads\": {\"sweep\": %u, \"contend\": %u, "
                "\"track\": 1, \"analyze\": 1}, \"sweep_mc_lanes\": %zu, "
                "\"contend_point_tile\": %zu, \"contend_sweep_lanes\": %zu}\n",
                opt.workload.c_str(), opt.trace ? 1 : 0,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                json_escape(rev).c_str(), CCAP_BENCH_BUILD_TYPE, k.name, k.vector_doubles,
                json_escape(ccap::util::cpu_feature_string()).c_str(), opt.nproc, opt.nproc,
                opt.nproc, sweep_mc_lanes(), contend_point_tile(wide),
                contend_sweep_lanes(wide));

    RunResult r;
    try {
        if (opt.trace) {
            trace_util(opt, r);
            trace_kernels(opt, r);
            trace_sweep(opt, r);
            trace_contend(opt, r);
            trace_track(opt, r);
            trace_analyze(opt, r);
            r.metrics.set("peak_rss_mb.traced", peak_rss_mb(), "MB");
        } else if (opt.workload == "sweep") {
            run_sweep(opt, r);
        } else if (opt.workload == "contend") {
            run_contend(opt, r);
        } else if (opt.workload == "track") {
            run_track(opt, r);
        } else {
            run_analyze(opt, r);
        }
    } catch (const std::exception& e) {
        r.fail(std::string("run aborted: ") + e.what());
        r.attempted = std::max<std::uint64_t>(r.attempted, 1);
        r.failed = r.attempted;
    }
    for (const auto& [name, vu] : r.metrics.items())
        if (!std::isfinite(vu.first)) {
            r.fail("metric " + name + " is not finite");
            r.metrics.set(name, 0.0, vu.second);
        }
    r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    r.failed = std::min(r.failed, r.attempted);
    if (r.failed > 0) r.correct = false;

    for (const std::string& f : r.failures) std::printf("# FAIL %s\n", f.c_str());
    std::printf("error_rate %.6g failed/attempted (%llu/%llu)\n",
                static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto& [name, vu] : r.metrics.items())
        std::printf("metric %s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());

    std::string json = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : r.metrics.items()) {
        json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
                number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
