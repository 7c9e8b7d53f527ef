// Machine-readable output for the bench harnesses.
//
// A harness builds a BenchJson, adds flat key/value fields, and calls
// write(): the record is echoed to stdout as one `BENCH_JSON {...}` line,
// greppable in logs. Nothing is persisted and nothing diffs records across
// runs: each harness gates its own figures through its exit code, and
// calibrated timing lives in perfbench/.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccap/util/cpu_features.hpp"

namespace ccap::bench {

/// Monotonic wall-clock stopwatch.
class WallTimer {
public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}
    void reset() { start_ = std::chrono::steady_clock::now(); }
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Flat-object JSON record writer (insertion order preserved).
class BenchJson {
public:
    explicit BenchJson(const std::string& name) {
        field("name", name);
        // Provenance: the hardware thread budget, the dispatched SIMD kernel
        // path and the features the CPU reported. Timings from different
        // vector widths are not comparable.
        field("threads", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
        field("simd", std::string(util::simd_path_name(util::active_simd_path())));
        field("cpu", util::cpu_feature_string());
    }

    BenchJson& field(const std::string& key, const std::string& value) {
        entries_.emplace_back(key, "\"" + value + "\"");
        return *this;
    }
    BenchJson& field(const std::string& key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        entries_.emplace_back(key, buf);
        return *this;
    }
    BenchJson& field(const std::string& key, std::uint64_t value) {
        entries_.emplace_back(key, std::to_string(value));
        return *this;
    }
    BenchJson& field(const std::string& key, int value) {
        entries_.emplace_back(key, std::to_string(value));
        return *this;
    }

    /// Echo the record to stdout as one `BENCH_JSON {"k":v,...}` line, in
    /// insertion order.
    void write() const {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (i) out += ",";
            out += "\"" + entries_[i].first + "\":" + entries_[i].second;
        }
        std::printf("BENCH_JSON %s}\n", out.c_str());
    }

private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace ccap::bench
