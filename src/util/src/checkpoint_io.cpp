#include "ccap/util/checkpoint_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ccap::util {

namespace {

[[noreturn]] void fail(CheckpointError kind, const std::string& what) {
    throw CheckpointIoError(kind, what);
}

void check_key(const std::string& key) {
    if (key.empty() || key.find_first_of(" \t\n") != std::string::npos)
        throw std::invalid_argument("Checkpoint: key must be non-empty and space-free: '" +
                                    key + "'");
}

}  // namespace

const char* checkpoint_error_name(CheckpointError kind) noexcept {
    switch (kind) {
        case CheckpointError::unreadable: return "unreadable";
        case CheckpointError::malformed: return "malformed";
        case CheckpointError::truncated: return "truncated";
        case CheckpointError::version_mismatch: return "version mismatch";
    }
    return "unknown";
}

const std::string* Checkpoint::find(const std::string& key) const noexcept {
    for (const auto& [k, v] : entries_)
        if (k == key) return &v;
    return nullptr;
}

void Checkpoint::set_text(const std::string& key, const std::string& value) {
    check_key(key);
    if (find(key) != nullptr)
        throw std::invalid_argument("Checkpoint: duplicate key '" + key + "'");
    if (value.find('\n') != std::string::npos)
        throw std::invalid_argument("Checkpoint: value for '" + key + "' contains newline");
    entries_.emplace_back(key, value);
}

void Checkpoint::set_u64(const std::string& key, std::uint64_t value) {
    set_text(key, std::to_string(value));
}

void Checkpoint::set_double(const std::string& key, double value) {
    if (std::isnan(value))
        throw std::invalid_argument("Checkpoint: NaN value for '" + key + "'");
    // %a round-trips every non-NaN double bit for bit via strtod, including
    // subnormals, infinities and the sign of zero.
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", value);
    set_text(key, buf);
}

const std::string& Checkpoint::text(const std::string& key) const {
    const std::string* v = find(key);
    if (v == nullptr) fail(CheckpointError::malformed, "missing checkpoint field '" + key + "'");
    return *v;
}

std::uint64_t Checkpoint::u64(const std::string& key) const {
    const std::string& v = text(key);
    // from_chars takes digits only: no whitespace, sign or wrap-around, so
    // " -1" is malformed rather than 2^64 - 1. write() emits bare digits.
    std::uint64_t parsed = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
    if (ec != std::errc{} || end != v.data() + v.size())
        fail(CheckpointError::malformed,
             "checkpoint field '" + key + "' is not a non-negative integer: '" + v + "'");
    return parsed;
}

double Checkpoint::number(const std::string& key) const {
    const std::string& v = text(key);
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || std::isnan(parsed))
        fail(CheckpointError::malformed,
             "checkpoint field '" + key + "' is not a number: '" + v + "'");
    return parsed;
}

void Checkpoint::write(std::ostream& out) const {
    out << "# " << kMagic << " v" << kVersion << " fields=" << entries_.size() << "\n";
    for (const auto& [k, v] : entries_) out << k << ' ' << v << "\n";
}

void Checkpoint::write_file(const std::string& path) const {
    // Temp-and-rename: the checkpoint at `path` is either the old complete
    // one or the new complete one, never a torn write.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out) throw std::runtime_error("Checkpoint: cannot create '" + tmp + "'");
        write(out);
        out.flush();
        if (!out) throw std::runtime_error("Checkpoint: write to '" + tmp + "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("Checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
}

Checkpoint Checkpoint::read(std::istream& in) {
    std::string line;
    // Header: the first non-blank line must be the framing comment.
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) break;
    }
    if (line.empty()) fail(CheckpointError::malformed, "empty checkpoint (no header)");

    int version = 0;
    unsigned long long fields = 0;
    char magic[32] = {0};
    // "# ccap-track v1 fields=N" — scan the magic separately so a header
    // from another tool reads as malformed, not as a version mismatch.
    if (std::sscanf(line.c_str(), "# %31s v%d fields=%llu", magic, &version, &fields) != 3 ||
        std::string(magic) != kMagic)
        fail(CheckpointError::malformed, "not a " + std::string(kMagic) +
                                             " checkpoint header: '" + line + "'");
    if (version != kVersion)
        fail(CheckpointError::version_mismatch,
             "checkpoint is " + std::string(kMagic) + " v" + std::to_string(version) +
                 ", this build reads v" + std::to_string(kVersion));

    Checkpoint chk;
    while (chk.entries_.size() < fields && std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos || space == 0)
            fail(CheckpointError::malformed, "bad checkpoint field line: '" + line + "'");
        const std::string key = line.substr(0, space);
        if (chk.find(key) != nullptr)
            fail(CheckpointError::malformed, "duplicate checkpoint field '" + key + "'");
        chk.entries_.emplace_back(key, line.substr(space + 1));
    }
    if (chk.entries_.size() < fields)
        fail(CheckpointError::truncated,
             "checkpoint declares " + std::to_string(fields) + " fields, found " +
                 std::to_string(chk.entries_.size()));
    // Trailing lines past the declared count are ignored: a newer writer
    // may have appended fields this reader does not know about.
    return chk;
}

Checkpoint Checkpoint::read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) fail(CheckpointError::unreadable, "cannot open checkpoint '" + path + "'");
    return read(in);
}

}  // namespace ccap::util
