// Versioned key-value checkpoint files for long-lived modes.
//
// The online capacity tracker (estimate/capacity_tracker.hpp) runs for
// hours and must survive restarts: its state is periodically flushed to a
// small plain-text checkpoint and read back on --resume. The format follows
// the trace-file idiom (estimate/trace_io.hpp): a framing header
//     # ccap-track v1 fields=N
// followed by exactly N "key value" lines. The declared field count makes a
// torn write detectable (CheckpointError::truncated), the version makes a
// format bump explicit (version_mismatch), and anything else that is not a
// well-formed field line is malformed — a corrupt checkpoint always fails
// loudly with a typed error, never crashes or silently restarts a tracker
// from a half-written state.
//
// Doubles are serialized as C99 hex-floats ("%a"), so every value — and
// therefore a resumed tracker's entire output stream — round-trips bit for
// bit. Readers tolerate trailing lines past the declared count (forward
// compatibility: a newer writer may append fields).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ccap::util {

/// What went wrong reading a checkpoint; carried by CheckpointIoError so
/// callers (e.g. `ccap track --resume`) can map failures to distinct exit
/// messages.
enum class CheckpointError : std::uint8_t {
    unreadable,        ///< file missing or stream unreadable
    malformed,         ///< bad header, bad field line, duplicate or missing key
    truncated,         ///< fewer field lines than the header declared
    version_mismatch,  ///< a ccap-track header of another version
};

/// "unreadable" / "malformed" / "truncated" / "version mismatch".
[[nodiscard]] const char* checkpoint_error_name(CheckpointError kind) noexcept;

class CheckpointIoError : public std::runtime_error {
public:
    CheckpointIoError(CheckpointError kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}
    [[nodiscard]] CheckpointError kind() const noexcept { return kind_; }

private:
    CheckpointError kind_;
};

/// An ordered set of named values with typed accessors. Writing and
/// re-reading a checkpoint reproduces every value bit for bit (doubles are
/// hex-float encoded). Keys must be non-empty and space-free; values may
/// contain spaces (the value is the rest of the line).
class Checkpoint {
public:
    static constexpr int kVersion = 1;
    static constexpr const char* kMagic = "ccap-track";

    /// Setters append; re-setting an existing key is a logic error upstream
    /// and throws std::invalid_argument (checkpoints are write-once maps).
    void set_text(const std::string& key, const std::string& value);
    void set_u64(const std::string& key, std::uint64_t value);
    /// Hex-float encoding: bit-exact round trip for every finite double,
    /// +-infinity and -0.0. NaN is rejected (std::invalid_argument) — the
    /// tracker's no-NaN contract extends to its checkpoints.
    void set_double(const std::string& key, double value);

    /// Typed getters throw CheckpointIoError(malformed) when the key is
    /// missing or its value does not parse as the requested type.
    [[nodiscard]] const std::string& text(const std::string& key) const;
    [[nodiscard]] std::uint64_t u64(const std::string& key) const;
    [[nodiscard]] double number(const std::string& key) const;

    /// Emit the "# ccap-track v1 fields=N" header and every field line.
    void write(std::ostream& out) const;
    /// Write to `path` via a same-directory temporary + rename, so a crash
    /// mid-flush leaves the previous checkpoint intact instead of a torn
    /// file. Throws std::runtime_error when the file can't be created.
    void write_file(const std::string& path) const;

    /// Parse a checkpoint. Throws CheckpointIoError (malformed, truncated,
    /// version_mismatch).
    [[nodiscard]] static Checkpoint read(std::istream& in);
    /// Parse a checkpoint file. Throws CheckpointIoError (additionally
    /// unreadable when the file is missing).
    [[nodiscard]] static Checkpoint read_file(const std::string& path);

private:
    [[nodiscard]] const std::string* find(const std::string& key) const noexcept;

    std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace ccap::util
