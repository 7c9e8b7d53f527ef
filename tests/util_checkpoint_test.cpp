// Versioned checkpoint framing (util/checkpoint_io.hpp): bit-exact value
// round trips, typed errors for every corruption mode, atomic file writes —
// and the cooperative shutdown flag (util/signal_flag.hpp) the tracker's
// long-lived CLI mode hangs off.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "ccap/util/checkpoint_io.hpp"
#include "ccap/util/signal_flag.hpp"

namespace {

using ccap::util::Checkpoint;
using ccap::util::CheckpointError;
using ccap::util::CheckpointIoError;

[[nodiscard]] std::uint64_t bits_of(double v) {
    return std::bit_cast<std::uint64_t>(v);
}

TEST(CheckpointIo, RoundTripIsBitExact) {
    Checkpoint cp;
    cp.set_text("label", "drift run 3, window 2000");
    cp.set_u64("windows", 0xFFFFFFFFFFFFFFFFULL);
    cp.set_double("plain", 0.30000000000000004);
    cp.set_double("neg_zero", -0.0);
    cp.set_double("subnormal", 0x1p-1074);
    cp.set_double("huge", std::numeric_limits<double>::max());
    cp.set_double("inf", std::numeric_limits<double>::infinity());
    cp.set_double("neg_inf", -std::numeric_limits<double>::infinity());

    std::stringstream ss;
    cp.write(ss);
    const Checkpoint back = Checkpoint::read(ss);

    EXPECT_EQ(back.text("label"), "drift run 3, window 2000");
    EXPECT_EQ(back.u64("windows"), 0xFFFFFFFFFFFFFFFFULL);
    EXPECT_EQ(bits_of(back.number("plain")), bits_of(0.30000000000000004));
    EXPECT_EQ(bits_of(back.number("neg_zero")), bits_of(-0.0));
    EXPECT_EQ(bits_of(back.number("subnormal")), bits_of(0x1p-1074));
    EXPECT_EQ(bits_of(back.number("huge")),
              bits_of(std::numeric_limits<double>::max()));
    EXPECT_EQ(back.number("inf"), std::numeric_limits<double>::infinity());
    EXPECT_EQ(back.number("neg_inf"), -std::numeric_limits<double>::infinity());
}

TEST(CheckpointIo, NanAndDuplicateKeysRejected) {
    Checkpoint cp;
    EXPECT_THROW(cp.set_double("bad", std::nan("")), std::invalid_argument);
    cp.set_u64("k", 1);
    EXPECT_THROW(cp.set_u64("k", 2), std::invalid_argument);
    EXPECT_THROW(cp.set_text("spaced key", "v"), std::invalid_argument);
}

TEST(CheckpointIo, TypedGettersThrowMalformed) {
    Checkpoint cp;
    cp.set_text("word", "not-a-number");
    std::stringstream ss;
    cp.write(ss);
    const Checkpoint back = Checkpoint::read(ss);
    try {
        (void)back.u64("missing");
        FAIL() << "missing key did not throw";
    } catch (const CheckpointIoError& e) {
        EXPECT_EQ(e.kind(), CheckpointError::malformed);
    }
    EXPECT_THROW((void)back.u64("word"), CheckpointIoError);
    EXPECT_THROW((void)back.number("word"), CheckpointIoError);
    // A sign or blank before the digits, or a value past 2^64 - 1, must not
    // wrap around into a huge count.
    for (const char* bad : {" -1", "\t-7", "+5", " 5", "-0", "18446744073709551616"}) {
        std::istringstream in(std::string("# ccap-track v1 fields=1\nk ") + bad + "\n");
        const Checkpoint cp = Checkpoint::read(in);
        try {
            (void)cp.u64("k");
            FAIL() << "u64 parsed '" << bad << "'";
        } catch (const CheckpointIoError& e) {
            EXPECT_EQ(e.kind(), CheckpointError::malformed) << bad;
        }
    }
}

void expect_read_error(const std::string& content, CheckpointError kind) {
    std::istringstream in(content);
    try {
        (void)Checkpoint::read(in);
        FAIL() << "checkpoint parsed: " << content;
    } catch (const CheckpointIoError& e) {
        EXPECT_EQ(e.kind(), kind) << content;
    }
}

TEST(CheckpointIo, CorruptionModesAreTyped) {
    // Fewer field lines than the header declares: a torn write.
    expect_read_error("# ccap-track v1 fields=3\na 1\nb 2\n",
                      CheckpointError::truncated);
    // Another format version.
    expect_read_error("# ccap-track v2 fields=0\n", CheckpointError::version_mismatch);
    // Wrong magic, missing header, bad field lines, duplicate keys.
    expect_read_error("# ccap-trace v1 fields=0\n", CheckpointError::malformed);
    expect_read_error("windows 12\n", CheckpointError::malformed);
    expect_read_error("# ccap-track v1 fields=1\nno_value\n",
                      CheckpointError::malformed);
    expect_read_error("# ccap-track v1 fields=2\nk 1\nk 2\n",
                      CheckpointError::malformed);
}

TEST(CheckpointIo, TrailingLinesTolerated) {
    // Forward compatibility: a newer writer may append fields past the
    // declared count; readers must ignore them.
    std::istringstream in("# ccap-track v1 fields=1\nk 1\nfuture_field 9\n");
    const Checkpoint cp = Checkpoint::read(in);
    EXPECT_EQ(cp.u64("k"), 1U);
    EXPECT_THROW((void)cp.text("future_field"), CheckpointIoError);  // ignored
}

TEST(CheckpointIo, FileRoundTripAndUnreadable) {
    const std::string path =
        testing::TempDir() + "/ccap_checkpoint_test_roundtrip.txt";
    Checkpoint cp;
    cp.set_double("served", 0x1.23456789abcdep-3);
    cp.set_u64("windows", 42);
    cp.write_file(path);
    const Checkpoint back = Checkpoint::read_file(path);
    EXPECT_EQ(bits_of(back.number("served")), bits_of(0x1.23456789abcdep-3));
    EXPECT_EQ(back.u64("windows"), 42U);
    std::remove(path.c_str());
    try {
        (void)Checkpoint::read_file(path);
        FAIL() << "missing file did not throw";
    } catch (const CheckpointIoError& e) {
        EXPECT_EQ(e.kind(), CheckpointError::unreadable);
    }
}

TEST(CheckpointIo, RewriteReplacesAtomically) {
    // write_file goes through a temp + rename; the second write must fully
    // replace the first (no stale trailing fields).
    const std::string path = testing::TempDir() + "/ccap_checkpoint_test_rewrite.txt";
    Checkpoint first;
    first.set_u64("a", 1);
    first.set_u64("b", 2);
    first.write_file(path);
    Checkpoint second;
    second.set_u64("a", 3);
    second.write_file(path);
    const Checkpoint back = Checkpoint::read_file(path);
    EXPECT_EQ(back.u64("a"), 3U);
    EXPECT_THROW((void)back.u64("b"), CheckpointIoError);
    std::remove(path.c_str());
}

TEST(SignalFlag, RequestAndResetAndRealSignal) {
    ccap::util::reset_shutdown_flag();
    EXPECT_FALSE(ccap::util::shutdown_requested());
    ccap::util::request_shutdown();
    EXPECT_TRUE(ccap::util::shutdown_requested());
    ccap::util::reset_shutdown_flag();
    EXPECT_FALSE(ccap::util::shutdown_requested());

    // A real SIGTERM through the installed handler sets the flag instead of
    // killing the process — the tracker's graceful-shutdown path.
    ccap::util::install_shutdown_flag();
    std::raise(SIGTERM);
    EXPECT_TRUE(ccap::util::shutdown_requested());
    ccap::util::reset_shutdown_flag();
}

}  // namespace
