#include "ccap/estimate/srm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace {

using ccap::estimate::SharedResourceMatrix;

bool has_channel(const std::vector<SharedResourceMatrix::Channel>& channels,
                 const std::string& attribute, const std::string& sender,
                 const std::string& receiver, bool indirect = false) {
    return std::any_of(channels.begin(), channels.end(), [&](const auto& c) {
        return c.attribute == attribute && c.sender_op == sender &&
               c.receiver_op == receiver && c.indirect == indirect;
    });
}

/// The classic file-lock covert channel from Kemmerer's paper: the sender
/// locks/unlocks a file; the receiver senses the lock via the error code of
/// its own lock attempt.
SharedResourceMatrix file_lock_system() {
    SharedResourceMatrix srm;
    srm.add_operation("lock_file", {"file.lock"}, {"file.lock"});
    srm.add_operation("unlock_file", {"file.lock"}, {"file.lock"});
    srm.add_operation("try_lock", {"file.lock"}, {"caller.error_code"});
    srm.add_operation("read_error", {"caller.error_code"}, {});
    return srm;
}

TEST(Srm, AttributeRegistration) {
    SharedResourceMatrix srm;
    const std::size_t a = srm.add_attribute("disk.arm");
    EXPECT_EQ(srm.add_attribute("disk.arm"), a);  // idempotent
    EXPECT_EQ(srm.add_attribute("disk.head"), a + 1);  // "disk.arm" was stored once
    EXPECT_THROW((void)srm.add_attribute(""), std::invalid_argument);
}

TEST(Srm, OperationRegistrationAndLookup) {
    SharedResourceMatrix srm = file_lock_system();
    EXPECT_THROW(srm.add_operation("try_lock", {}, {}), std::invalid_argument);
}

TEST(Srm, DirectChannelsFound) {
    const auto channels = file_lock_system().all_channels();
    // lock_file modifies file.lock; try_lock reads it -> the classic channel.
    EXPECT_TRUE(has_channel(channels, "file.lock", "lock_file", "try_lock"));
    EXPECT_TRUE(has_channel(channels, "file.lock", "unlock_file", "try_lock"));
    // No channel through caller.error_code back to lock_file (it never reads it).
    EXPECT_FALSE(has_channel(channels, "caller.error_code", "try_lock", "lock_file"));
}

TEST(Srm, IndirectFlowThroughDerivedAttribute) {
    // lock state flows into caller.error_code via try_lock; read_error then
    // senses file.lock *indirectly*.
    const auto channels = file_lock_system().all_channels();
    EXPECT_TRUE(has_channel(channels, "file.lock", "lock_file", "read_error",
                            /*indirect=*/true));
    // The direct candidates are still reported as direct.
    EXPECT_TRUE(has_channel(channels, "file.lock", "lock_file", "try_lock", false));
}

TEST(Srm, FlowClosureIsTransitive) {
    SharedResourceMatrix srm;
    srm.add_operation("op1", {"a"}, {"b"});
    srm.add_operation("op2", {"b"}, {"c"});
    srm.add_operation("op3", {"c"}, {"d"});
    const auto flow = srm.flow_closure();
    // Re-registering a name returns its existing index.
    const auto idx = [&](const std::string& n) { return srm.add_attribute(n); };
    EXPECT_TRUE(flow[idx("a")][idx("d")]);   // a -> b -> c -> d
    EXPECT_FALSE(flow[idx("d")][idx("a")]);  // no reverse flow
    EXPECT_TRUE(flow[idx("a")][idx("a")]);   // reflexive
}

TEST(Srm, NoChannelsWithoutSharedState) {
    SharedResourceMatrix srm;
    srm.add_operation("sender_compute", {}, {"sender.private"});
    srm.add_operation("receiver_compute", {"receiver.private"}, {});
    EXPECT_TRUE(srm.all_channels().empty());
}

TEST(Srm, SelfChannelsExcluded) {
    SharedResourceMatrix srm;
    srm.add_operation("touch", {"x"}, {"x"});
    // The only reader of x is the modifier itself: no channel.
    EXPECT_TRUE(srm.all_channels().empty());
}

TEST(Srm, DiskArmChannelScenario) {
    // The disk-arm-position channel: request ordering reveals the arm
    // position the previous request left behind.
    SharedResourceMatrix srm;
    srm.add_operation("seek_inner", {}, {"disk.arm"});
    srm.add_operation("seek_outer", {}, {"disk.arm"});
    srm.add_operation("timed_read", {"disk.arm"}, {"caller.latency"});
    srm.add_operation("observe_latency", {"caller.latency"}, {});
    const auto channels = srm.all_channels();
    EXPECT_TRUE(has_channel(channels, "disk.arm", "seek_inner", "timed_read"));
    EXPECT_TRUE(has_channel(channels, "disk.arm", "seek_outer", "observe_latency", true));
}

}  // namespace
