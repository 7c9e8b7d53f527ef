#include "ccap/sched/shared_resource.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccap::sched;

TEST(SharedResource, InitialValueAndPeek) {
    const SharedResource r(42);
    EXPECT_EQ(r.read(), 42U);
}

TEST(SharedResource, ReadWriteSemantics) {
    SharedResource r(0);
    r.write(7);
    EXPECT_EQ(r.read(), 7U);
    r.write(9);  // a write replaces the value; reads leave it in place
    EXPECT_EQ(r.read(), 9U);
    EXPECT_EQ(r.read(), 9U);
}

}  // namespace
