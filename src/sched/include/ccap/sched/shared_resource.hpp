// The covert medium: a shared storage cell.
//
// In the paper's motivating example the sender "makes a change in the
// system" and the receiver "receives it by detecting the change". This
// class is that change-able thing — a single shared variable (think: file
// lock status, disk-arm position, quota counter).
#pragma once

#include <cstdint>

namespace ccap::sched {

class SharedResource {
public:
    explicit SharedResource(std::uint64_t initial = 0) : value_(initial) {}

    [[nodiscard]] std::uint64_t read() const noexcept { return value_; }
    void write(std::uint64_t value) noexcept { value_ = value; }

private:
    std::uint64_t value_;
};

}  // namespace ccap::sched
