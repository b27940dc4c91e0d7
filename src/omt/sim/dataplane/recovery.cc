#include "omt/sim/dataplane/recovery.h"

#include "omt/common/error.h"

namespace omt::dataplane {

std::uint64_t unwrapSeq(std::uint32_t wire, std::uint64_t reference) {
  const std::uint64_t base = reference & ~(kSeqSpace - 1);
  const std::uint64_t candidate = base | wire;
  auto gap = [reference](std::uint64_t x) {
    return x > reference ? x - reference : reference - x;
  };
  std::uint64_t best = candidate;
  if (candidate >= kSeqSpace && gap(candidate - kSeqSpace) < gap(best))
    best = candidate - kSeqSpace;
  if (gap(candidate + kSeqSpace) < gap(best)) best = candidate + kSeqSpace;
  return best;
}

ReorderWindow::ReorderWindow(int capacity) {
  OMT_CHECK(capacity >= 1 && capacity <= kMaxReorderWindow,
            "reorder window capacity outside [1, kMaxReorderWindow]");
  capacity_ = (capacity + 63) & ~63;  // round up to whole 64-bit words
  bits_.assign(static_cast<std::size_t>(capacity_ >> 6), 0);
}

NackBackoff::NackBackoff(double initial, double factor, double cap)
    : initial_(initial), factor_(factor), cap_(cap), current_(initial) {
  OMT_CHECK(initial > 0.0, "NACK delay must be positive");
  OMT_CHECK(factor >= 1.0, "NACK backoff factor must be >= 1");
  OMT_CHECK(cap >= initial, "NACK backoff cap below the initial delay");
}

void NackBackoff::advance() {
  current_ = std::min(current_ * factor_, cap_);
}

RetransmitWindow::RetransmitWindow(std::int64_t capacity, std::uint64_t base)
    : capacity_(capacity), base_(base) {
  OMT_CHECK(capacity >= 1, "retransmit buffer capacity must be positive");
}

void RetransmitWindow::insert() { ++count_; }

}  // namespace omt::dataplane
