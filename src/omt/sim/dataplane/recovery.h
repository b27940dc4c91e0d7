// Receiver- and sender-side recovery state for the packet data plane.
//
// Packets carry 32-bit sequence numbers that wrap; each receiver keeps an
// unwrapped 64-bit view (RFC 1982-style serial arithmetic relative to the
// highest sequence it has seen) and enforces exactly-once, in-order
// delivery:
//   * in-order arrivals deliver immediately and flush any buffered run;
//   * out-of-order arrivals park in a bounded reorder window (a bitmap —
//     the simulation carries no payload); arrivals beyond the window are
//     dropped and recovered later, so receiver memory stays bounded;
//   * anything at or below the delivery head, or already parked, is a
//     duplicate and is suppressed;
//   * missing ranges are NACKed to the parent under a capped exponential
//     backoff with at most one outstanding NACK per gap per firing — the
//     storm suppression that keeps a lossy uplink from drowning in repair
//     chatter. Progress (a delivery-head advance) resets the backoff.
// The sender side holds a *virtual* retransmit ring: a node that has
// delivered sequences [base, head) can retransmit the most recent
// `capacity` of them. Payloads don't exist in the simulation, so the ring
// stores nothing — it is pure accounting (occupancy, evictions), which is
// exactly the bounded-memory contract the chaos gate asserts. A NACK for an
// evicted sequence is an eviction miss; the engine then refetches it from
// the sender's own parent (see engine.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace omt::dataplane {

/// The wire sequence space: 32 bits, wrapping.
inline constexpr std::uint64_t kSeqSpace = 1ULL << 32;

/// Wire (packet header) view of an unwrapped sequence.
inline std::uint32_t wireSeq(std::uint64_t seq) {
  return static_cast<std::uint32_t>(seq);
}

/// Unwrap a 32-bit wire sequence into the 64-bit sequence closest to
/// `reference` (the receiver's highest unwrapped sequence so far). Correct
/// for any reordering span below 2^31 packets — far beyond the bounded
/// windows the engine allows.
std::uint64_t unwrapSeq(std::uint32_t wire, std::uint64_t reference);

/// Largest reorder window whose round-up to whole 64-bit words fits in an
/// `int`.
inline constexpr int kMaxReorderWindow =
    std::numeric_limits<int>::max() & ~63;

/// Bounded out-of-order bitmap. Capacity is rounded up to a multiple of 64;
/// sequences are stored at `seq % capacity`, which is collision-free as
/// long as only sequences within one capacity-sized window are parked —
/// the invariant the engine maintains by dropping beyond-window arrivals.
class ReorderWindow {
 public:
  ReorderWindow() = default;
  /// Throws omt::InvalidArgument unless 1 <= capacity <= kMaxReorderWindow.
  explicit ReorderWindow(int capacity);

  bool test(std::uint64_t seq) const {
    const std::uint64_t slot = seq % static_cast<std::uint64_t>(capacity_);
    return (bits_[slot >> 6] >> (slot & 63)) & 1;
  }
  void set(std::uint64_t seq) {
    const std::uint64_t slot = seq % static_cast<std::uint64_t>(capacity_);
    bits_[slot >> 6] |= 1ULL << (slot & 63);
  }
  void clear(std::uint64_t seq) {
    const std::uint64_t slot = seq % static_cast<std::uint64_t>(capacity_);
    bits_[slot >> 6] &= ~(1ULL << (slot & 63));
  }

  int capacity() const { return capacity_; }

 private:
  int capacity_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Capped exponential NACK pacing. `current()` is the wait before the next
/// NACK for any open gap; every firing advances it by `factor` up to `cap`,
/// and any delivery-head progress resets it to `initial`.
class NackBackoff {
 public:
  NackBackoff() = default;
  NackBackoff(double initial, double factor, double cap);

  double current() const { return current_; }
  void advance();
  void reset() { current_ = initial_; }
  bool atCap() const { return current_ >= cap_; }

 private:
  double initial_ = 0.0;
  double factor_ = 2.0;
  double cap_ = 0.0;
  double current_ = 0.0;
};

/// Virtual bounded retransmit ring: tracks which of its own delivered
/// sequences a node can still resend. Sequences are inserted strictly in
/// order (delivery is in-order by construction), so the holdable set is
/// always the window [head - capacity, head) — no storage needed, just
/// accounting.
class RetransmitWindow {
 public:
  RetransmitWindow() = default;
  RetransmitWindow(std::int64_t capacity, std::uint64_t base);

  /// Record the next in-order delivery (seq == head()). Evicts the oldest
  /// held sequence once the ring is full.
  void insert();

  /// Whether `seq` is still resendable (delivered and not yet evicted).
  bool holds(std::uint64_t seq) const {
    const std::uint64_t head = base_ + static_cast<std::uint64_t>(count_);
    return seq < head &&
           seq + static_cast<std::uint64_t>(capacity_) >= head;
  }

  /// One past the newest held sequence (== the node's delivery head).
  std::uint64_t head() const {
    return base_ + static_cast<std::uint64_t>(count_);
  }

  std::int64_t occupancy() const { return std::min(count_, capacity_); }
  std::int64_t evictions() const {
    return count_ > capacity_ ? count_ - capacity_ : 0;
  }
  std::int64_t capacity() const { return capacity_; }

 private:
  std::int64_t capacity_ = 0;
  std::uint64_t base_ = 0;
  std::int64_t count_ = 0;  ///< total inserted (== delivered)
};

}  // namespace omt::dataplane
