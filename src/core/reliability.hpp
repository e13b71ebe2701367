// Go-back-N for one (rail, stream): every decision of the reliability
// protocol, with no locks, no timers and no engine types, so that it can be
// checked exhaustively on its own (tests/core/test_reliability_model.cpp).
// The engine executes the verdicts: it owns the packet records, retransmit
// timers, driver sends, stats, trace and failover.
//
// Sender: each new packet takes the next seq and is held until a
// cumulative ack ("every seq below N arrived") covers it, at most `window`
// at a time. A timeout without ack progress resends the whole held tail
// and doubles the RTO; `max_retries` of them in a row mean the rail is dead.
// A timeout while the held head's last copy is still inside the driver
// counts nothing: that copy has not left the host, so no ack can be late.
// Receiver: only the next expected seq is accepted. A lower one is a
// duplicate; a higher one lies past a gap and is dropped too, as the
// sender's timeout resends the tail in order. Every reliable arrival owes
// the sender an ack, which rides the next outgoing header or goes out on
// its own (ack_alone).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "util/clock.hpp"
#include "util/wire.hpp"

namespace mado::core {

class GoBackN {
 public:
  struct Params {
    std::size_t window = 0;
    Nanos rto_initial = 0;
    Nanos rto_max = 0;
    std::size_t max_retries = 0;
  };
  enum class Arrival : std::uint8_t { Accept, Duplicate, Gap };
  enum class Timeout : std::uint8_t {
    /// Acks moved since the timer was armed, or the held head's last copy
    /// is still inside the driver: re-arm, resend nothing, count no retry.
    Restart,
    Resend,   ///< resend the whole held tail; the RTO has doubled
    GiveUp,   ///< max_retries timeouts without progress: the rail is dead
  };
  /// One sent packet awaiting its ack.
  struct Held {
    std::uint64_t token = 0;
    std::uint32_t seq = 0;
    std::size_t bytes = 0;
  };

  GoBackN() = default;
  /// Both sequence spaces start at `first_seq`; the peer's must match.
  explicit GoBackN(const Params& p, std::uint32_t first_seq = 0)
      : p_(p), next_seq_(first_seq), acked_(first_seq),
        armed_acked_(first_seq), rto_(p.rto_initial), rx_next_(first_seq) {}

  // ---- sender ----
  bool window_full() const { return held_.size() >= p_.window; }
  /// Number a new packet and hold it until acked; returns its seq.
  std::uint32_t stamp(std::uint64_t token, std::size_t wire_bytes);
  /// Apply cumulative ack `cum`, calling on_acked(token) for each packet it
  /// newly covers, oldest first. A stale ack (retransmissions carry the acks
  /// of their first transmission) or one past anything sent returns false;
  /// true resets the retries and the RTO.
  template <class OnAcked>
  bool ack(std::uint32_t cum, OnAcked&& on_acked) {
    if (!seq_less(acked_, cum) || seq_less(next_seq_, cum)) return false;
    while (!held_.empty() && seq_less(held_.front().seq, cum)) {
      const Held h = held_.front();
      held_.pop_front();
      held_bytes_ -= h.bytes;
      on_acked(h.token);
    }
    acked_ = cum;
    retries_ = 0;
    rto_ = p_.rto_initial;
    return true;
  }
  /// The retransmit timer is being armed: returns the RTO to wait.
  Nanos arm() {
    armed_acked_ = acked_;
    return rto_;
  }
  /// Verdict on the armed timer firing; `head_in_driver`: the driver has
  /// not completed the last send of held().front().
  Timeout timeout(bool head_in_driver);
  const std::deque<Held>& held() const { return held_; }
  std::size_t held_bytes() const { return held_bytes_; }
  std::size_t retries() const { return retries_; }
  /// Failover: forget the held tail (replayed elsewhere) and any owed ack.
  void clear() { held_.clear(); held_bytes_ = 0; owed_ = false; }

  // ---- receiver ----
  /// Verdict on arriving reliable packet `seq`; any verdict owes an ack.
  Arrival arrive(std::uint32_t seq);
  bool ack_owed() const { return owed_; }
  /// The cumulative ack (next expected seq) for an outgoing header; it
  /// pays any ack owed.
  std::uint32_t ack_out() {
    owed_ = false;
    return rx_next_;
  }
  /// An owed ack goes out on its own when no data packet will carry it:
  /// the backlog is empty, or the eager window is full. A full window sends
  /// nothing until acked, so two senders with full windows would otherwise
  /// wait for each other's ack until both rails died.
  static bool ack_alone(bool owed, bool backlog_empty, bool window_full) {
    return owed && (backlog_empty || window_full);
  }

 private:
  Params p_;
  std::deque<Held> held_;  ///< sent, not yet acked, in seq order
  std::size_t held_bytes_ = 0;
  std::uint32_t next_seq_ = 0;
  std::uint32_t acked_ = 0;  ///< every seq below it is acked
  std::uint32_t armed_acked_ = 0;  ///< acked_ when the timer was armed
  Nanos rto_ = 0;
  std::size_t retries_ = 0;  ///< consecutive timeouts without progress
  std::uint32_t rx_next_ = 0;  ///< next seq expected from the peer
  bool owed_ = false;
};

}  // namespace mado::core
