// Exhaustive check of the go-back-N machine (core/reliability.hpp).
//
// Two ends, each one GoBackN, are joined by a modeled channel in each
// direction that holds an unordered bag of packets. The search explores
// every interleaving of these steps, deduplicating visited states:
//
//   post      the application hands the next message to an end, which then
//             reacts as the engine does: it sends data while its backlog is
//             non-empty and its window open, then an ack on its own if
//             GoBackN::ack_alone says so;
//   deliver   any packet in flight reaches its end (so packets reorder),
//             which applies the cumulative ack, judges the arrival, and
//             reacts;
//   drop      a packet vanishes (a corrupted packet is a drop too: the
//             header and payload CRCs discard it before the protocol sees
//             it);
//   duplicate a packet in flight is copied;
//   timeout   an armed retransmit timer fires and the end executes the
//             verdict: re-arm, resend the whole held tail with the acks it
//             carried at first transmission, or give up;
//   release   with Model::hold, every packet an end sends first waits in
//             its driver, which hands the oldest one to the channel.
//
// Drops, duplicates and premature timeouts (any timeout while a packet is
// on a channel or in the other end's driver) each spend one unit of a
// fault bound (Model::faults). A timeout while only the end's own driver
// holds packets is free: a driver may hold a copy for any number of RTOs.
// The timer is told whether the held head's copy is still in the driver,
// and giving up while it is counts as a fault of its own. The rest
// of the bound works as before: the search stops at Model::depth steps
// (60). Every case below runs out
// of new states well before that depth, so it covers everything the fault
// bound allows, and the checker asserts that it did.
//
// Safety, checked on every step: each receiver accepts exactly its next
// message, so what it has delivered is a prefix of what the peer posted,
// in order, each message once. Liveness, checked from every explored
// state: a canonical fault-free continuation (deliver, else post, else let
// a timer fire; with a hold, a release before a post) delivers and acks
// every message within kLivenessSteps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/reliability.hpp"

namespace mado::core {
namespace {

constexpr std::size_t kMaxMsgs = 3;  // messages per direction, at most
constexpr int kLivenessSteps = 80;
constexpr std::size_t kMaxRetries = 10;  // the engine's kRelMaxRetries

struct Packet {
  bool data = false;      // false: a standalone ack
  std::uint8_t msg = 0;   // data: message index, whose seq is first + msg
  std::uint32_t ack = 0;  // cumulative ack stamped at first transmission
  auto operator<=>(const Packet&) const = default;
};

struct End {
  GoBackN rel;
  std::size_t posted = 0;  // messages the application handed over
  std::size_t sent = 0;    // messages stamped; posted - sent is the backlog
  std::size_t delivered = 0;  // peer messages accepted, in order
  bool armed = false;  // retransmit timer
  bool dead = false;   // the timer gave up
  std::array<std::uint32_t, kMaxMsgs> stamped_ack{};  // per message
  std::vector<Packet> driver;  // sent, not yet on the channel (hold only)
};

struct Model {
  std::size_t window = 1;
  std::size_t msgs = kMaxMsgs;  // posted toward each receiving end
  bool bidirectional = true;
  int faults = 2;  // drops, duplicates and premature timeouts, in total
  int depth = 60;  // steps from the initial state
  std::uint32_t first_seq = 0;
  bool hold = false;  ///< sends wait in the driver until a release step
  /// The rule before drivers were consulted: a timeout counts even while
  /// the held head's copy is still in the driver.
  bool ignore_driver = false;
  /// The rule an end uses to send an ack on its own.
  bool (*ack_alone)(bool owed, bool backlog_empty,
                    bool window_full) = &GoBackN::ack_alone;
};

struct State {
  std::array<End, 2> end;
  std::array<std::vector<Packet>, 2> chan;  // chan[e]: in flight toward e
  int faults = 0;
};

class Checker {
 public:
  explicit Checker(const Model& m) : m_(m) {}

  /// Explore everything reachable; returns the first violation, or "".
  std::string run() {
    State s;
    for (End& e : s.end)
      e.rel = GoBackN({m_.window, 1, 8, kMaxRetries}, m_.first_seq);
    explore(std::move(s));
    return failure_;
  }

  std::size_t states() const { return visited_.size(); }
  /// True when the search ran out of new states before the depth bound.
  bool exhausted() const { return exhausted_; }

 private:
  std::size_t msgs(std::size_t e) const {
    return e == 0 || m_.bidirectional ? m_.msgs : 0;
  }

  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

  /// End `e` hands `p` to its driver.
  void send(State& s, std::size_t e, const Packet& p) {
    if (m_.hold)
      s.end[e].driver.push_back(p);
    else
      s.chan[e ^ 1].push_back(p);
  }

  void release(State& s, std::size_t e) {
    std::vector<Packet>& d = s.end[e].driver;
    s.chan[e ^ 1].push_back(d.front());
    d.erase(d.begin());
  }

  /// Packets on a channel or in the driver of the end other than `e`.
  static bool in_flight(const State& s, std::size_t e) {
    return !s.chan[0].empty() || !s.chan[1].empty() ||
           !s.end[e ^ 1].driver.empty();
  }

  void arm(End& e) {
    if (e.armed || e.rel.held().empty()) return;
    e.rel.arm();
    e.armed = true;
  }

  /// The engine's reaction after any event on end `e`: pump, then acks.
  void react(State& s, std::size_t e) {
    End& me = s.end[e];
    if (me.dead) return;
    while (me.sent < me.posted && !me.rel.window_full()) {
      const std::size_t msg = me.sent++;
      const std::uint32_t ack = me.rel.ack_out();
      const std::uint32_t seq = me.rel.stamp(msg, 1);
      if (seq != m_.first_seq + static_cast<std::uint32_t>(msg))
        fail("stamp numbered message " + std::to_string(msg) + " out of order");
      me.stamped_ack[msg] = ack;
      send(s, e, Packet{true, static_cast<std::uint8_t>(msg), ack});
      arm(me);
    }
    if (m_.ack_alone(me.rel.ack_owed(), me.sent == me.posted,
                     me.rel.window_full()))
      send(s, e, Packet{false, 0, me.rel.ack_out()});
  }

  void post(State& s, std::size_t e) {
    ++s.end[e].posted;
    react(s, e);
  }

  void deliver(State& s, std::size_t e, std::size_t i) {
    const Packet p = s.chan[e][i];
    s.chan[e].erase(s.chan[e].begin() + static_cast<std::ptrdiff_t>(i));
    End& me = s.end[e];
    if (me.dead) return;
    const bool moved = me.rel.ack(p.ack, [&](std::uint64_t) {});
    if (moved) {
      me.armed = false;  // ack progress cancels the timer ...
      arm(me);           // ... and restarts it for any tail
    }
    if (p.data) {
      const std::uint32_t seq = m_.first_seq + p.msg;
      if (me.rel.arrive(seq) == GoBackN::Arrival::Accept) {
        if (p.msg != me.delivered)
          fail("accepted message " + std::to_string(p.msg) + " when " +
               std::to_string(me.delivered) + " was next");
        ++me.delivered;
      }
    }
    react(s, e);
  }

  void timeout(State& s, std::size_t e) {
    End& me = s.end[e];
    me.armed = false;
    const std::uint64_t head = me.rel.held().front().token;
    const bool held = std::any_of(
        me.driver.begin(), me.driver.end(),
        [head](const Packet& p) { return p.data && p.msg == head; });
    switch (me.rel.timeout(held && !m_.ignore_driver)) {
      case GoBackN::Timeout::Restart:
        arm(me);
        break;
      case GoBackN::Timeout::GiveUp:
        if (held)
          fail("gave up on message " + std::to_string(head) +
               " while its copy was still in the driver");
        me.dead = true;
        break;
      case GoBackN::Timeout::Resend:
        for (const GoBackN::Held& h : me.rel.held()) {
          const auto msg = static_cast<std::uint8_t>(h.token);
          send(s, e, Packet{true, msg, me.stamped_ack[msg]});
        }
        arm(me);
        break;
    }
  }

  bool done(const State& s) const {
    for (std::size_t e = 0; e < 2; ++e) {
      const End& me = s.end[e];
      if (me.dead || me.posted != msgs(e) || !me.rel.held().empty() ||
          s.end[e ^ 1].delivered != msgs(e))
        return false;
    }
    return true;
  }

  /// Steps a fault-free continuation needs to finish from `s`, or -1.
  int finish(State s) {
    for (int step = 0; step <= kLivenessSteps; ++step) {
      if (done(s)) return step;
      if (!failure_.empty()) return -1;
      if (!s.chan[0].empty() || !s.chan[1].empty()) {
        deliver(s, s.chan[1].empty() ? 0 : 1, 0);
      } else if (!s.end[0].driver.empty() || !s.end[1].driver.empty()) {
        release(s, s.end[0].driver.empty() ? 1 : 0);
      } else if (s.end[0].posted < msgs(0) || s.end[1].posted < msgs(1)) {
        post(s, s.end[0].posted < msgs(0) ? 0 : 1);
      } else if (s.end[0].armed || s.end[1].armed) {
        timeout(s, s.end[0].armed ? 0 : 1);
      } else {
        return -1;  // stuck: nothing in flight, nothing to post, no timer
      }
    }
    return -1;
  }

  /// Everything that decides the future. GoBackN's private fields follow
  /// from what is encoded: next seq is first + sent, the ack point is next
  /// seq minus the held count (acks never pass what was sent), the next
  /// expected seq is first + delivered, an armed timer was armed at the
  /// current ack point, and the RTO is a function of the retries.
  std::string key(const State& s) const {
    std::string k;
    for (std::size_t e = 0; e < 2; ++e) {
      const End& me = s.end[e];
      k += static_cast<char>(me.posted | me.sent << 2 | me.delivered << 4);
      const std::size_t flags = std::size_t{me.armed} << 3 |
                                std::size_t{me.dead} << 4 |
                                std::size_t{me.rel.ack_owed()} << 5;
      k += static_cast<char>(me.rel.held().size() | flags);
      k += static_cast<char>(me.rel.retries());
      for (const GoBackN::Held& h : me.rel.held())
        k += static_cast<char>(me.stamped_ack[h.token] - m_.first_seq);
      std::vector<Packet> bag = s.chan[e];
      std::sort(bag.begin(), bag.end());
      const auto packets = [&](const std::vector<Packet>& q) {
        k += '|';
        for (const Packet& p : q)
          k += static_cast<char>(p.data << 7 | p.msg << 3 |
                                 static_cast<int>(p.ack - m_.first_seq));
      };
      packets(bag);
      packets(me.driver);
      k += '|';
    }
    k += static_cast<char>(s.faults);
    return k;
  }

  /// Breadth first, so each state is expanded once, at its least depth.
  void explore(State init) {
    std::vector<State> level;
    const auto visit = [&](State&& n, int depth) {
      if (!visited_.insert(key(n)).second) return;
      if (finish(n) < 0)
        fail("no fault-free finish within " + std::to_string(kLivenessSteps) +
             " steps from a state " + std::to_string(depth) + " steps deep");
      level.push_back(std::move(n));
    };
    visit(std::move(init), 0);
    for (int depth = 1; failure_.empty(); ++depth) {
      if (level.empty()) {
        exhausted_ = true;
        return;
      }
      if (depth > m_.depth) return;
      std::vector<State> parents;
      parents.swap(level);
      for (const State& s : parents) {
        for (std::size_t e = 0; e < 2; ++e) {
          if (s.end[e].dead) continue;
          if (s.end[e].posted < msgs(e)) {
            State n = s;
            post(n, e);
            visit(std::move(n), depth);
          }
          const bool premature = in_flight(s, e);
          if (s.end[e].armed && (!premature || s.faults < m_.faults)) {
            State n = s;
            if (premature) ++n.faults;
            timeout(n, e);
            visit(std::move(n), depth);
          }
          if (!s.end[e].driver.empty()) {
            State n = s;
            release(n, e);
            visit(std::move(n), depth);
          }
          const std::vector<Packet>& bag = s.chan[e];
          for (std::size_t i = 0; i < bag.size(); ++i) {
            // Equal packets lead to equal states: try each value once.
            const auto at = bag.begin() + static_cast<std::ptrdiff_t>(i);
            if (std::find(bag.begin(), at, bag[i]) != at) continue;
            State n = s;
            deliver(n, e, i);
            visit(std::move(n), depth);
            if (s.faults == m_.faults) continue;
            n = s;
            ++n.faults;
            n.chan[e].erase(n.chan[e].begin() + (at - bag.begin()));
            visit(std::move(n), depth);
            n = s;
            ++n.faults;
            n.chan[e].push_back(bag[i]);
            visit(std::move(n), depth);
          }
        }
      }
    }
  }

  Model m_;
  std::unordered_set<std::string> visited_;
  std::string failure_;
  bool exhausted_ = false;
};

/// Runs the checker and prints its size and time; "" means it passed.
std::string check(const Model& m) {
  Checker c(m);
  const auto t0 = std::chrono::steady_clock::now();
  std::string failure = c.run();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::printf("window %zu, %zu msgs %s, %d faults, first seq %u%s: %zu "
              "states in %lld ms\n",
              m.window, m.msgs, m.bidirectional ? "each way" : "one way",
              m.faults, m.first_seq, m.hold ? ", driver holds" : "",
              c.states(), static_cast<long long>(ms));
  if (failure.empty() && !c.exhausted())
    failure = "depth bound reached with states left to explore";
  return failure;
}

TEST(ReliabilityModel, OneWayEveryWindow) {
  for (std::size_t w = 1; w <= 4; ++w) {
    Model m;
    m.window = w;
    m.bidirectional = false;
    EXPECT_EQ(check(m), "") << "window " << w;
  }
}

TEST(ReliabilityModel, BidirectionalEveryWindow) {
  // Both ends send, so acks ride data packets or go out on their own by
  // the standalone-ack rule. Reordering and timeouts of an empty wire are
  // free; a fault multiplies the state space, so it is spent where the
  // windows fill: window 1 with three messages, window 2 with two.
  for (std::size_t w = 1; w <= 4; ++w) {
    Model m;
    m.window = w;
    m.faults = 0;
    EXPECT_EQ(check(m), "") << "window " << w;
  }
  Model m;
  m.faults = 1;
  EXPECT_EQ(check(m), "") << "window 1, one fault";
  m.window = 2;
  m.msgs = 2;
  EXPECT_EQ(check(m), "") << "window 2, one fault";
}

TEST(ReliabilityModel, SequenceNumbersWrap) {
  Model m;
  m.first_seq = 0xfffffffeu;  // messages 0..2 take seqs 2^32-2, 2^32-1, 0
  m.window = 2;
  m.bidirectional = false;
  EXPECT_EQ(check(m), "");
  m.window = 1;
  m.bidirectional = true;
  m.faults = 1;
  EXPECT_EQ(check(m), "");
}

TEST(ReliabilityModel, DriverHoldsCopiesForAnyNumberOfTimeouts) {
  // Every packet waits in its end's driver until a release step, and the
  // timer may fire any number of times while only that driver holds
  // packets: the retry budget must not run out on copies that never left.
  for (std::size_t w = 1; w <= 2; ++w) {
    Model m;
    m.hold = true;
    m.window = w;
    m.bidirectional = false;
    EXPECT_EQ(check(m), "") << "one way, window " << w;
  }
  Model m;
  m.hold = true;
  m.faults = 1;
  EXPECT_EQ(check(m), "") << "each way";
}

TEST(ReliabilityModel, CatchesAGiveUpWhileTheHeadIsHeld) {
  // With the rule that counts every timeout, a copy held in the driver
  // for 11 RTOs spends the retry budget, and the end gives up on a rail
  // that lost nothing.
  Model m;
  m.hold = true;
  m.ignore_driver = true;
  m.msgs = 1;
  m.bidirectional = false;
  m.faults = 0;
  const std::string failure = check(m);
  EXPECT_NE(failure.find("still in the driver"), std::string::npos)
      << failure;
}

TEST(ReliabilityModel, CatchesAnAckHeldBehindAFullWindow) {
  // The checker has teeth: with the rule that sends an owed ack on its own
  // only when the backlog is empty, two ends with full windows never ack
  // each other (retransmissions carry the acks of their first
  // transmission) until the retry budget runs out.
  Model m;
  m.faults = 0;
  m.ack_alone = [](bool owed, bool backlog_empty, bool) {
    return owed && backlog_empty;
  };
  const std::string failure = check(m);
  EXPECT_NE(failure.find("no fault-free finish"), std::string::npos)
      << failure;
}

}  // namespace
}  // namespace mado::core
