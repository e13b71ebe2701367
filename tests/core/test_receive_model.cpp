// Exhaustive check of the receive module (core/receive.hpp).
//
// One channel's sender sends the fragments of 2 or 3 messages, in order,
// each on whichever of two rails the search picks, toward one RxChannel
// glued to a modeled application the way the engine glues them: a fragment
// that fills a posted slot lands at once, one that fills an unposted slot
// is kept early, a rendezvous fragment lands its bytes in a step of its
// own once its slot is posted. Each direction of a rail is go-back-N as
// the model sees it, a FIFO that delivers each item once and acks it
// later. The search explores every interleaving of these steps,
// deduplicating visited states:
//
//   send      the sender hands its next fragment to a live rail;
//   deliver   the next item of a rail arrives;
//   ack       the oldest delivered item's ack reaches the sender;
//   die       a rail dies. Of the items still on it, the first j arrive
//             late, for every j, and the rest are lost. The sender replays
//             every item the rail had not acked on the survivor, so a
//             fragment can arrive twice, and after its message finished;
//   attach    the application begins its next receive;
//   unpack    it unpacks the next fragment of a message it attached;
//   finish    it finishes a message it unpacked whole, which retires it
//             if every fragment landed and does nothing otherwise;
//   land      the bytes of a posted rendezvous fragment land.
//
// One rail of the two may die. The oracle, on every step: each fragment
// lands once and each message finishes once, with its bytes; a copy of a
// finished message never reopens it; the first copy of a fragment of a
// message not finished is never dropped (the fault of a floor one past the
// highest finished seq); a second copy of one is dropped. Liveness, from
// every explored state: a fault-free continuation (deliver, else ack, else
// land, else the next application step, else send) finishes every message,
// after which the channel holds no entry.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/receive.hpp"

namespace mado::core {
namespace {

constexpr int kLivenessSteps = 80;
constexpr std::size_t kNoRail = static_cast<std::size_t>(-1);

struct Model {
  std::vector<std::uint16_t> frags;  ///< fragments of each message
  int rdv_msg = -1;  ///< the message whose fragment 0 goes by rendezvous
};

struct Item {
  std::uint8_t msg = 0;
  std::uint8_t idx = 0;
};

struct Wire {
  std::vector<Item> sent;     // un-acked, in send order
  std::size_t delivered = 0;  // prefix of `sent` that arrived
  std::vector<Item> late;     // on the rail when it died, still arriving
};

/// What the application knows of one message.
struct Msg {
  bool attached = false;
  std::uint16_t posted = 0;
  bool finished = false;
  std::vector<Byte> dest;            // its unpacked buffers, one byte each
  std::vector<std::uint8_t> landed;  // per fragment: landings
  std::vector<std::uint8_t> filled;  // per fragment: Fill verdicts
};

struct State {
  RxChannel rx;
  std::vector<Wire> wire;  // per rail
  std::vector<bool> dead;  // per rail
  std::size_t sent = 0;    // fragments the sender handed to a rail
  std::vector<Msg> msg;
};

class Checker {
 public:
  explicit Checker(const Model& m) : m_(m) {
    for (std::size_t i = 0; i < m.frags.size(); ++i)
      for (std::uint16_t f = 0; f < m.frags[i]; ++f)
        order_.push_back(Item{static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(f)});
  }

  std::string run() {
    State s;
    s.wire.resize(2);
    s.dead.assign(2, false);
    for (std::uint16_t n : m_.frags) {
      Msg msg;
      msg.dest.assign(n, 0);
      msg.landed.assign(n, 0);
      msg.filled.assign(n, 0);
      s.msg.push_back(std::move(msg));
    }
    explore(std::move(s));
    return failure_;
  }

  std::size_t states() const { return visited_.size(); }

 private:
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

  static std::string frag(const Item& it) {
    return "fragment " + std::to_string(it.idx) + " of message " +
           std::to_string(it.msg);
  }
  static Byte value(const Item& it) {
    return static_cast<Byte>(1 + it.msg * 16 + it.idx);
  }
  bool rdv(const Item& it) const {
    return it.msg == m_.rdv_msg && it.idx == 0;
  }

  std::size_t survivor(const State& s) const {
    for (std::size_t r = 0; r < 2; ++r)
      if (!s.dead[r]) return r;
    return kNoRail;
  }

  void land(State& s, const Item& it) {
    Msg& m = s.msg[it.msg];
    if (++m.landed[it.idx] > 1) fail(frag(it) + " landed twice");
    m.dest[it.idx] = value(it);
    s.rx.land(it.msg, it.idx);
  }

  /// The engine's arrival glue, with the oracle on the verdict.
  void arrive(State& s, const Item& it) {
    const RxChannel::Frag v =
        s.rx.arrive(it.msg, it.idx, m_.frags[it.msg], 1, rdv(it));
    Msg& m = s.msg[it.msg];
    if (m.finished) {
      if (v != RxChannel::Frag::Finished)
        fail("a copy of " + frag(it) + " reopened the finished message");
      return;
    }
    if (!m.filled[it.idx] && v != RxChannel::Frag::Fill)
      fail("the first copy of " + frag(it) +
           " was dropped while its message was open");
    if (m.filled[it.idx] && v == RxChannel::Frag::Fill)
      fail("a second copy of " + frag(it) + " filled its slot again");
    if (v != RxChannel::Frag::Fill) return;
    m.filled[it.idx] = 1;
    RxChannel::Slot* slot = s.rx.slot(it.msg, it.idx);
    if (!slot || !slot->arrived) {
      fail("no arrived slot for " + frag(it) + " after its Fill");
      return;
    }
    if (rdv(it)) return;  // its bytes land in a step of their own
    if (slot->posted)
      land(s, it);
    else
      slot->early.assign(1, value(it));
  }

  bool can_send(const State& s) const { return s.sent < order_.size(); }
  void send(State& s, std::size_t r) { s.wire[r].sent.push_back(order_[s.sent++]); }

  bool can_deliver(const State& s, std::size_t r) const {
    const Wire& w = s.wire[r];
    return s.dead[r] ? !w.late.empty() : w.delivered < w.sent.size();
  }
  void deliver(State& s, std::size_t r) {
    Wire& w = s.wire[r];
    Item it;
    if (s.dead[r]) {
      it = w.late.front();
      w.late.erase(w.late.begin());
    } else {
      it = w.sent[w.delivered++];
    }
    arrive(s, it);
  }

  bool can_ack(const State& s, std::size_t r) const {
    return !s.dead[r] && s.wire[r].delivered > 0;
  }
  void ack(State& s, std::size_t r) {
    Wire& w = s.wire[r];
    w.sent.erase(w.sent.begin());
    --w.delivered;
  }

  void die(State& s, std::size_t r, std::size_t late) {
    s.dead[r] = true;
    Wire& w = s.wire[r];
    const auto from = w.sent.begin() + static_cast<std::ptrdiff_t>(w.delivered);
    w.late.assign(from, from + static_cast<std::ptrdiff_t>(late));
    Wire& to = s.wire[survivor(s)];
    to.sent.insert(to.sent.end(), w.sent.begin(), w.sent.end());
    w.sent.clear();
    w.delivered = 0;
  }

  bool can_attach(const State& s, std::size_t i) const {
    return !s.msg[i].attached && (i == 0 || s.msg[i - 1].attached);
  }
  void attach(State& s, std::size_t i) {
    if (s.rx.attach() != i) fail("attach returned another seq");
    s.msg[i].attached = true;
  }

  bool can_unpack(const State& s, std::size_t i) const {
    return s.msg[i].attached && s.msg[i].posted < m_.frags[i];
  }
  void unpack(State& s, std::size_t i) {
    Msg& m = s.msg[i];
    const Item it{static_cast<std::uint8_t>(i),
                  static_cast<std::uint8_t>(m.posted++)};
    const RxChannel::Slot& slot = s.rx.post(it.msg, it.idx, &m.dest[it.idx], 1);
    if (slot.arrived && !slot.rdv) {
      if (slot.early.size() != 1 || slot.early[0] != value(it))
        fail("the early copy of " + frag(it) + " lost its bytes");
      land(s, it);
    }
  }

  bool can_finish(const State& s, std::size_t i) const {
    return s.msg[i].posted == m_.frags[i] && !s.msg[i].finished;
  }
  /// False if the message is not complete yet: the application waits.
  bool finish(State& s, std::size_t i) {
    if (!s.rx.retire(static_cast<MsgSeq>(i))) return false;
    Msg& m = s.msg[i];
    m.finished = true;
    for (std::uint16_t f = 0; f < m_.frags[i]; ++f) {
      const Item it{static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(f)};
      if (m.landed[f] != 1 || m.dest[f] != value(it))
        fail("message " + std::to_string(i) + " finished without the bytes of " +
             frag(it));
    }
    return true;
  }

  /// The posted rendezvous fragment whose bytes can land, if any.
  bool can_land_rdv(const State& s) const {
    if (m_.rdv_msg < 0) return false;
    const RxChannel::Slot* slot =
        s.rx.slot(static_cast<MsgSeq>(m_.rdv_msg), 0);
    return slot && slot->arrived && slot->posted && !slot->done;
  }
  void land_rdv(State& s) {
    land(s, Item{static_cast<std::uint8_t>(m_.rdv_msg), 0});
  }

  bool done(const State& s) const {
    for (const Msg& m : s.msg)
      if (!m.finished) return false;
    for (const Wire& w : s.wire)
      if (!w.sent.empty() || !w.late.empty()) return false;
    return true;
  }

  /// Whether a fault-free continuation finishes from `s`, leaving the
  /// channel empty.
  bool finish_all(State s) {
    std::vector<std::string> path;
    for (int step = 0; step <= kLivenessSteps; ++step) {
      path.push_back(key(s));
      if (live_.count(path.back()) || done(s)) {
        if (done(s) && s.rx.entries() != 0)
          fail("every message finished and the channel still holds " +
               std::to_string(s.rx.entries()) + " entries");
        live_.insert(path.begin(), path.end());
        return true;
      }
      if (!failure_.empty() || !step_fault_free(s)) return false;
    }
    return false;
  }

  bool step_fault_free(State& s) {
    for (std::size_t r = 0; r < 2; ++r)
      if (can_deliver(s, r)) return deliver(s, r), true;
    for (std::size_t r = 0; r < 2; ++r)
      if (can_ack(s, r)) return ack(s, r), true;
    if (can_land_rdv(s)) return land_rdv(s), true;
    for (std::size_t i = 0; i < s.msg.size(); ++i) {
      if (s.msg[i].finished) continue;
      if (can_attach(s, i)) return attach(s, i), true;
      if (can_unpack(s, i)) return unpack(s, i), true;
      if (can_finish(s, i) && finish(s, i)) return true;
      break;  // the oldest open message waits for its data
    }
    if (can_send(s)) return send(s, survivor(s)), true;
    return false;
  }

  /// Everything that decides the future, as bytes: the model's state and
  /// what the channel answers about every seq.
  std::string key(const State& s) const {
    std::string k;
    const auto put = [&k](std::uint64_t v) { k += static_cast<char>(v); };
    for (std::size_t r = 0; r < 2; ++r) {
      const Wire& w = s.wire[r];
      put(s.dead[r]);
      for (const Item& it : w.sent) put(it.msg), put(it.idx);
      put(0xff);
      put(w.delivered);
      for (const Item& it : w.late) put(it.msg), put(it.idx);
      put(0xfe);
    }
    put(s.sent);
    put(s.rx.floor());
    put(s.rx.entries());
    put(s.rx.announced());
    for (std::size_t i = 0; i < s.msg.size(); ++i) {
      const Msg& m = s.msg[i];
      put(m.attached | m.finished << 1);
      put(m.posted);
      const auto seq = static_cast<MsgSeq>(i);
      put(s.rx.nfrags(seq));
      put(s.rx.complete(seq));
      for (std::uint16_t f = 0; f < m_.frags[i]; ++f) {
        put(m.dest[f]);
        put(m.landed[f]);
        put(m.filled[f]);
        const RxChannel::Slot* slot = s.rx.slot(seq, f);
        if (!slot) {
          put(0xfd);
          continue;
        }
        put(slot->arrived | slot->rdv << 1 | slot->posted << 2 |
            slot->done << 3);
        put(slot->len);
        for (Byte b : slot->early) put(b);
        put(0xfc);
      }
    }
    return k;
  }

  void explore(State init) {
    std::vector<State> level;
    const auto visit = [&](State&& n, int depth) {
      if (!failure_.empty() || !visited_.insert(key(n)).second) return;
      if (n.rx.entries() > n.msg.size())
        fail("the channel holds more entries than messages");
      if (!finish_all(n) && failure_.empty())
        fail("no fault-free finish within " + std::to_string(kLivenessSteps) +
             " steps from a state " + std::to_string(depth) + " steps deep");
      level.push_back(std::move(n));
    };
    visit(std::move(init), 0);
    for (int depth = 1; failure_.empty() && !level.empty(); ++depth) {
      std::vector<State> parents;
      parents.swap(level);
      for (const State& s : parents) {
        const auto next = [&](auto&& f) {
          State n = s;
          f(n);
          visit(std::move(n), depth);
        };
        for (std::size_t r = 0; r < 2; ++r) {
          if (can_send(s) && !s.dead[r]) next([&](State& n) { send(n, r); });
          if (can_deliver(s, r)) next([&](State& n) { deliver(n, r); });
          if (can_ack(s, r)) next([&](State& n) { ack(n, r); });
          if (s.dead[0] || s.dead[1]) continue;  // one rail may die
          const Wire& w = s.wire[r];
          for (std::size_t j = 0; j <= w.sent.size() - w.delivered; ++j)
            next([&](State& n) { die(n, r, j); });
        }
        if (can_land_rdv(s)) next([&](State& n) { land_rdv(n); });
        for (std::size_t i = 0; i < s.msg.size(); ++i) {
          if (can_attach(s, i)) next([&](State& n) { attach(n, i); });
          if (can_unpack(s, i)) next([&](State& n) { unpack(n, i); });
          if (can_finish(s, i)) next([&](State& n) { finish(n, i); });
        }
      }
    }
  }

  Model m_;
  std::vector<Item> order_;  // every fragment, in the sender's order
  std::unordered_set<std::string> visited_;
  std::unordered_set<std::string> live_;  // states seen to finish
  std::string failure_;
};

/// Runs the checker and prints its size and time; "" means it passed.
std::string check(const Model& m) {
  Checker c(m);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string failure = c.run();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::string what;
  for (std::uint16_t n : m.frags) what += std::to_string(n) + "+";
  std::printf("fragments %s rendezvous message %d: %zu states in %lld ms\n",
              what.c_str(), m.rdv_msg, c.states(),
              static_cast<long long>(ms));
  return failure;
}

TEST(ReceiveModel, TwoMessagesOfOneOrTwoFragments) {
  for (const auto& frags : {std::vector<std::uint16_t>{1, 1},
                            std::vector<std::uint16_t>{2, 1},
                            std::vector<std::uint16_t>{1, 2},
                            std::vector<std::uint16_t>{2, 2}}) {
    Model m;
    m.frags = frags;
    EXPECT_EQ(check(m), "");
  }
}

TEST(ReceiveModel, ThreeMessages) {
  Model m;
  m.frags = {1, 1, 1};
  EXPECT_EQ(check(m), "");
  m.frags = {1, 2, 1};
  EXPECT_EQ(check(m), "");
}

TEST(ReceiveModel, RendezvousFragments) {
  Model m;
  m.frags = {2, 1};
  m.rdv_msg = 0;
  EXPECT_EQ(check(m), "");
  m.frags = {1, 2};
  m.rdv_msg = 1;
  EXPECT_EQ(check(m), "");
}

}  // namespace
}  // namespace mado::core
