// Exhaustive check of the rendezvous module (core/rendezvous.hpp).
//
// Node 0 sends rendezvous transfers to node 1 and may get from it: a
// request, then a reply transfer from node 1 into node 0's buffer. Each node
// is one RdvSender and one RdvReceiver, glued together the way the engine
// glues them. Between the nodes run 2 or 3 rails; each direction of a rail
// is go-back-N as the model sees it, a FIFO that delivers each item once
// and acks it later. Control items (RTS, CTS, the get request) take the
// first live rail; chunks take whichever rail pops them. The search
// explores every interleaving of these steps, deduplicating visited states:
//
//   post      node 0 starts its next transfer or its get;
//   pop       a live rail takes a chunk from its node's RdvSender (own
//             FIFO, pool or steal), up to kWindow un-acked items a rail;
//   deliver   the next item of a rail direction arrives;
//   ack       the oldest delivered item's ack reaches its sender;
//   die       a rail dies for both nodes. Of the items still on it, the
//             first j arrive late, for every j, and the rest are lost. Each
//             sender replays what the rail had not acked: its chunks through
//             RdvSender::fail_rail, its RTS, CTS or request on the survivor.
//
// At most rails − 1 rails die. A lost and replayed RTS, CTS or request, a
// chunk delivered twice across rails and a steal all arise from these.
//
// Safety, checked on every step: every chunk lands in its destination
// exactly once, a request is served once, a get completes once, no chunk
// arrives for a transfer its receiver never heard of, and no token is
// forgotten by the finished-token window while a copy of it can still
// arrive, nor does the window outgrow its bound. Liveness, checked from
// every explored state: a fault-free continuation (deliver, else ack, else
// pop, else post) ends every transfer at both ends and the get, with no
// queued chunk and no open landing left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/rendezvous.hpp"

namespace mado::core {
namespace {

constexpr std::size_t kWindow = 2;     // un-acked items per rail direction
constexpr std::uint64_t kGet = 50;     // node 0's token for its get
constexpr std::uint64_t kReply = 100;  // node 1's first reply token
constexpr int kLivenessSteps = 200;
constexpr std::size_t kNoRail = RdvSender::kNoRail;

enum class Mutation : std::uint8_t {
  None,
  SkipCoverage,   ///< land a chunk the receiver called a replay
  RequeueOnDead,  ///< fail a rail over onto itself
  ServeTwice,     ///< serve a request the receiver called a replay
};

struct Model {
  MultirailPolicy policy = MultirailPolicy::DynamicSplit;
  std::size_t rails = 2;
  std::vector<std::uint64_t> sends;  ///< chunks of each transfer 0 → 1
  std::uint64_t get = 0;             ///< chunks of the get reply; 0: none
  std::size_t deaths = 1;
  bool stripe_on_first = false;  ///< Stripe: place everything on rail 0
  std::size_t window = kRdvDoneWindow;
  Mutation mutation = Mutation::None;
};

enum class Kind : std::uint8_t { Rts, Cts, Chunk, Get };

struct Item {
  Kind kind = Kind::Rts;
  std::uint64_t token = 0;
  std::uint64_t offset = 0;  // Chunk
  auto operator<=>(const Item&) const = default;
};

/// One direction of one rail. Vectors, not deques: an empty one costs no
/// allocation when a state is copied.
struct Wire {
  std::vector<Item> sent;      // un-acked, in send order
  std::size_t delivered = 0;   // prefix of `sent` that arrived
  std::vector<Item> late;      // on the rail when it died, still arriving
};

/// One transfer as its sender sees it, plus where its bytes land.
struct Transfer {
  std::size_t from = 0;
  std::uint64_t token = 0;
  std::uint64_t len = 0;  // chunks of one byte each
  std::size_t dest = 0;
  bool open = true;  // the sender holds it
  bool cts = false;
  std::uint64_t acked = 0;
};

struct Node {
  RdvSender out;
  RdvReceiver in;
  std::map<std::uint64_t, RdvReceiver::Landing> landing;  // open receives
  std::vector<std::uint64_t> finished;  // every token `in` ever finished
};

struct State {
  std::vector<Node> node;
  std::vector<bool> dead;            // per rail
  std::vector<Wire> wire;            // [rail * 2 + direction]; 0: 0 → 1
  std::vector<Transfer> xfer;
  std::vector<std::vector<std::uint8_t>> landed;  // per dest, per offset
  std::size_t posted = 0;
  std::size_t deaths = 0;
  bool get_pending = false, get_done = false;
  std::uint8_t served = 0;
  std::uint64_t next_reply = kReply;
};

RdvReceiver::Landing copy(const RdvReceiver::Landing& l) {
  RdvReceiver::Landing c;
  c.len = l.len;
  c.received = l.received;
  c.next_contig = l.next_contig;
  l.offsets.for_each([&](std::uint64_t o) { c.offsets.insert(o); });
  return c;
}

class Checker {
 public:
  explicit Checker(const Model& m) : m_(m) {}

  std::string run() {
    State s;
    for (std::size_t n = 0; n < 2; ++n) {
      s.node.push_back(Node{RdvSender(m_.policy, true),
                            RdvReceiver(true, m_.window), {}, {}});
      for (std::size_t r = 0; r < m_.rails; ++r) s.node[n].out.add_rail();
    }
    s.dead.assign(m_.rails, false);
    s.wire.resize(m_.rails * 2);
    for (std::uint64_t len : m_.sends)
      s.landed.emplace_back(len, std::uint8_t{0});
    if (m_.get) s.landed.emplace_back(m_.get, std::uint8_t{0});
    explore(std::move(s));
    return failure_;
  }

  std::size_t states() const { return visited_.size(); }

 private:
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

  State clone(const State& s) const {
    State c;
    for (const Node& n : s.node) {
      RdvReceiver in(true, m_.window);
      for (std::uint64_t t : n.in.window()) in.finish(t);
      c.node.push_back(Node{n.out, std::move(in), {}, n.finished});
      for (const auto& [t, l] : n.landing) c.node.back().landing[t] = copy(l);
    }
    c.dead = s.dead;
    c.wire = s.wire;
    c.xfer = s.xfer;
    c.landed = s.landed;
    c.posted = s.posted;
    c.deaths = s.deaths;
    c.get_pending = s.get_pending;
    c.get_done = s.get_done;
    c.served = s.served;
    c.next_reply = s.next_reply;
    return c;
  }

  std::size_t first_live(const State& s, std::size_t skip = kNoRail) const {
    for (std::size_t r = 0; r < m_.rails; ++r)
      if (!s.dead[r] && r != skip) return r;
    return kNoRail;
  }

  /// Send `it` from node `n` on the first live rail.
  void send_control(State& s, std::size_t n, Item it) {
    s.wire[first_live(s) * 2 + n].sent.push_back(it);
  }

  Transfer* find(State& s, std::uint64_t token) {
    for (Transfer& x : s.xfer)
      if (x.token == token) return &x;
    return nullptr;
  }

  std::size_t posts() const { return m_.sends.size() + (m_.get ? 1 : 0); }

  void post(State& s) {
    const std::size_t i = s.posted++;
    if (i < m_.sends.size()) {
      s.xfer.push_back(Transfer{0, i + 1, m_.sends[i], i});
      send_control(s, 0, Item{Kind::Rts, i + 1});
      return;
    }
    s.get_pending = true;
    send_control(s, 0, Item{Kind::Get, kGet});
  }

  void place(State& s, Transfer& x) {
    RdvSender& out = s.node[x.from].out;
    if (m_.policy != MultirailPolicy::Stripe) {
      out.place(x.token, x.len, 1, first_live(s));
      return;
    }
    std::vector<std::uint64_t> shares(m_.rails, 0);
    std::vector<std::size_t> live;
    for (std::size_t r = 0; r < m_.rails; ++r)
      if (!s.dead[r]) live.push_back(r);
    for (std::uint64_t c = 0; c < x.len; ++c)
      ++shares[m_.stripe_on_first ? live[0] : live[c % live.size()]];
    out.place_striped(x.token, 1, shares);
  }

  /// Node `n` receives `it` from the other node.
  void receive(State& s, std::size_t n, const Item& it) {
    Node& me = s.node[n];
    switch (it.kind) {
      case Kind::Rts: {
        if (me.landing.count(it.token) || me.in.finished(it.token)) return;
        const bool reply = it.token >= kReply;
        if (reply && !s.get_pending) return;  // the get already finished
        const Transfer* x = find(s, it.token);
        RdvReceiver::Landing l;
        l.len = x->len;
        me.landing[it.token] = std::move(l);
        send_control(s, n, Item{Kind::Cts, it.token});
        return;
      }
      case Kind::Cts: {
        Transfer* x = find(s, it.token);
        if (!x->open || x->cts) return;  // a replayed CTS
        x->cts = true;
        place(s, *x);
        return;
      }
      case Kind::Get: {
        if (!me.in.serve(it.token) && m_.mutation != Mutation::ServeTwice)
          return;
        if (++s.served > 1) fail("a request was served twice");
        me.finished.push_back(it.token);
        const std::uint64_t token = s.next_reply++;
        s.xfer.push_back(Transfer{1, token, m_.get, m_.sends.size()});
        send_control(s, n, Item{Kind::Rts, token});
        return;
      }
      case Kind::Chunk: {
        auto li = me.landing.find(it.token);
        if (li == me.landing.end()) {
          if (!me.in.finished(it.token))
            fail("a chunk arrived for a transfer its receiver never opened");
          return;
        }
        const bool replay = me.in.land(li->second, it.offset, 1) ==
                            RdvReceiver::Chunk::Replay;
        if (replay && m_.mutation != Mutation::SkipCoverage) return;
        const Transfer* x = find(s, it.token);
        if (++s.landed[x->dest][it.offset] > 1)
          fail("chunk " + std::to_string(it.offset) + " of token " +
               std::to_string(it.token) + " landed twice");
        if (!li->second.complete()) return;
        me.in.finish(it.token);
        me.finished.push_back(it.token);
        me.landing.erase(li);
        if (it.token >= kReply) {
          if (!s.get_pending) fail("a get completed twice");
          s.get_pending = false;
          s.get_done = true;
        }
        return;
      }
    }
  }

  bool can_deliver(const State& s, std::size_t w) const {
    const Wire& wi = s.wire[w];
    return s.dead[w / 2] ? !wi.late.empty() : wi.delivered < wi.sent.size();
  }

  void deliver(State& s, std::size_t w) {
    Wire& wi = s.wire[w];
    Item it;
    if (s.dead[w / 2]) {
      it = wi.late.front();
      wi.late.erase(wi.late.begin());
    } else {
      it = wi.sent[wi.delivered++];
    }
    receive(s, 1 - w % 2, it);
  }

  bool can_ack(const State& s, std::size_t w) const {
    return !s.dead[w / 2] && s.wire[w].delivered > 0;
  }

  void ack(State& s, std::size_t w) {
    Wire& wi = s.wire[w];
    const Item it = wi.sent.front();
    wi.sent.erase(wi.sent.begin());
    --wi.delivered;
    if (it.kind != Kind::Chunk) return;
    Transfer* x = find(s, it.token);
    if (++x->acked == x->len) x->open = false;
  }

  /// Rail w / 2 pops for node w % 2; false if it has nothing to send.
  bool pop(State& s, std::size_t w) {
    const std::size_t r = w / 2;
    if (s.dead[r] || s.wire[w].sent.size() >= kWindow) return false;
    RdvSender::Chunk c;
    std::size_t victim = 0;
    if (!s.node[w % 2].out.pop(r, c, victim)) return false;
    s.wire[w].sent.push_back(Item{Kind::Chunk, c.token, c.offset});
    return true;
  }

  /// Rail `r` dies; of the items in flight in direction d, the first
  /// late[d] still arrive.
  void die(State& s, std::size_t r, const std::size_t late[2]) {
    s.dead[r] = true;
    ++s.deaths;
    const std::size_t survivor = first_live(s);
    for (std::size_t d = 0; d < 2; ++d) {
      Wire& wi = s.wire[r * 2 + d];
      wi.late.assign(wi.sent.begin() + static_cast<std::ptrdiff_t>(wi.delivered),
                     wi.sent.begin() + static_cast<std::ptrdiff_t>(
                                           wi.delivered + late[d]));
      std::vector<RdvSender::Chunk> unacked;
      for (const Item& it : wi.sent) {
        if (it.kind == Kind::Chunk)
          unacked.push_back(RdvSender::Chunk{it.token, it.offset, 1, 0});
        else
          s.wire[survivor * 2 + d].sent.push_back(it);
      }
      wi.sent.clear();
      wi.delivered = 0;
      s.node[d].out.fail_rail(
          r, m_.mutation == Mutation::RequeueOnDead ? r : survivor, unacked);
    }
  }

  bool done(const State& s) const {
    if (s.posted != posts() || (m_.get && !s.get_done)) return false;
    for (const Transfer& x : s.xfer)
      if (x.open) return false;
    for (const auto& dest : s.landed)
      for (std::uint8_t n : dest)
        if (n != 1) return false;
    for (const Node& n : s.node)
      if (!n.landing.empty() || n.out.chunks() != 0) return false;
    for (const Wire& w : s.wire)
      if (!w.sent.empty() || !w.late.empty()) return false;
    return true;
  }

  /// Whether a fault-free continuation finishes from `s` within
  /// kLivenessSteps. The continuation is deterministic, so it stops early at
  /// a state an earlier one already saw finish.
  bool finish(State s) {
    const std::size_t wires = s.wire.size();
    std::vector<std::string> path;
    for (int step = 0; step <= kLivenessSteps; ++step) {
      path.push_back(key(s));
      if (live_.count(path.back()) || done(s)) {
        live_.insert(path.begin(), path.end());
        return true;
      }
      if (!failure_.empty()) return false;
      bool moved = false;
      for (std::size_t w = 0; w < wires && !moved; ++w)
        if (can_deliver(s, w)) deliver(s, w), moved = true;
      for (std::size_t w = 0; w < wires && !moved; ++w)
        if (can_ack(s, w)) ack(s, w), moved = true;
      for (std::size_t w = 0; w < wires && !moved; ++w) moved = pop(s, w);
      if (!moved && s.posted < posts()) post(s), moved = true;
      if (!moved) return false;  // stuck
    }
    return false;
  }

  /// Every token a node finished whose copy could still reach it: on a
  /// wire toward it, or queued at the other node's sender.
  void check_window(const State& s) {
    for (std::size_t n = 0; n < 2; ++n) {
      const Node& me = s.node[n];
      if (me.in.window().size() > m_.window)
        fail("the finished-token window outgrew its bound");
      for (std::uint64_t t : me.finished) {
        bool live = false;
        for (std::size_t r = 0; r < m_.rails; ++r) {
          const Wire& w = s.wire[r * 2 + (1 - n)];
          for (const auto* q : {&w.sent, &w.late})
            for (const Item& it : *q) live |= it.token == t;
        }
        const RdvSender& out = s.node[1 - n].out;
        for (std::size_t r = 0; r < m_.rails; ++r)
          for (const RdvSender::Chunk& c : out.queue(r)) live |= c.token == t;
        for (const RdvSender::Chunk& c : out.pool()) live |= c.token == t;
        if (live && !me.in.finished(t))
          fail("token " + std::to_string(t) +
               " left the window while a copy could still arrive");
      }
    }
  }

  /// Everything that decides the future, as bytes.
  std::string key(const State& s) const {
    std::string k;
    const auto put = [&k](std::uint64_t v) { k += static_cast<char>(v); };
    const auto items = [&](const std::vector<Item>& q) {
      for (const Item& it : q) {
        put(static_cast<std::uint64_t>(it.kind));
        put(it.token);
        put(it.offset);
      }
      k += '|';
    };
    for (const Node& n : s.node) {
      for (std::size_t r = 0; r < m_.rails; ++r) {
        for (const RdvSender::Chunk& c : n.out.queue(r)) put(c.token), put(c.offset);
        k += '|';
      }
      for (const RdvSender::Chunk& c : n.out.pool()) put(c.token), put(c.offset);
      k += '|';
      for (std::uint64_t t : n.in.window()) put(t);
      k += '|';
      for (const auto& [t, l] : n.landing) {
        put(t);
        put(l.received);
        put(l.next_contig);
        std::vector<std::uint64_t> offs;
        l.offsets.for_each([&](std::uint64_t o) { offs.push_back(o); });
        std::sort(offs.begin(), offs.end());
        for (std::uint64_t o : offs) put(o);
        k += '|';
      }
      k += '#';
    }
    for (std::size_t r = 0; r < m_.rails; ++r) put(s.dead[r]);
    for (const Wire& w : s.wire) {
      items(w.sent);
      put(w.delivered);
      items(w.late);
    }
    for (const Transfer& x : s.xfer) put(x.open | x.cts << 1), put(x.acked);
    for (const auto& dest : s.landed)
      for (std::uint8_t n : dest) put(n);
    put(s.posted);
    put(s.deaths);
    put(s.get_pending | s.get_done << 1);
    put(s.served);
    return k;
  }

  void explore(State init) {
    std::vector<State> level;
    const auto visit = [&](State&& n, int depth) {
      if (!visited_.insert(key(n)).second) return;
      check_window(n);
      if (!finish(clone(n)))
        fail("no fault-free finish within " + std::to_string(kLivenessSteps) +
             " steps from a state " + std::to_string(depth) + " steps deep");
      level.push_back(std::move(n));
    };
    visit(std::move(init), 0);
    for (int depth = 1; failure_.empty() && !level.empty(); ++depth) {
      std::vector<State> parents;
      parents.swap(level);
      for (const State& s : parents) {
        if (s.posted < posts()) {
          State n = clone(s);
          post(n);
          visit(std::move(n), depth);
        }
        for (std::size_t w = 0; w < s.wire.size(); ++w) {
          if (can_deliver(s, w)) {
            State n = clone(s);
            deliver(n, w);
            visit(std::move(n), depth);
          }
          if (can_ack(s, w)) {
            State n = clone(s);
            ack(n, w);
            visit(std::move(n), depth);
          }
          if (s.dead[w / 2] || s.wire[w].sent.size() >= kWindow) continue;
          State n = clone(s);
          if (pop(n, w)) visit(std::move(n), depth);
        }
        if (s.deaths == m_.deaths) continue;
        for (std::size_t r = 0; r < m_.rails; ++r) {
          if (s.dead[r]) continue;
          const std::size_t fly[2] = {
              s.wire[r * 2].sent.size() - s.wire[r * 2].delivered,
              s.wire[r * 2 + 1].sent.size() - s.wire[r * 2 + 1].delivered};
          for (std::size_t a = 0; a <= fly[0]; ++a)
            for (std::size_t b = 0; b <= fly[1]; ++b) {
              State n = clone(s);
              const std::size_t late[2] = {a, b};
              die(n, r, late);
              visit(std::move(n), depth);
            }
        }
      }
    }
  }

  Model m_;
  std::unordered_set<std::string> visited_;
  std::unordered_set<std::string> live_;  // states seen to finish
  std::string failure_;
};

const char* name(MultirailPolicy p) {
  switch (p) {
    case MultirailPolicy::SingleRail: return "single";
    case MultirailPolicy::DynamicSplit: return "dynamic";
    case MultirailPolicy::Stripe: return "stripe";
  }
  return "?";
}

/// Runs the checker and prints its size and time; "" means it passed.
std::string check(const Model& m) {
  Checker c(m);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string failure = c.run();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::string what;
  for (std::uint64_t len : m.sends) what += std::to_string(len) + "+";
  std::printf("%s, %zu rails, %zu deaths, sends %s get %llu: %zu states in "
              "%lld ms\n",
              name(m.policy), m.rails, m.deaths, what.c_str(),
              static_cast<unsigned long long>(m.get), c.states(),
              static_cast<long long>(ms));
  return failure;
}

constexpr MultirailPolicy kPolicies[] = {MultirailPolicy::SingleRail,
                                         MultirailPolicy::DynamicSplit,
                                         MultirailPolicy::Stripe};

TEST(RendezvousModel, OneTransferEveryPolicy) {
  for (MultirailPolicy p : kPolicies) {
    Model m;
    m.policy = p;
    m.sends = {3};
    EXPECT_EQ(check(m), "") << name(p);
  }
}

TEST(RendezvousModel, TwoTransfersEveryPolicy) {
  for (MultirailPolicy p : kPolicies) {
    Model m;
    m.policy = p;
    m.sends = {2, 2};
    EXPECT_EQ(check(m), "") << name(p);
  }
}

TEST(RendezvousModel, SendAndGetEveryPolicy) {
  for (MultirailPolicy p : kPolicies) {
    Model m;
    m.policy = p;
    m.sends = {1};
    m.get = 2;
    EXPECT_EQ(check(m), "") << name(p);
  }
}

TEST(RendezvousModel, StealsAcrossThreeRails) {
  // Every chunk is placed on rail 0, so the other two rails only ever
  // steal. Two of the three rails may die under two chunks, one under
  // three.
  Model m;
  m.policy = MultirailPolicy::Stripe;
  m.rails = 3;
  m.stripe_on_first = true;
  m.deaths = 2;
  m.sends = {2};
  EXPECT_EQ(check(m), "");
  m.deaths = 1;
  m.sends = {3};
  EXPECT_EQ(check(m), "");
}

// The checker has teeth: each mutation of the glue below is caught.
std::string mutant(Mutation mu, MultirailPolicy p) {
  Model m;
  m.policy = p;
  m.sends = {2};
  m.get = 1;
  m.mutation = mu;
  return check(m);
}

TEST(RendezvousModel, CatchesAChunkLandedTwice) {
  const std::string failure =
      mutant(Mutation::SkipCoverage, MultirailPolicy::DynamicSplit);
  EXPECT_NE(failure.find("landed twice"), std::string::npos) << failure;
}

TEST(RendezvousModel, CatchesChunksRequeuedOnTheDeadRail) {
  const std::string failure =
      mutant(Mutation::RequeueOnDead, MultirailPolicy::SingleRail);
  EXPECT_NE(failure.find("no fault-free finish"), std::string::npos)
      << failure;
}

TEST(RendezvousModel, CatchesARequestServedTwice) {
  const std::string failure =
      mutant(Mutation::ServeTwice, MultirailPolicy::DynamicSplit);
  EXPECT_NE(failure.find("served twice"), std::string::npos) << failure;
}

}  // namespace
}  // namespace mado::core
