#include "core/strategies.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace mado::core {
namespace {

using strategy_detail::packet_cost;
using strategy_detail::take_controls;

/// Wire footprint of a fragment inside an eager packet.
std::size_t frag_footprint(const TxFrag& f) {
  return FragHeader::kWireSize + f.len;
}

/// Whether adding `f` keeps the packet within the eager budget. The first
/// fragment is always admissible so oversized-but-still-eager fragments
/// (between max_eager and the rendezvous threshold) can leave as
/// single-fragment packets.
bool fits(std::size_t used, std::size_t count, std::size_t budget,
          const TxFrag& f) {
  if (count == 0) return true;
  return used + frag_footprint(f) <= budget;
}

/// A planned packet: per-flow take counts in scan order. Inline capacity
/// matches the default lookahead window so planning allocates nothing on
/// the steady-state decision path.
struct Plan {
  mado::SmallVector<std::pair<ChannelId, std::size_t>, 16> takes;
  std::size_t bytes = 0;  // payload + frag header footprint
  std::size_t count = 0;  // data fragments
};

/// Greedy fill: scan flows oldest-head-first, take head fragments while
/// they fit and the lookahead window is not exhausted.
Plan plan_greedy(const TxBacklog& backlog, const StrategyEnv& env,
                 std::size_t used_already, std::size_t count_already) {
  Plan plan;
  std::size_t used = used_already;
  std::size_t count = count_already;
  const std::size_t window = env.lookahead_window;
  for (ChannelId ch : backlog.flow_index()) {
    // One hash lookup per flow; the scan then walks the deque directly.
    const auto& q = backlog.flow(ch);
    std::size_t take = 0;
    while (take < q.size()) {
      if (window != 0 && count >= window) break;
      const TxFrag& f = q[take];
      if (!fits(used, count, env.caps.max_eager, f)) break;
      used += frag_footprint(f);
      ++count;
      ++take;
    }
    if (take > 0) {
      plan.takes.emplace_back(ch, take);
      if (window != 0 && count >= window) break;
    }
    // A flow whose head does not fit leaves room checks to later flows:
    // smaller heads elsewhere may still fit (cross-flow freedom).
  }
  plan.bytes = used - used_already;
  plan.count = count - count_already;
  return plan;
}

void pop_plan(TxBacklog& backlog, const Plan& plan, FragList& out) {
  for (const auto& [ch, take] : plan.takes) backlog.pop_n(ch, take, out);
}

// NOTE: strategies fill `PacketDecision::frags` in place rather than
// building a local list and moving it in. FragList's inline storage makes
// a container move element-wise, so each avoided hand-off saves a full
// pass of TxFrag moves on the decision path.

// --------------------------------------------------------------------------
// fifo: previous-Madeleine baseline. Deterministic: strictly follows global
// submit order; aggregates only consecutive fragments of the same message.
// --------------------------------------------------------------------------
class FifoStrategy final : public Strategy {
 public:
  std::string name() const override { return "fifo"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    PacketDecision d;
    std::size_t used = take_controls(backlog, env.caps.max_eager, d.frags);
    if (!d.frags.empty()) {
      d.action = PacketDecision::Action::Send;
      return d;
    }
    if (backlog.empty()) return d;

    const ChannelId ch = backlog.oldest_flow();  // globally oldest head
    const auto& q = backlog.flow(ch);
    const MsgSeq msg = q.front().msg_seq;
    std::size_t take = 0;
    while (take < q.size()) {
      const TxFrag& head = q[take];
      if (head.msg_seq != msg) break;  // never aggregates across messages
      if (!fits(used, take, env.caps.max_eager, head)) break;
      used += frag_footprint(head);
      ++take;
    }
    backlog.pop_n(ch, take, d.frags);
    d.action = PacketDecision::Action::Send;
    return d;
  }
};

// --------------------------------------------------------------------------
// aggreg: greedy cross-flow aggregation.
// --------------------------------------------------------------------------
class AggregStrategy final : public Strategy {
 public:
  std::string name() const override { return "aggreg"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    PacketDecision d;
    const std::size_t used =
        take_controls(backlog, env.caps.max_eager, d.frags);
    const Plan plan = plan_greedy(backlog, env, used, 0);
    pop_plan(backlog, plan, d.frags);
    if (d.frags.empty()) return d;
    if (env.stats && plan.count > 1) env.stats->inc(Ctr::OptAggregatedPackets);
    d.action = PacketDecision::Action::Send;
    return d;
  }
};

// --------------------------------------------------------------------------
// aggreg_exhaustive: bounded search over candidate packings.
//
// Candidates are per-flow prefix take counts (t_1..t_m), honoring byte
// budget and lookahead window. Each candidate is scored by an average-
// fragment-completion model: the candidate packet goes first, then the
// remaining visible fragments drain as greedy per-flow packets. Aggregating
// many small fragments wins (one transaction instead of k); aggregating
// large fragments loses (a later fragment's data is delayed behind bytes it
// does not need — the "pipeline effect" of paper §1). The search evaluates
// at most env.eval_budget candidates — the paper's future work #2.
// --------------------------------------------------------------------------
class AggregExhaustiveStrategy final : public Strategy {
 public:
  std::string name() const override { return "aggreg_exhaustive"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    PacketDecision d;
    const std::size_t ctrl_used =
        take_controls(backlog, env.caps.max_eager, d.frags);
    if (backlog.empty()) {
      if (!d.frags.empty()) d.action = PacketDecision::Action::Send;
      return d;
    }

    // Visible window: per-flow depth caps so the total number of visible
    // fragments is at most the lookahead window, oldest first. Scratch is
    // inline (SmallVector) so the search allocates nothing for realistic
    // flow counts.
    TxBacklog::FlowList flows;
    FlowQueues flowq;
    for (ChannelId ch : backlog.flow_index()) {
      flows.push_back(ch);
      flowq.push_back(&backlog.flow(ch));  // one hash lookup per flow
    }
    CountList max_take;
    max_take.resize(flows.size());
    {
      std::size_t visible = 0;
      const std::size_t window = env.lookahead_window == 0
                                     ? std::numeric_limits<std::size_t>::max()
                                     : env.lookahead_window;
      for (std::size_t i = 0; i < flows.size() && visible < window; ++i) {
        const std::size_t depth = flowq[i]->size();
        max_take[i] = std::min(depth, window - visible);
        visible += max_take[i];
      }
    }

    Search search{env, flowq, max_take, ctrl_used, {}, {}};
    search.run();
    if (env.stats) env.stats->inc(Ctr::OptEvals, search.evals);

    if (search.best_total == 0) {
      // Nothing fit beside the controls (or budget 0): fall back to the
      // oldest head so the engine always makes progress.
      if (d.frags.empty()) d.frags.push_back(backlog.pop(flows.front()));
      d.action = PacketDecision::Action::Send;
      return d;
    }
    for (std::size_t i = 0; i < flows.size(); ++i)
      backlog.pop_n(flows[i], search.best[i], d.frags);
    d.action = PacketDecision::Action::Send;
    return d;
  }

 private:
  using CountList = mado::SmallVector<std::size_t, 16>;
  /// Cached per-flow queue views: the search inspects every visible
  /// fragment many times, so it must not pay a hash lookup per peek.
  using FlowQueues = mado::SmallVector<const std::deque<TxFrag>*, 16>;

  struct Search {
    const StrategyEnv& env;
    const FlowQueues& flowq;
    const CountList& max_take;
    std::size_t ctrl_used;

    CountList cur, best;
    std::size_t evals = 0;
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_total = 0;

    void run() {
      cur.clear();
      cur.resize(flowq.size());
      best.clear();
      best.resize(flowq.size());
      dfs(0, ctrl_used, 0);
    }

    bool budget_left() const {
      return env.eval_budget == 0 || evals < env.eval_budget;
    }

    /// Enumerate take counts flow by flow, trying the largest take first so
    /// the greedy-like candidates are scored before the evaluation budget
    /// runs out.
    void dfs(std::size_t i, std::size_t used, std::size_t count) {
      if (!budget_left()) return;
      if (i == flowq.size()) {
        if (count == 0) return;  // progress guarantee: at least one fragment
        evaluate(used, count);
        return;
      }
      const std::deque<TxFrag>& q = *flowq[i];
      // Largest admissible take for this flow given bytes already used.
      std::size_t admissible = 0;
      std::size_t u = used;
      while (admissible < max_take[i]) {
        const TxFrag& f = q[admissible];
        if (!fits(u, count + admissible, env.caps.max_eager, f)) break;
        u += frag_footprint(f);
        ++admissible;
      }
      for (std::size_t take = admissible + 1; take-- > 0 && budget_left();) {
        cur[i] = take;
        std::size_t bytes = used;
        for (std::size_t k = 0; k < take; ++k)
          bytes += frag_footprint(q[k]);
        dfs(i + 1, bytes, count + take);
      }
      cur[i] = 0;
    }

    void evaluate(std::size_t used, std::size_t count) {
      ++evals;
      // Completion model: this packet finishes at t1; every fragment in it
      // completes then. The remaining visible fragments drain afterwards as
      // one greedy packet per flow (per-flow prefixes stay intact).
      const Nanos t1 = packet_cost(env.caps, used, count + ctrl_frag_count(),
                                   PacketHeader::kWireSize);
      double score = static_cast<double>(t1) * static_cast<double>(count);
      Nanos t = t1;
      for (std::size_t i = 0; i < flowq.size(); ++i) {
        const std::deque<TxFrag>& q = *flowq[i];
        std::size_t rem = max_take[i] - cur[i];
        std::size_t off = cur[i];
        while (rem > 0) {
          std::size_t bytes = 0, n = 0;
          while (n < rem) {
            const TxFrag& f = q[off + n];
            if (!fits(bytes, n, env.caps.max_eager, f)) break;
            bytes += frag_footprint(f);
            ++n;
          }
          t += packet_cost(env.caps, bytes, n, PacketHeader::kWireSize);
          score += static_cast<double>(t) * static_cast<double>(n);
          rem -= n;
          off += n;
        }
      }
      if (score < best_score ||
          (score == best_score && count > best_total)) {
        best_score = score;
        best = cur;
        best_total = count;
      }
    }

    std::size_t ctrl_frag_count() const {
      return ctrl_used == 0 ? 0 : 1;  // header-footprint already in ctrl_used
    }
  };
};

// --------------------------------------------------------------------------
// nagle: greedy aggregation, but a sparse backlog is artificially delayed —
// up to env.nagle_delay past the oldest fragment's submission — in the hope
// that more fragments arrive to aggregate (paper §3).
// --------------------------------------------------------------------------
class NagleStrategy final : public Strategy {
 public:
  std::string name() const override { return "nagle"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    // Control fragments are latency-critical (rendezvous handshakes):
    // their presence flushes immediately.
    if (backlog.has_control() || env.nagle_delay == 0)
      return aggreg_.next_packet(backlog, env);
    if (backlog.empty()) return {};

    const Plan plan = plan_greedy(backlog, env, 0, 0);
    const bool window_full =
        env.lookahead_window != 0 && plan.count >= env.lookahead_window;
    const bool packet_full = plan.bytes * 2 >= env.caps.max_eager;
    const Nanos oldest = backlog.oldest_submit_time();
    const Nanos deadline = oldest + env.nagle_delay;
    if (window_full || packet_full || env.now >= deadline) {
      PacketDecision d;
      pop_plan(backlog, plan, d.frags);
      if (!d.frags.empty()) d.action = PacketDecision::Action::Send;
      return d;
    }
    PacketDecision d;
    d.action = PacketDecision::Action::Wait;
    d.wait_until = deadline;
    if (env.stats) env.stats->inc(Ctr::OptNagleWaits);
    return d;
  }

 private:
  AggregStrategy aggreg_;
};

// --------------------------------------------------------------------------
// priority: class-aware aggregation. Like aggreg, but flow heads are
// scanned in (traffic class, age) order — Control before SmallEager before
// PutGet before Bulk — so latency-critical fragments overtake bulk
// fragments queued earlier on the SAME rail. This is the paper's traffic-
// class idea applied within one multiplexing unit, complementing the
// class→rail assignment that separates them across units.
// --------------------------------------------------------------------------
class PriorityStrategy final : public Strategy {
 public:
  std::string name() const override { return "priority"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    PacketDecision d;
    std::size_t used = take_controls(backlog, env.caps.max_eager, d.frags);
    std::size_t count = 0;
    const std::size_t window = env.lookahead_window;

    // Flow index is already oldest-head-first; sort into (class, age) order
    // with a precomputed composite key: one head lookup per flow instead of
    // one per comparison. std::sort on the composite key is equivalent to
    // the former stable_sort-by-class (head submit order breaks ties
    // deterministically) but performs no heap allocation — stable_sort may
    // allocate a temporary buffer.
    struct Key {
      int cls;
      std::uint64_t order;
      ChannelId ch;
    };
    mado::SmallVector<Key, 16> keys;
    for (ChannelId ch : backlog.flow_index()) {
      const TxFrag& head = backlog.flow(ch).front();
      keys.push_back(Key{class_order(head.cls), head.order, ch});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.cls != b.cls ? a.cls < b.cls : a.order < b.order;
    });
    for (const Key& key : keys) {
      const ChannelId ch = key.ch;
      const auto& q = backlog.flow(ch);
      std::size_t take = 0;
      while (take < q.size()) {
        if (window != 0 && count >= window) break;
        const TxFrag& head = q[take];
        const std::size_t need = FragHeader::kWireSize + head.len;
        if (count > 0 && used + need > env.caps.max_eager) break;
        used += need;
        ++count;
        ++take;
      }
      backlog.pop_n(ch, take, d.frags);
      if (window != 0 && count >= window) break;
    }
    if (!d.frags.empty()) d.action = PacketDecision::Action::Send;
    return d;
  }

 private:
  static int class_order(TrafficClass cls) {
    switch (cls) {
      case TrafficClass::Control: return 0;
      case TrafficClass::SmallEager: return 1;
      case TrafficClass::PutGet: return 2;
      case TrafficClass::Bulk: return 3;
    }
    return 4;
  }
};

// --------------------------------------------------------------------------
// adaptive: dynamic policy selection. An EWMA of the observed fragment
// inter-arrival gap decides whether holding a lone fragment is worth it:
// the Nagle-style delay "increases the potential of interesting
// aggregations" (paper §3) only if a companion fragment is likely to arrive
// *within* the hold window. So:
//   gap << hold  → hold lone fragments (a companion is coming; trade a
//                  little latency for one transaction instead of two);
//   gap >> hold  → send immediately (nothing will come; a static nagle
//                  strategy would pay the full delay for no aggregation);
//   backlog > 1  → aggregate immediately (no need to wait).
// This self-tunes the policy as the application's traffic evolves —
// paper §2's "selecting different policies, as the needs of the
// application evolve".
// --------------------------------------------------------------------------
class AdaptiveStrategy final : public Strategy {
 public:
  std::string name() const override { return "adaptive"; }

  PacketDecision next_packet(TxBacklog& backlog,
                             const StrategyEnv& env) override {
    observe(backlog, env);
    if (backlog.has_control()) return aggreg_.next_packet(backlog, env);
    if (backlog.empty()) return {};

    const Nanos hold = hold_window(env);
    // O(1) oldest-flow lookup: with exactly one data fragment queued, the
    // oldest flow IS the flow holding it (the old active_flows().front()
    // rebuilt and heap-allocated the whole flow list just to find it).
    if (companion_likely_ && backlog.frag_count() == 1 &&
        backlog.peek(backlog.oldest_flow()).len * 4 < env.caps.max_eager) {
      const Nanos deadline = backlog.oldest_submit_time() + hold;
      if (env.now < deadline) {
        PacketDecision d;
        d.action = PacketDecision::Action::Wait;
        d.wait_until = deadline;
        if (env.stats) env.stats->inc(Ctr::OptAdaptiveHolds);
        return d;
      }
    }
    return aggreg_.next_packet(backlog, env);
  }

 private:
  static Nanos hold_window(const StrategyEnv& env) {
    return env.nagle_delay != 0 ? env.nagle_delay : usec(2);
  }

  void observe(const TxBacklog& backlog, const StrategyEnv& env) {
    // Gap sample: elapsed time since the previous decision over the
    // fragments now visible (plus the one that triggered that decision).
    if (last_now_ != 0 && env.now > last_now_) {
      const double dt = static_cast<double>(env.now - last_now_);
      const double arrivals =
          static_cast<double>(backlog.frag_count()) + 1.0;
      const double gap = dt / arrivals;
      mean_gap_ = mean_gap_ == 0 ? gap : 0.8 * mean_gap_ + 0.2 * gap;
      companion_likely_ =
          mean_gap_ < static_cast<double>(hold_window(env));
    }
    last_now_ = env.now;
  }

  AggregStrategy aggreg_;
  Nanos last_now_ = 0;
  double mean_gap_ = 0;
  bool companion_likely_ = false;
};

}  // namespace

std::unique_ptr<Strategy> make_fifo_strategy() {
  return std::make_unique<FifoStrategy>();
}
std::unique_ptr<Strategy> make_aggreg_strategy() {
  return std::make_unique<AggregStrategy>();
}
std::unique_ptr<Strategy> make_aggreg_exhaustive_strategy() {
  return std::make_unique<AggregExhaustiveStrategy>();
}
std::unique_ptr<Strategy> make_nagle_strategy() {
  return std::make_unique<NagleStrategy>();
}
std::unique_ptr<Strategy> make_adaptive_strategy() {
  return std::make_unique<AdaptiveStrategy>();
}
std::unique_ptr<Strategy> make_priority_strategy() {
  return std::make_unique<PriorityStrategy>();
}

void register_builtin_strategies(StrategyRegistry& reg) {
  reg.register_strategy("fifo", make_fifo_strategy);
  reg.register_strategy("aggreg", make_aggreg_strategy);
  reg.register_strategy("aggreg_exhaustive", make_aggreg_exhaustive_strategy);
  reg.register_strategy("nagle", make_nagle_strategy);
  reg.register_strategy("adaptive", make_adaptive_strategy);
  reg.register_strategy("priority", make_priority_strategy);
}

}  // namespace mado::core
