// Property tests (parameterized sweeps): every registered strategy must
// uphold the scheduler's universal invariants on randomized backlogs —
//   conservation: every pushed fragment is emitted exactly once;
//   per-flow FIFO: a flow's fragments leave in push order;
//   byte budget: multi-fragment packets respect caps.max_eager;
//   control priority: within a packet, control fragments come first;
//   progress: a non-empty backlog always drains in bounded steps.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/strategy.hpp"
#include "drivers/profiles.hpp"
#include "util/rng.hpp"

namespace mado::core {
namespace {

struct Pushed {
  ChannelId flow;
  MsgSeq seq;
  FragIdx idx;
  bool control;
};

using Params = std::tuple<std::string /*strategy*/, std::size_t /*window*/,
                          std::uint64_t /*seed*/>;

class StrategyPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(StrategyPropertyTest, InvariantsHoldOnRandomBacklog) {
  const auto& [name, window, seed] = GetParam();
  auto strategy = StrategyRegistry::instance().create(name);
  drv::Capabilities caps = drv::test_profile();  // max_eager = 1024
  StatsRegistry registry;
  EngineStats stats(registry);
  Rng rng(seed);

  // Build a random backlog: up to 12 flows, random per-flow message/frag
  // structure, sizes spanning tiny to oversized-eager, some control frags.
  TxBacklog backlog;
  std::vector<Pushed> pushed;
  std::uint64_t order = 1;
  const std::size_t nflows = 1 + rng.below(12);
  for (std::size_t f = 0; f < nflows; ++f) {
    const auto flow = static_cast<ChannelId>(f);
    const std::size_t nmsgs = 1 + rng.below(6);
    for (std::size_t msg = 0; msg < nmsgs; ++msg) {
      const auto nfrags = static_cast<FragIdx>(1 + rng.below(4));
      for (FragIdx i = 0; i < nfrags; ++i) {
        TxFrag tf;
        tf.channel = flow;
        tf.msg_seq = static_cast<MsgSeq>(msg);
        tf.idx = i;
        tf.nfrags_total = nfrags;
        tf.last = (i + 1 == nfrags);
        const std::size_t len =
            rng.chance(0.1) ? 1500 + rng.below(1500) : rng.below(300);
        tf.owned.assign(len, Byte{0x77});
        tf.len = len;
        tf.order = order++;
        tf.submit_time = tf.order;
        pushed.push_back({flow, tf.msg_seq, i, false});
        backlog.push(std::move(tf));
      }
    }
  }
  const std::size_t nctrl = rng.below(4);
  for (std::size_t c = 0; c < nctrl; ++c) {
    TxFrag tf;
    tf.channel = static_cast<ChannelId>(100 + c);
    tf.kind = FragKind::RdvCts;
    tf.nfrags_total = 1;
    tf.owned.assign(8, Byte{0});
    tf.len = 8;
    tf.order = order++;
    tf.submit_time = tf.order;
    pushed.push_back({tf.channel, 0, 0, true});
    backlog.push_control(std::move(tf));
  }

  // Drain. Nagle-style Wait decisions are honored by advancing `now`.
  const std::size_t total = backlog.frag_count();
  std::vector<Pushed> emitted;
  Nanos now = 0;
  std::size_t steps = 0;
  while (!backlog.empty()) {
    ASSERT_LT(steps++, 4 * total + 16) << "strategy failed to make progress";
    StrategyEnv env{caps, now, window, /*eval_budget=*/32, usec(5), &stats};
    PacketDecision d = strategy->next_packet(backlog, env);
    if (d.action == PacketDecision::Action::Wait) {
      ASSERT_GT(d.wait_until, now) << "Wait must move time forward";
      now = d.wait_until;
      continue;
    }
    ASSERT_EQ(d.action, PacketDecision::Action::Send);
    ASSERT_FALSE(d.frags.empty());

    // Byte budget (multi-data-fragment packets only) + control priority.
    std::size_t bytes = 0, data_count = 0;
    bool seen_data = false;
    for (const TxFrag& f : d.frags) {
      bytes += FragHeader::kWireSize + f.len;
      const bool is_ctrl = f.kind == FragKind::RdvCts;
      if (!is_ctrl) {
        ++data_count;
        seen_data = true;
      } else {
        EXPECT_FALSE(seen_data) << "control fragment after data fragment";
      }
      emitted.push_back({f.channel, f.msg_seq, f.idx, is_ctrl});
    }
    if (data_count > 1) {
      EXPECT_LE(bytes, caps.max_eager);
    }
  }

  // Conservation.
  ASSERT_EQ(emitted.size(), pushed.size());
  auto key = [](const Pushed& p) {
    return std::tuple(p.control, p.flow, p.seq, p.idx);
  };
  std::map<std::tuple<bool, ChannelId, MsgSeq, FragIdx>, int> want, got;
  for (const auto& p : pushed) want[key(p)]++;
  for (const auto& p : emitted) got[key(p)]++;
  EXPECT_EQ(want, got);

  // Per-flow FIFO across all emitted packets.
  std::map<ChannelId, std::pair<MsgSeq, FragIdx>> last;
  for (const auto& p : emitted) {
    if (p.control) continue;
    auto it = last.find(p.flow);
    if (it != last.end()) {
      const auto [pseq, pidx] = it->second;
      const bool in_order =
          p.seq > pseq || (p.seq == pseq && p.idx > pidx);
      EXPECT_TRUE(in_order) << "flow " << p.flow << " reordered";
    }
    last[p.flow] = {p.seq, p.idx};
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyPropertyTest,
    ::testing::Combine(
        ::testing::Values("fifo", "aggreg", "aggreg_exhaustive", "nagle",
                          "adaptive", "priority"),
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{4},
                          std::size_t{16}),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3}, std::uint64_t{42},
                          std::uint64_t{1234})),
    [](const ::testing::TestParamInfo<Params>& pi) {
      return std::get<0>(pi.param) + "_w" +
             std::to_string(std::get<1>(pi.param)) + "_s" +
             std::to_string(std::get<2>(pi.param));
    });

}  // namespace
}  // namespace mado::core
