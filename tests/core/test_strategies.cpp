// Direct unit tests of the strategy database and the built-in strategies'
// decision behaviour and invariants.
#include <gtest/gtest.h>

#include <map>

#include "core/strategies.hpp"
#include "core/strategy.hpp"
#include "drivers/profiles.hpp"

namespace mado::core {
namespace {

TxFrag data_frag(ChannelId ch, MsgSeq seq, FragIdx idx, std::uint16_t total,
                 std::size_t len, std::uint64_t order, Nanos t = 0) {
  TxFrag f;
  f.channel = ch;
  f.msg_seq = seq;
  f.idx = idx;
  f.nfrags_total = total;
  f.last = (idx + 1 == total);
  f.owned.assign(len, Byte{0x5a});
  f.len = len;
  f.order = order;
  f.submit_time = t;
  return f;
}

TxFrag ctrl_frag(std::uint64_t order) {
  TxFrag f = data_frag(0, 0, 0, 1, 8, order);
  f.kind = FragKind::RdvCts;
  return f;
}

struct StrategyFixture : ::testing::Test {
  drv::Capabilities caps = drv::test_profile();  // max_eager = 1024
  StatsRegistry stats;
  EngineStats engine_stats{stats};

  StrategyEnv env(std::size_t window = 0, std::size_t budget = 0,
                  Nanos nagle = 0, Nanos now = 0) {
    return StrategyEnv{caps, now, window, budget, nagle, &engine_stats};
  }

  /// Checks the universal invariants on a Send decision given the original
  /// per-flow contents.
  static void check_invariants(const PacketDecision& d,
                               const drv::Capabilities& caps) {
    ASSERT_EQ(d.action, PacketDecision::Action::Send);
    ASSERT_FALSE(d.frags.empty());
    // Per-flow indices must be non-decreasing (per-flow FIFO).
    std::map<ChannelId, std::pair<MsgSeq, FragIdx>> last;
    std::size_t bytes = 0;
    std::size_t data_count = 0;
    for (const TxFrag& f : d.frags) {
      if (f.kind == FragKind::Data) {
        ++data_count;
        auto it = last.find(f.channel);
        if (it != last.end()) {
          const auto [pseq, pidx] = it->second;
          const bool in_order =
              f.msg_seq > pseq || (f.msg_seq == pseq && f.idx > pidx);
          EXPECT_TRUE(in_order) << "flow " << f.channel << " reordered";
        }
        last[f.channel] = {f.msg_seq, f.idx};
      }
      bytes += FragHeader::kWireSize + f.len;
    }
    if (data_count > 1) {
      EXPECT_LE(bytes, caps.max_eager) << "aggregated packet over budget";
    }
  }
};

// ---- registry ---------------------------------------------------------------

TEST(StrategyRegistry, BuiltinsPresent) {
  auto& reg = StrategyRegistry::instance();
  for (const char* n : {"fifo", "aggreg", "aggreg_exhaustive", "nagle",
                        "adaptive", "priority"}) {
    EXPECT_TRUE(reg.contains(n)) << n;
    auto s = reg.create(n);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), n);
  }
}

TEST(StrategyRegistry, UnknownNameThrows) {
  EXPECT_THROW(StrategyRegistry::instance().create("no-such-strategy"),
               CheckError);
}

TEST(StrategyRegistry, UserExtensionAndOverride) {
  struct Custom final : Strategy {
    std::string name() const override { return "custom-test"; }
    PacketDecision next_packet(TxBacklog& b, const StrategyEnv&) override {
      PacketDecision d;
      if (b.empty()) return d;
      d.action = PacketDecision::Action::Send;
      d.frags.push_back(b.pop(b.active_flows().front()));
      return d;
    }
  };
  auto& reg = StrategyRegistry::instance();
  reg.register_strategy("custom-test",
                        [] { return std::make_unique<Custom>(); });
  EXPECT_TRUE(reg.contains("custom-test"));
  EXPECT_EQ(reg.create("custom-test")->name(), "custom-test");
  auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "custom-test"),
            names.end());
}

TEST(StrategyRegistry, EmptyNameRejected) {
  EXPECT_THROW(StrategyRegistry::instance().register_strategy(
                   "", [] { return make_fifo_strategy(); }),
               CheckError);
}

// ---- fifo ---------------------------------------------------------------------

using FifoTest = StrategyFixture;

TEST_F(FifoTest, IdleOnEmptyBacklog) {
  TxBacklog b;
  auto s = make_fifo_strategy();
  EXPECT_EQ(s->next_packet(b, env()).action, PacketDecision::Action::Idle);
}

TEST_F(FifoTest, NeverAggregatesAcrossFlows) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  b.push(data_frag(2, 0, 0, 1, 16, 2));
  auto s = make_fifo_strategy();
  auto d = s->next_packet(b, env());
  check_invariants(d, caps);
  EXPECT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].channel, 1u);
  d = s->next_packet(b, env());
  EXPECT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].channel, 2u);
}

TEST_F(FifoTest, NeverAggregatesAcrossMessages) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  b.push(data_frag(1, 1, 0, 1, 16, 2));
  auto s = make_fifo_strategy();
  auto d = s->next_packet(b, env());
  EXPECT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].msg_seq, 0u);
}

TEST_F(FifoTest, AggregatesWithinOneMessage) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 3, 16, 1));
  b.push(data_frag(1, 0, 1, 3, 16, 2));
  b.push(data_frag(1, 0, 2, 3, 16, 3));
  auto s = make_fifo_strategy();
  auto d = s->next_packet(b, env());
  check_invariants(d, caps);
  EXPECT_EQ(d.frags.size(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST_F(FifoTest, FollowsGlobalSubmitOrder) {
  TxBacklog b;
  b.push(data_frag(5, 0, 0, 1, 16, 10));
  b.push(data_frag(3, 0, 0, 1, 16, 4));
  auto s = make_fifo_strategy();
  EXPECT_EQ(s->next_packet(b, env()).frags[0].channel, 3u);
}

TEST_F(FifoTest, ControlsGoFirst) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  b.push_control(ctrl_frag(2));
  auto s = make_fifo_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].kind, FragKind::RdvCts);
}

TEST_F(FifoTest, SplitsOversizedMessageAcrossPackets) {
  TxBacklog b;
  for (FragIdx i = 0; i < 4; ++i)
    b.push(data_frag(1, 0, i, 4, 400, i + 1u));  // 4 x 400 > 1024
  auto s = make_fifo_strategy();
  std::size_t packets = 0, frags = 0;
  while (!b.empty()) {
    auto d = s->next_packet(b, env());
    check_invariants(d, caps);
    ++packets;
    frags += d.frags.size();
  }
  EXPECT_EQ(frags, 4u);
  EXPECT_GE(packets, 2u);
}

// ---- aggreg ----------------------------------------------------------------------

using AggregTest = StrategyFixture;

TEST_F(AggregTest, AggregatesAcrossFlows) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 8; ++ch)
    b.push(data_frag(ch, 0, 0, 1, 32, ch));
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  check_invariants(d, caps);
  EXPECT_EQ(d.frags.size(), 8u);
  EXPECT_TRUE(b.empty());
}

TEST_F(AggregTest, RespectsByteBudget) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 10; ++ch)
    b.push(data_frag(ch, 0, 0, 1, 200, ch));  // 10 x (200+20) > 1024
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  check_invariants(d, caps);
  EXPECT_LT(d.frags.size(), 10u);
  EXPECT_GE(d.frags.size(), 2u);
}

TEST_F(AggregTest, RespectsLookaheadWindow) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 8; ++ch)
    b.push(data_frag(ch, 0, 0, 1, 8, ch));
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env(/*window=*/3));
  EXPECT_EQ(d.frags.size(), 3u);
}

TEST_F(AggregTest, WindowOneDegeneratesToSingleFragment) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 8, 1));
  b.push(data_frag(2, 0, 0, 1, 8, 2));
  auto s = make_aggreg_strategy();
  EXPECT_EQ(s->next_packet(b, env(1)).frags.size(), 1u);
}

TEST_F(AggregTest, OldestFlowFirstInPacket) {
  TxBacklog b;
  b.push(data_frag(9, 0, 0, 1, 8, 10));
  b.push(data_frag(4, 0, 0, 1, 8, 2));
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 2u);
  EXPECT_EQ(d.frags[0].channel, 4u);
  EXPECT_EQ(d.frags[1].channel, 9u);
}

TEST_F(AggregTest, OversizedSingleFragmentStillSent) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 3000, 1));  // > max_eager, < rdv threshold
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].len, 3000u);
}

TEST_F(AggregTest, SkipsTooBigHeadButTakesSmallerFlows) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 900, 1));  // fills most of the packet
  b.push(data_frag(2, 0, 0, 1, 800, 2));  // won't fit after flow 1
  b.push(data_frag(3, 0, 0, 1, 50, 3));   // fits
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  check_invariants(d, caps);
  ASSERT_EQ(d.frags.size(), 2u);
  EXPECT_EQ(d.frags[0].channel, 1u);
  EXPECT_EQ(d.frags[1].channel, 3u);
}

TEST_F(AggregTest, ControlsIncludedBeforeData) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  b.push_control(ctrl_frag(5));
  auto s = make_aggreg_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 2u);
  EXPECT_EQ(d.frags[0].kind, FragKind::RdvCts);
  EXPECT_EQ(d.frags[1].kind, FragKind::Data);
}

TEST_F(AggregTest, CountsAggregatedPacketsInStats) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 8, 1));
  b.push(data_frag(2, 0, 0, 1, 8, 2));
  auto s = make_aggreg_strategy();
  s->next_packet(b, env());
  EXPECT_EQ(stats.counter("opt.aggregated_packets"), 1u);
}

// ---- aggreg_exhaustive -------------------------------------------------------------

using ExhaustiveTest = StrategyFixture;

TEST_F(ExhaustiveTest, AggregatesManySmallFragments) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 6; ++ch)
    b.push(data_frag(ch, 0, 0, 1, 16, ch));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(/*window=*/16, /*budget=*/0));
  check_invariants(d, caps);
  EXPECT_EQ(d.frags.size(), 6u);  // tiny fragments: aggregation dominates
}

TEST_F(ExhaustiveTest, PrefersPipeliningLargeFragments) {
  // Two ~400 B fragments on a NIC whose per-send overhead is tiny compared
  // with their serialization time: sending them separately lets the first
  // complete earlier (pipeline effect), so the optimizer should not merge.
  caps.cost.pio_threshold = 0;
  caps.cost.dma_overhead = 10;
  caps.cost.link_bytes_per_us = 1.0;  // 1 B/us: byte time dominates
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 400, 1));
  b.push(data_frag(2, 0, 0, 1, 400, 2));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(16, 0));
  check_invariants(d, caps);
  EXPECT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(b.frag_count(), 1u);
}

TEST_F(ExhaustiveTest, MergesWhenOverheadDominates) {
  caps.cost.pio_threshold = 0;
  caps.cost.dma_overhead = 100000;  // 100 us per transaction
  caps.cost.link_bytes_per_us = 1e6;
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 400, 1));
  b.push(data_frag(2, 0, 0, 1, 400, 2));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(16, 0));
  EXPECT_EQ(d.frags.size(), 2u);
}

TEST_F(ExhaustiveTest, EvaluationBudgetBoundsSearch) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 10; ++ch) {
    b.push(data_frag(ch, 0, 0, 2, 16, ch));
    b.push(data_frag(ch, 1, 0, 2, 16, ch + 100u));
  }
  auto s = make_aggreg_exhaustive_strategy();
  s->next_packet(b, env(/*window=*/20, /*budget=*/7));
  EXPECT_LE(stats.counter("opt.evals"), 7u);
  EXPECT_GE(stats.counter("opt.evals"), 1u);
}

TEST_F(ExhaustiveTest, UnboundedBudgetCountsAllCandidates) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  b.push(data_frag(2, 0, 0, 1, 16, 2));
  auto s = make_aggreg_exhaustive_strategy();
  s->next_packet(b, env(16, 0));
  // Candidates: (1,0) (0,1) (1,1) — the empty tuple is not evaluated.
  EXPECT_EQ(stats.counter("opt.evals"), 3u);
}

TEST_F(ExhaustiveTest, ProgressGuaranteeWithTinyBudget) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 16, 1));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(16, 1));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
  EXPECT_EQ(d.frags.size(), 1u);
}

TEST_F(ExhaustiveTest, PerFlowPrefixRuleHolds) {
  TxBacklog b;
  for (FragIdx i = 0; i < 3; ++i)
    b.push(data_frag(1, 0, i, 3, 16, i + 1u));
  for (FragIdx i = 0; i < 3; ++i)
    b.push(data_frag(2, 0, i, 3, 16, i + 10u));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(6, 0));
  check_invariants(d, caps);
  // Whatever subset was chosen, each flow's fragments must form a prefix.
  std::map<ChannelId, FragIdx> next_expected;
  for (const TxFrag& f : d.frags) {
    EXPECT_EQ(f.idx, next_expected[f.channel]);
    ++next_expected[f.channel];
  }
}

TEST_F(ExhaustiveTest, ControlsAlwaysIncluded) {
  TxBacklog b;
  b.push_control(ctrl_frag(1));
  b.push(data_frag(1, 0, 0, 1, 16, 2));
  auto s = make_aggreg_exhaustive_strategy();
  auto d = s->next_packet(b, env(16, 4));
  ASSERT_GE(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].kind, FragKind::RdvCts);
}

// ---- nagle ------------------------------------------------------------------------

using NagleTest = StrategyFixture;

TEST_F(NagleTest, WaitsOnSparseBacklog) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 8, 1, /*t=*/1000));
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(0, 0, /*nagle=*/5000, /*now=*/1200));
  EXPECT_EQ(d.action, PacketDecision::Action::Wait);
  EXPECT_EQ(d.wait_until, 6000u);
  EXPECT_EQ(b.frag_count(), 1u);  // nothing popped
  EXPECT_EQ(stats.counter("opt.nagle_waits"), 1u);
}

TEST_F(NagleTest, SendsWhenDeadlineReached) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 8, 1, 1000));
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(0, 0, 5000, /*now=*/6000));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
  EXPECT_EQ(d.frags.size(), 1u);
}

TEST_F(NagleTest, SendsWhenPacketHalfFull) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 500, 1, 1000));  // >= max_eager/2
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(0, 0, 5000, 1100));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
}

TEST_F(NagleTest, SendsWhenWindowFull) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 4; ++ch)
    b.push(data_frag(ch, 0, 0, 1, 8, ch, 1000));
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(/*window=*/4, 0, 5000, 1100));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
  EXPECT_EQ(d.frags.size(), 4u);
}

TEST_F(NagleTest, ControlsFlushImmediately) {
  TxBacklog b;
  b.push_control(ctrl_frag(1));
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(0, 0, 5000, 0));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
}

TEST_F(NagleTest, ZeroDelayBehavesLikeAggreg) {
  TxBacklog b;
  b.push(data_frag(1, 0, 0, 1, 8, 1));
  b.push(data_frag(2, 0, 0, 1, 8, 2));
  auto s = make_nagle_strategy();
  auto d = s->next_packet(b, env(0, 0, /*nagle=*/0, 0));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
  EXPECT_EQ(d.frags.size(), 2u);
}

// ---- priority ----------------------------------------------------------------------

using PriorityTest = StrategyFixture;

TxFrag classed_frag(ChannelId ch, TrafficClass cls, std::size_t len,
                    std::uint64_t order) {
  TxFrag f = data_frag(ch, 0, 0, 1, len, order);
  f.cls = cls;
  return f;
}

TEST_F(PriorityTest, ControlClassOvertakesOlderBulk) {
  TxBacklog b;
  b.push(classed_frag(1, TrafficClass::Bulk, 400, 1));     // older
  b.push(classed_frag(2, TrafficClass::Control, 32, 2));   // newer, urgent
  auto s = make_priority_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 2u);
  EXPECT_EQ(d.frags[0].channel, 2u);  // Control first despite being newer
  EXPECT_EQ(d.frags[1].channel, 1u);
}

TEST_F(PriorityTest, FullClassOrdering) {
  TxBacklog b;
  b.push(classed_frag(1, TrafficClass::Bulk, 16, 1));
  b.push(classed_frag(2, TrafficClass::PutGet, 16, 2));
  b.push(classed_frag(3, TrafficClass::SmallEager, 16, 3));
  b.push(classed_frag(4, TrafficClass::Control, 16, 4));
  auto s = make_priority_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 4u);
  EXPECT_EQ(d.frags[0].cls, TrafficClass::Control);
  EXPECT_EQ(d.frags[1].cls, TrafficClass::SmallEager);
  EXPECT_EQ(d.frags[2].cls, TrafficClass::PutGet);
  EXPECT_EQ(d.frags[3].cls, TrafficClass::Bulk);
}

TEST_F(PriorityTest, AgeBreaksTiesWithinClass) {
  TxBacklog b;
  b.push(classed_frag(5, TrafficClass::SmallEager, 16, 9));
  b.push(classed_frag(3, TrafficClass::SmallEager, 16, 2));
  auto s = make_priority_strategy();
  auto d = s->next_packet(b, env());
  ASSERT_EQ(d.frags.size(), 2u);
  EXPECT_EQ(d.frags[0].channel, 3u);  // older first within equal class
}

TEST_F(PriorityTest, RespectsWindowAndBudget) {
  TxBacklog b;
  for (ChannelId ch = 1; ch <= 8; ++ch)
    b.push(classed_frag(ch, TrafficClass::SmallEager, 16, ch));
  auto s = make_priority_strategy();
  EXPECT_EQ(s->next_packet(b, env(/*window=*/3)).frags.size(), 3u);
}

// ---- adaptive ----------------------------------------------------------------------

using AdaptiveTest = StrategyFixture;

TEST_F(AdaptiveTest, HoldsLoneFragmentWhenCompanionLikely) {
  auto s = make_adaptive_strategy();
  // Warm-up: decisions ~1 µs apart (gap well below the 10 µs hold window)
  // teach it that a companion fragment tends to arrive quickly.
  for (int i = 0; i < 3; ++i) {
    TxBacklog b;
    b.push(data_frag(1, static_cast<MsgSeq>(i), 0, 1, 32, 1,
                     static_cast<Nanos>(i) * usec(1)));
    s->next_packet(b, env(0, 0, usec(10), static_cast<Nanos>(i) * usec(1)));
  }
  TxBacklog b;
  b.push(data_frag(1, 9, 0, 1, 32, 1, usec(4)));
  auto d = s->next_packet(b, env(0, 0, usec(10), usec(4)));
  EXPECT_EQ(d.action, PacketDecision::Action::Wait);
  EXPECT_EQ(d.wait_until, usec(14));
  EXPECT_GE(stats.counter("opt.adaptive_holds"), 1u);
}

TEST_F(AdaptiveTest, NoHoldWhenNothingWillCome) {
  auto s = make_adaptive_strategy();
  // Warm-up with gaps far beyond the hold window: holding a lone fragment
  // would be pure latency tax (the regime where a static nagle loses).
  for (int i = 0; i < 3; ++i) {
    TxBacklog b;
    b.push(data_frag(1, static_cast<MsgSeq>(i), 0, 1, 32, 1,
                     static_cast<Nanos>(i) * usec(500)));
    auto d = s->next_packet(
        b, env(0, 0, usec(10), static_cast<Nanos>(i) * usec(500)));
    EXPECT_EQ(d.action, PacketDecision::Action::Send) << "round " << i;
  }
  EXPECT_EQ(stats.counter("opt.adaptive_holds"), 0u);
}

TEST_F(AdaptiveTest, BusyBacklogNeverHeld) {
  auto s = make_adaptive_strategy();
  for (int i = 0; i < 3; ++i) {
    TxBacklog b;  // two fragments available: aggregate now, don't wait
    b.push(data_frag(1, static_cast<MsgSeq>(i), 0, 1, 32, 1,
                     static_cast<Nanos>(i) * usec(1)));
    b.push(data_frag(2, static_cast<MsgSeq>(i), 0, 1, 32, 2,
                     static_cast<Nanos>(i) * usec(1)));
    auto d = s->next_packet(b, env(0, 0, usec(10),
                                   static_cast<Nanos>(i) * usec(1)));
    EXPECT_EQ(d.action, PacketDecision::Action::Send);
    EXPECT_EQ(d.frags.size(), 2u);
  }
}

TEST_F(AdaptiveTest, HeldFragmentReleasedAtDeadline) {
  auto s = make_adaptive_strategy();
  for (int i = 0; i < 3; ++i) {
    TxBacklog warm;
    warm.push(data_frag(1, static_cast<MsgSeq>(i), 0, 1, 32, 1,
                        static_cast<Nanos>(i) * usec(1)));
    s->next_packet(warm,
                   env(0, 0, usec(10), static_cast<Nanos>(i) * usec(1)));
  }
  TxBacklog b;
  b.push(data_frag(1, 9, 0, 1, 32, 1, usec(4)));
  auto d = s->next_packet(b, env(0, 0, usec(10), usec(15)));  // past hold
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
}

TEST_F(AdaptiveTest, ControlsNeverHeld) {
  auto s = make_adaptive_strategy();
  TxBacklog b;
  b.push_control(ctrl_frag(1));
  auto d = s->next_packet(b, env(0, 0, usec(10), usec(5000)));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
}

TEST_F(AdaptiveTest, OldestFlowLookupMatchesFullScan) {
  // The O(1) TxBacklog::oldest_flow() the hold check now relies on must
  // agree with a from-scratch scan for the minimum head submit order —
  // exactly what the old code computed by rebuilding (and heap-allocating)
  // the whole flow list via active_flows().
  TxBacklog b;
  std::uint64_t order = 1;
  for (ChannelId ch : {ChannelId{5}, ChannelId{2}, ChannelId{9}}) {
    b.push(data_frag(ch, 0, 0, 2, 16, order, static_cast<Nanos>(order)));
    ++order;
    b.push(data_frag(ch, 0, 1, 2, 16, order, static_cast<Nanos>(order)));
    ++order;
  }
  while (b.frag_count() > 0) {
    ChannelId brute = 0;
    std::uint64_t best = ~std::uint64_t{0};
    for (ChannelId ch : b.active_flows()) {
      if (b.peek(ch).order < best) {
        best = b.peek(ch).order;
        brute = ch;
      }
    }
    ASSERT_EQ(b.oldest_flow(), brute);
    ASSERT_EQ(b.oldest_submit_time(), b.peek(brute).submit_time);
    b.pop(b.oldest_flow());  // consume; the index must stay consistent
  }
}

TEST_F(AdaptiveTest, LargeLoneFragmentNotHeld) {
  // The hold-worthiness size check reads the lone fragment through
  // oldest_flow(); a fragment already a sizable share of max_eager is sent
  // immediately even when a companion is likely.
  auto s = make_adaptive_strategy();
  for (int i = 0; i < 3; ++i) {
    TxBacklog warm;
    warm.push(data_frag(1, static_cast<MsgSeq>(i), 0, 1, 32, 1,
                        static_cast<Nanos>(i) * usec(1)));
    s->next_packet(warm,
                   env(0, 0, usec(10), static_cast<Nanos>(i) * usec(1)));
  }
  TxBacklog b;
  b.push(data_frag(1, 9, 0, 1, 300, 1, usec(4)));  // 300 * 4 >= 1024
  auto d = s->next_packet(b, env(0, 0, usec(10), usec(4)));
  EXPECT_EQ(d.action, PacketDecision::Action::Send);
}

}  // namespace
}  // namespace mado::core
