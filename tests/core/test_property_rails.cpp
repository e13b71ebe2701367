// Rail-selection properties (dynamic traffic-class re-assignment + failure
// handling):
//   * no selection path — class pinning or rebalance_classes() — may ever
//     route new traffic onto a Down rail;
//   * the class→rail map follows load shifts and is restored once the load
//     drains;
//   * a Degraded rail (outstanding retransmit timeouts) recovers to Up as
//     soon as acks flow again, without sticking.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

// Randomized: four rails, two of which die at random points in a message
// stream. Every message still arrives (reliability replays), and the trace
// proves no packet was ever launched on a rail after its failover.
class RailSelectionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RailSelectionProperty, NewTrafficNeverLaunchesOnADownRail) {
  const std::uint64_t seed = GetParam();
  EngineConfig cfg;
  cfg.reliability = true;
  SimWorld world(2, cfg);
  constexpr std::size_t kRails = 4;
  for (std::size_t r = 0; r < kRails; ++r)
    world.connect(0, 1, drv::test_profile());
  Tracer tracer(1 << 16);
  world.node(0).set_tracer(&tracer);
  Channel a = world.node(0).open_channel(1, 7);
  Channel b = world.node(1).open_channel(0, 7);

  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  constexpr std::size_t kMsgs = 120;
  const std::size_t kill1 = 20 + next() % 30;
  const std::size_t kill2 = 60 + next() % 30;
  const RailId dead1 = static_cast<RailId>(next() % kRails);
  RailId dead2 = static_cast<RailId>(next() % kRails);
  if (dead2 == dead1) dead2 = static_cast<RailId>((dead2 + 1) % kRails);

  std::size_t next_recv = 0;  // channel receives are FIFO — consume in order
  auto recv_one = [&] {
    EXPECT_EQ(recv_bytes(b, 64 + next_recv % 900),
              pattern(64 + next_recv % 900,
                      static_cast<std::uint32_t>(next_recv)))
        << "message " << next_recv;
    ++next_recv;
  };
  for (std::size_t i = 0; i < kMsgs; ++i) {
    if (i == kill1) world.fail_link(0, 1, dead1);
    if (i == kill2) world.fail_link(0, 1, dead2);
    send_bytes(a, pattern(64 + i % 900, static_cast<std::uint32_t>(i)));
    // Interleave: drain a receive every third send while rails keep dying.
    if (i % 3 == 2) recv_one();
  }
  // Drain everything the interleaved loop did not consume.
  while (next_recv < kMsgs) recv_one();
  EXPECT_TRUE(world.node(0).flush());

  // Oracle over the trace: once a rail's RailDown record appears, no
  // PacketTx/BulkTx may follow on that rail.
  std::map<RailId, bool> dead;
  std::size_t tx_after_down = 0;
  for (const TraceRecord& r : tracer.snapshot()) {
    if (r.node != 0) continue;
    if (r.event == TraceEvent::RailDown) dead[r.rail] = true;
    if ((r.event == TraceEvent::PacketTx || r.event == TraceEvent::BulkTx) &&
        dead.count(r.rail) != 0)
      ++tx_after_down;
  }
  EXPECT_EQ(tx_after_down, 0u)
      << "packets launched on a rail after its failover";
  EXPECT_EQ(dead.size(), 2u) << "both scheduled kills must have fired";
  world.node(0).set_tracer(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RailSelectionProperty,
    ::testing::Values(std::uint64_t{3}, std::uint64_t{17}, std::uint64_t{51},
                      std::uint64_t{204}),
    [](const ::testing::TestParamInfo<std::uint64_t>& pi) {
      return "pinned_s" + std::to_string(pi.param);  // eager is class-pinned
    });

// Randomized: rebalance_classes() must never assign Control/SmallEager to a
// rail that is Down, across random kill orders that always leave at least
// one survivor.
TEST(RebalanceProperty, NeverAssignsClassesToDownRails) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    EngineConfig cfg;
    cfg.reliability = true;
    SimWorld world(2, cfg);
    constexpr std::size_t kRails = 4;
    for (std::size_t r = 0; r < kRails; ++r)
      world.connect(0, 1, drv::test_profile());
    Channel a = world.node(0).open_channel(1, 7);
    Channel b = world.node(1).open_channel(0, 7);
    send_bytes(a, pattern(64, 1));
    EXPECT_EQ(recv_bytes(b, 64), pattern(64, 1));

    std::uint64_t rng = seed * 77 + 5;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    std::vector<RailId> order{0, 1, 2, 3};
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[next() % i]);

    for (std::size_t k = 0; k + 1 < kRails; ++k) {  // keep one survivor
      world.fail_link(0, 1, order[k]);
      world.run();
      world.node(0).rebalance_classes();

      Engine::Snapshot snap = world.node(0).snapshot();
      ASSERT_EQ(snap.peers.size(), 1u);
      const auto& rails = snap.peers[0].rails;
      for (TrafficClass cls :
           {TrafficClass::Control, TrafficClass::SmallEager}) {
        const RailId r = static_cast<RailId>(
            world.node(0).class_rail(cls) % rails.size());
        EXPECT_NE(rails[r].state, RailState::Down)
            << "class " << static_cast<int>(cls) << " pinned to dead rail "
            << static_cast<int>(r) << " after killing "
            << static_cast<int>(order[k]);
      }
      // Traffic still flows after each kill + rebalance.
      send_bytes(a, pattern(128, static_cast<std::uint32_t>(100 + k)));
      EXPECT_EQ(recv_bytes(b, 128),
                pattern(128, static_cast<std::uint32_t>(100 + k)));
    }
    EXPECT_TRUE(world.node(0).flush());
  }
}

// Deterministic: the class map follows the load (rebalance moves the
// latency-sensitive classes off a loaded rail) and is restored once the
// load drains and a later rebalance runs.
TEST(RebalanceProperty, ClassMapFollowsLoadAndIsRestored) {
  EngineConfig cfg;  // ClassPinned, classes all on rail 0 by default
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7);
  Channel b = world.node(1).open_channel(0, 7);

  ASSERT_EQ(world.node(0).class_rail(TrafficClass::Control), 0);
  ASSERT_EQ(world.node(0).class_rail(TrafficClass::SmallEager), 0);

  // Pile submissions onto rail 0 without letting the fabric drain them:
  // track_depth is 1, so everything behind the first packet accumulates in
  // the rail-0 backlog.
  for (std::uint32_t i = 0; i < 40; ++i)
    send_bytes(a, pattern(2048, i));
  world.node(0).rebalance_classes();
  EXPECT_EQ(world.node(0).class_rail(TrafficClass::Control), 1)
      << "Control should flee the loaded rail";
  EXPECT_EQ(world.node(0).class_rail(TrafficClass::SmallEager), 1);

  // Drain, then rebalance again: with both rails idle the map returns to
  // rail 0 (the lowest-indexed least-loaded rail).
  for (std::uint32_t i = 0; i < 40; ++i)
    EXPECT_EQ(recv_bytes(b, 2048), pattern(2048, i));
  EXPECT_TRUE(world.node(0).flush());
  world.node(0).rebalance_classes();
  EXPECT_EQ(world.node(0).class_rail(TrafficClass::Control), 0)
      << "map should be restored once the load drains";
  EXPECT_EQ(world.node(0).class_rail(TrafficClass::SmallEager), 0);
}

// A rail that degrades (retransmit timeout on a black-holed link) returns
// to Up — and to full scheduling eligibility — once the link heals and acks
// make progress again.
TEST(RebalanceProperty, DegradedRailRecoversToUpWhenAcksResume) {
  EngineConfig cfg;
  cfg.reliability = true;
  SimWorld world(2, cfg);
  drv::FaultPlan black_hole;
  black_hole.drop = 1.0;
  black_hole.seed = 99;
  world.connect(0, 1, drv::test_profile(), black_hole, {});
  Channel a = world.node(0).open_channel(1, 7);
  Channel b = world.node(1).open_channel(0, 7);

  SendHandle h = send_bytes(a, pattern(256, 1));
  // Run until the RTO machinery marks the rail Degraded...
  world.run_until([&] {
    return world.node(0).snapshot().peers[0].rails[0].state ==
           RailState::Degraded;
  });
  ASSERT_EQ(world.node(0).snapshot().peers[0].rails[0].state,
            RailState::Degraded);
  // ...then heal the link; the pending retransmits now get through.
  world.endpoint(0, 1, 0).set_fault_plan({});
  EXPECT_EQ(recv_bytes(b, 256), pattern(256, 1));
  EXPECT_TRUE(world.node(0).wait_send(h));
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_EQ(world.node(0).snapshot().peers[0].rails[0].state, RailState::Up)
      << "ack progress must clear the Degraded state";
  EXPECT_GT(world.node(0).stats().counter("rel.retransmits"), 0u);
}

}  // namespace
}  // namespace mado::core
