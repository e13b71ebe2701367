// Reliable delivery over faulty rails (ISSUE 2): lossy-link injection,
// ack/retransmit with exponential backoff, duplicate/out-of-order
// suppression, payload CRC repair, and rail failover.
//
// All tests run on the deterministic SimWorld fabric with seeded fault
// plans, so every loss/duplication/reordering pattern replays
// bit-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

EngineConfig reliable_cfg() {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.payload_crc = true;
  return cfg;
}

drv::FaultPlan lossy_plan(std::uint64_t seed) {
  drv::FaultPlan plan;
  plan.drop = 0.01;
  plan.corrupt = 0.001;
  plan.duplicate = 0.005;
  plan.reorder = 0.005;
  plan.seed = seed;
  return plan;
}

class ReliabilityTest : public ::testing::Test {
 protected:
  void build(const EngineConfig& cfg, const drv::FaultPlan& plan_ab,
             const drv::FaultPlan& plan_ba,
             const drv::Capabilities& caps = drv::test_profile()) {
    world_ = std::make_unique<SimWorld>(2, cfg);
    world_->connect(0, 1, caps, plan_ab, plan_ba);
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }

  std::unique_ptr<SimWorld> world_;
  Channel a_, b_;
};

// Acceptance: 1% drop + 0.1% corrupt + duplication + reordering still
// delivers every message exactly once, in per-channel order, with the
// retransmit machinery visibly doing work.
TEST_F(ReliabilityTest, LossyEagerDeliversExactlyOnceInOrder) {
  build(reliable_cfg(), lossy_plan(11), lossy_plan(22));
  constexpr std::size_t kMsgs = 300;
  std::vector<SendHandle> handles;
  handles.reserve(kMsgs);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const std::size_t n = 64 + (i % 7) * 199;
    handles.push_back(
        send_bytes(a_, pattern(n, static_cast<std::uint32_t>(i))));
  }
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const std::size_t n = 64 + (i % 7) * 199;
    EXPECT_EQ(recv_bytes(b_, n), pattern(n, static_cast<std::uint32_t>(i)))
        << "message " << i;
  }
  for (const SendHandle& h : handles) EXPECT_TRUE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).flush());

  // The wire really was faulty, and the reliability layer really repaired it.
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.dropped, 0u);
  auto& tx = world_->node(0).stats();
  auto& rx = world_->node(1).stats();
  EXPECT_GT(tx.counter("rel.retransmits"), 0u);
  EXPECT_GT(tx.counter("rel.acks_rx"), 0u);
  EXPECT_GT(rx.counter("rel.acks_tx"), 0u);
  // Exactly once: the receiver completed precisely kMsgs messages even
  // though duplicates and retransmits arrived.
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Rendezvous bulk (stream 1) under the same faults: RTS/CTS control and the
// chunk stream are both retransmitted until the transfer completes.
TEST_F(ReliabilityTest, LossyRendezvousDeliversExactlyOnce) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 4096;
  build(cfg, lossy_plan(33), lossy_plan(44));
  const Bytes big = pattern(256 * 1024, 9);
  send_bytes(a_, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, big.size()), big);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_EQ(world_->node(1).stats().counter("rx.msgs_completed"), 1u);
  EXPECT_GT(world_->node(0).stats().counter("rel.retransmits"), 0u);
}

// A flipped payload bit is caught by the payload CRC (or, if it lands in
// the header, by the header CRC), the packet is dropped, and retransmission
// repairs the stream — the application sees clean bytes.
TEST_F(ReliabilityTest, CorruptedPayloadIsDroppedAndRepaired) {
  drv::FaultPlan plan;
  plan.corrupt = 0.10;
  plan.seed = 55;
  build(reliable_cfg(), plan, {});
  constexpr std::size_t kMsgs = 200;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(512, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 512), pattern(512, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.corrupted, 0u);
  auto& rx = world_->node(1).stats();
  // Every corrupted packet was rejected by one of the two CRC layers.
  EXPECT_GT(rx.counter("rel.payload_crc_drops") + rx.counter("rx.malformed"),
            0u);
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Duplicated and reordered packets are suppressed on RX: the go-back-N
// receiver only ever accepts the next expected sequence.
TEST_F(ReliabilityTest, DuplicationAndReorderingAreSuppressed) {
  drv::FaultPlan plan;
  plan.duplicate = 0.2;
  plan.reorder = 0.2;
  plan.seed = 66;
  build(reliable_cfg(), plan, {});
  constexpr std::size_t kMsgs = 150;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(128, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 128), pattern(128, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.duplicated, 0u);
  auto& rx = world_->node(1).stats();
  EXPECT_GT(rx.counter("rel.dup_drops") + rx.counter("rel.ooo_drops"), 0u);
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Acceptance: killing one of two rails mid-stream completes the transfer on
// the survivor. The un-acked chunks on the dead rail are replayed.
TEST_F(ReliabilityTest, FailoverMidStreamCompletesOnSurvivor) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 16 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
  b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);

  const Bytes big = pattern(1 << 20, 3);
  send_bytes(a_, big, SendMode::Later);
  Bytes out(big.size());
  IncomingMessage im = b_.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  // Let the split bulk stream make real progress on both rails...
  world_->run_until([&] {
    return world_->node(1).stats().counter("rx.bulk_chunks") >= 8;
  });
  // ...then pull the cable on rail 0.
  world_->fail_link(0, 1, 0);
  im.finish();
  EXPECT_EQ(out, big);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GE(world_->node(0).stats().counter("rel.rail_failovers"), 1u);

  // Post-failover traffic routes to the survivor transparently.
  send_bytes(a_, pattern(256, 42));
  EXPECT_EQ(recv_bytes(b_, 256), pattern(256, 42));
}

// Eager backlog + in-flight packets fail over too: kill the rail right
// after posting, before anything is acknowledged.
TEST_F(ReliabilityTest, EagerBacklogFailsOverInOrder) {
  EngineConfig cfg = reliable_cfg();
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  constexpr std::size_t kMsgs = 40;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(96, static_cast<std::uint32_t>(i)));
  world_->fail_link(0, 1, 0);  // in-flight packets are lost on the wire
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 96), pattern(96, static_cast<std::uint32_t>(i)))
        << "message " << i;
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GE(world_->node(0).stats().counter("rel.rail_failovers"), 1u);
}

// Snapshot rail state stays consistent with the failure machinery
// (satellite: RailInfo state / unacked bookkeeping).
TEST_F(ReliabilityTest, SnapshotReportsRailStates) {
  EngineConfig cfg = reliable_cfg();
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  send_bytes(a_, pattern(64, 1));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 1));

  Engine::Snapshot before = world_->node(0).snapshot();
  ASSERT_EQ(before.peers.size(), 1u);
  ASSERT_EQ(before.peers[0].rails.size(), 2u);
  for (const auto& ri : before.peers[0].rails)
    EXPECT_EQ(ri.state, RailState::Up);

  world_->fail_link(0, 1, 0);
  world_->run();

  for (NodeId n = 0; n < 2; ++n) {
    Engine::Snapshot after = world_->node(n).snapshot();
    ASSERT_EQ(after.peers[0].rails.size(), 2u);
    EXPECT_EQ(after.peers[0].rails[0].state, RailState::Down);
    EXPECT_EQ(after.peers[0].rails[1].state, RailState::Up);
    EXPECT_EQ(after.peers[0].rails[0].unacked_packets, 0u)
        << "dead rail must hold no un-acked traffic after failover";
    EXPECT_NE(after.to_string().find("state=down"), std::string::npos);
  }

  // The dead rail never carries new traffic.
  send_bytes(a_, pattern(64, 2));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 2));
  EXPECT_TRUE(world_->node(0).flush());
}

// With every rail dead and no survivor, sends fail fast instead of hanging:
// wait_send() returns false, send_failed() turns true, flush() still
// terminates.
TEST_F(ReliabilityTest, AllRailsDeadFailsSendsFast) {
  build(reliable_cfg(), {}, {});
  send_bytes(a_, pattern(64, 1));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 1));

  world_->fail_link(0, 1, 0);
  world_->run();

  SendHandle h = send_bytes(a_, pattern(64, 2));
  EXPECT_FALSE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).send_failed(h));
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GT(world_->node(0).stats().counter("rel.failed_sends"), 0u);
}

// A black-hole link (100% loss one way) exhausts the retry budget: the RTO
// backs off exponentially, the rail degrades, and the engine finally gives
// up and declares it Down.
TEST_F(ReliabilityTest, RetryBudgetExhaustionFailsRail) {
  drv::FaultPlan black_hole;
  black_hole.drop = 1.0;
  black_hole.seed = 77;
  build(reliable_cfg(), black_hole, {});
  SendHandle h = send_bytes(a_, pattern(256, 1));
  EXPECT_FALSE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).send_failed(h));
  auto& st = world_->node(0).stats();
  EXPECT_GE(st.counter("rel.rto_backoffs"), kRelMaxRetries);
  EXPECT_GT(st.counter("rel.retransmits"), 0u);
  Engine::Snapshot snap = world_->node(0).snapshot();
  EXPECT_EQ(snap.peers[0].rails[0].state, RailState::Down);
  EXPECT_TRUE(world_->node(0).flush());
}

// Randomized soak (satellite): two lossy rails, three channels with mixed
// eager/rendezvous sizes, bidirectional traffic, and a scheduled
// mid-transfer link failure on rail 1 (FaultPlan::fail_at). Everything must
// arrive exactly once, in per-channel order.
TEST_F(ReliabilityTest, RandomizedLossySoakWithScheduledFailover) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 8 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  drv::FaultPlan heavy_ab = lossy_plan(101);
  drv::FaultPlan heavy_ba = lossy_plan(102);
  heavy_ab.drop = heavy_ba.drop = 0.02;
  world_->connect(0, 1, drv::mx_myrinet_profile(), heavy_ab, heavy_ba);
  drv::FaultPlan dying = lossy_plan(103);
  dying.fail_at = 2 * kNanosPerMilli;  // cable pulled mid-soak
  world_->connect(0, 1, drv::mx_myrinet_profile(), dying, lossy_plan(104));

  Channel a1 = world_->node(0).open_channel(1, 7);
  Channel b1 = world_->node(1).open_channel(0, 7);
  Channel a2 = world_->node(0).open_channel(1, 8, TrafficClass::Bulk);
  Channel b2 = world_->node(1).open_channel(0, 8, TrafficClass::Bulk);
  Channel a3 = world_->node(0).open_channel(1, 9);
  Channel b3 = world_->node(1).open_channel(0, 9);

  constexpr std::size_t kSmall = 120;
  constexpr std::size_t kBulk = 12;
  constexpr std::size_t kBack = 60;
  for (std::size_t i = 0; i < kSmall; ++i) {
    const std::size_t n = 32 + (i % 11) * 331;
    send_bytes(a1, pattern(n, static_cast<std::uint32_t>(1000 + i)));
  }
  std::vector<Bytes> bulk_payloads;  // SendMode::Later references in place
  bulk_payloads.reserve(kBulk);
  for (std::size_t i = 0; i < kBulk; ++i) {
    bulk_payloads.push_back(
        pattern(48 * 1024, static_cast<std::uint32_t>(2000 + i)));
    send_bytes(a2, bulk_payloads.back(), SendMode::Later);
  }
  for (std::size_t i = 0; i < kBack; ++i)
    send_bytes(b3, pattern(512, static_cast<std::uint32_t>(3000 + i)));

  for (std::size_t i = 0; i < kSmall; ++i) {
    const std::size_t n = 32 + (i % 11) * 331;
    EXPECT_EQ(recv_bytes(b1, n),
              pattern(n, static_cast<std::uint32_t>(1000 + i)))
        << "small " << i;
  }
  for (std::size_t i = 0; i < kBulk; ++i)
    EXPECT_EQ(recv_bytes(b2, 48 * 1024),
              pattern(48 * 1024, static_cast<std::uint32_t>(2000 + i)))
        << "bulk " << i;
  for (std::size_t i = 0; i < kBack; ++i)
    EXPECT_EQ(recv_bytes(a3, 512),
              pattern(512, static_cast<std::uint32_t>(3000 + i)))
        << "back " << i;

  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_TRUE(world_->node(1).flush());
  auto& s0 = world_->node(0).stats();
  auto& s1 = world_->node(1).stats();
  EXPECT_EQ(s1.counter("rx.msgs_completed"), kSmall + kBulk);
  EXPECT_EQ(s0.counter("rx.msgs_completed"), kBack);
  EXPECT_GT(s0.counter("rel.retransmits") + s1.counter("rel.retransmits"), 0u);
  EXPECT_GE(s0.counter("rel.rail_failovers") + s1.counter("rel.rail_failovers"),
            1u);
  // Rail 1 really died on both sides.
  EXPECT_EQ(world_->node(0).snapshot().peers[0].rails[1].state,
            RailState::Down);
  EXPECT_EQ(world_->node(1).snapshot().peers[0].rails[1].state,
            RailState::Down);
}

// Reliability off (the default) must be wire-compatible with itself and pay
// nothing: no rel counters move on a clean link.
TEST_F(ReliabilityTest, ReliabilityOffCostsNothingOnCleanLink) {
  EngineConfig cfg;  // defaults: reliability off
  build(cfg, {}, {});
  for (std::size_t i = 0; i < 50; ++i)
    send_bytes(a_, pattern(256, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(recv_bytes(b_, 256), pattern(256, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  auto& st = world_->node(0).stats();
  EXPECT_EQ(st.counter("rel.retransmits"), 0u);
  EXPECT_EQ(st.counter("rel.acks_rx"), 0u);
  EXPECT_EQ(world_->node(1).stats().counter("rel.acks_tx"), 0u);
}

}  // namespace
}  // namespace mado::core
