// Engine over the real UDP datagram driver: lossy wire, go-back-N recovery,
// striping across UDP rails, and failover when a rail dies mid-transfer.
// Everything here runs over genuine 127.0.0.1 datagrams — kernel socket
// buffers, epoll wakeups, real loss injection — with the engine's
// reliability layer (forced on by UdpWorld) doing the recovery the driver
// honestly refuses to promise.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <thread>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class UdpEngineTest : public ::testing::Test {
 protected:
  void build(EngineConfig cfg = {}, std::size_t rails = 1) {
    world_ = std::make_unique<UdpWorld>(cfg, rails);
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }

  std::unique_ptr<UdpWorld> world_;
  Channel a_, b_;
};

TEST_F(UdpEngineTest, SmallMessageRoundTrip) {
  build();
  send_bytes(a_, pattern(100));
  EXPECT_EQ(recv_bytes(b_, 100), pattern(100));
}

TEST_F(UdpEngineTest, ManyMessagesInOrder) {
  build();
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i)
    send_bytes(a_, pattern(64, static_cast<std::uint32_t>(i)));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(recv_bytes(b_, 64), pattern(64, static_cast<std::uint32_t>(i)));
}

TEST_F(UdpEngineTest, RendezvousBulkOverRealDatagrams) {
  build();
  const Bytes data = pattern(1 << 20);
  SendHandle h = send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).wait_send(h));
}

TEST_F(UdpEngineTest, LossyWireRecoveredByReliability) {
  // 2% of DATA datagrams vanish in each direction. The driver delivers
  // what survives as it lands, without waiting on gaps; the engine's
  // go-back-N layer retransmits until every message lands byte-exact.
  build();
  world_->endpoint(0).set_rx_loss(0.02, 1);
  world_->endpoint(1).set_rx_loss(0.02, 2);
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i)
    send_bytes(a_, pattern(256, static_cast<std::uint32_t>(i)));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(recv_bytes(b_, 256), pattern(256, static_cast<std::uint32_t>(i)))
        << i;
  EXPECT_TRUE(world_->node(0).flush());
  // The wire really did lose datagrams — this is not a clean-link pass.
  EXPECT_GT(world_->endpoint(1).counters().rx_loss_injected.load(), 0u);
}

TEST_F(UdpEngineTest, LossyBulkTransferCompletes) {
  build();
  world_->endpoint(1).set_rx_loss(0.01, 7);
  const Bytes data = pattern(512 * 1024, 9);
  send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).flush());
}

TEST_F(UdpEngineTest, BidirectionalLossyTraffic) {
  build();
  world_->endpoint(0).set_rx_loss(0.02, 3);
  world_->endpoint(1).set_rx_loss(0.02, 4);
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    send_bytes(a_, pattern(128, static_cast<std::uint32_t>(i)));
    send_bytes(b_, pattern(128, 1000u + static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(recv_bytes(b_, 128), pattern(128, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(recv_bytes(a_, 128),
              pattern(128, 1000u + static_cast<std::uint32_t>(i)));
  }
}

TEST_F(UdpEngineTest, LossyStreamKeepsRail) {
  // A 1 MiB stream at window 4 with 1% of DATA datagrams lost each way:
  // go-back-N's retransmissions land as soon as they arrive, so the retry
  // budget never runs out and the rail never fails over.
  build();
  world_->endpoint(0).set_rx_loss(0.01, 5);
  world_->endpoint(1).set_rx_loss(0.01, 6);
  constexpr std::uint32_t kMsgs = 64;
  constexpr std::uint32_t kWindow = 4;
  constexpr std::size_t kSize = 1 << 20;
  std::deque<SendHandle> inflight;
  std::uint32_t posted = 0;
  for (std::uint32_t i = 0; i < kMsgs; ++i) {
    for (; posted < kMsgs && posted < i + kWindow; ++posted)
      inflight.push_back(send_bytes(a_, pattern(kSize, posted)));
    ASSERT_EQ(recv_bytes(b_, kSize), pattern(kSize, i)) << i;
    ASSERT_TRUE(world_->node(0).wait_send(inflight.front())) << i;
    inflight.pop_front();
  }
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_TRUE(world_->node(1).flush());
  for (NodeId n : {NodeId{0}, NodeId{1}})
    EXPECT_EQ(world_->node(n).stats().counter("rel.rail_failovers"), 0u)
        << "node " << n;
  EXPECT_GT(world_->endpoint(1).counters().rx_loss_injected.load(), 0u);
}

TEST_F(UdpEngineTest, StripeAcrossTwoUdpRails) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::DynamicSplit;
  cfg.rdv_chunk = 64 * 1024;
  build(cfg, /*rails=*/2);
  EXPECT_EQ(world_->node(0).rail_count(1), 2u);
  const Bytes data = pattern(2 << 20);
  send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  // Bulk chunks reference `data` zero-copy: quiesce the sender before the
  // buffer dies (a straggling RTO may still retransmit the last chunks).
  EXPECT_TRUE(world_->node(0).flush());
  // Both rails actually carried datagrams.
  EXPECT_GT(world_->endpoint(0, 0).counters().datagrams_tx.load(), 0u);
  EXPECT_GT(world_->endpoint(0, 1).counters().datagrams_tx.load(), 0u);
}

TEST_F(UdpEngineTest, FailoverDrainsToSurvivingRail) {
  // Kill one of two UDP rails mid-bulk-transfer: the reliability layer
  // must replay the dead rail's in-flight chunks on the survivor and the
  // message must still arrive byte-exact, exactly once.
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::DynamicSplit;
  cfg.rdv_chunk = 64 * 1024;
  build(cfg, /*rails=*/2);
  const Bytes data = pattern(2 << 20, 5);
  send_bytes(a_, data, SendMode::Later);
  // Let the transfer get going, then sever rail 0 (both directions — a
  // dead process takes its whole socket with it).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  world_->endpoint(0, 0).inject_failure();
  world_->endpoint(1, 0).inject_failure();
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_EQ(world_->node(1).stats().counter("rx.msgs_completed"), 1u);
}

}  // namespace
}  // namespace mado::core
