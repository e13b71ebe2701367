// Engine over the shared-memory driver: intra-node (thread-to-thread)
// traffic through the same engine code path, including rendezvous and RMA.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class ShmEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<ShmWorld>(EngineConfig{});
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }
  std::unique_ptr<ShmWorld> world_;
  Channel a_, b_;
};

TEST_F(ShmEngineTest, SmallMessageRoundTrip) {
  send_bytes(a_, pattern(64));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64));
}

TEST_F(ShmEngineTest, ManyMessagesInOrder) {
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i)
    send_bytes(a_, pattern(48, static_cast<std::uint32_t>(i)));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(recv_bytes(b_, 48), pattern(48, static_cast<std::uint32_t>(i)));
}

TEST_F(ShmEngineTest, RendezvousAboveShmThreshold) {
  // shm profile threshold: 64 KiB.
  const Bytes data = pattern(128 * 1024);
  SendHandle h = send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).wait_send(h));
  EXPECT_GE(world_->node(0).stats().counter("tx.rdv_completed"), 1u);
}

TEST_F(ShmEngineTest, RmaPutGetIntraNode) {
  Bytes window(64 * 1024, Byte{0});
  world_->node(1).expose_window(2, window.data(), window.size());
  const Bytes data = pattern(4096, 5);
  SendHandle h = world_->node(0).rma_put(1, 2, 512, data.data(), data.size());
  EXPECT_TRUE(world_->node(0).wait_send(h));
  Bytes out(data.size());
  SendHandle g =
      world_->node(0).rma_get(1, 2, 512, out.data(), out.size());
  EXPECT_TRUE(world_->node(0).wait_send(g));
  EXPECT_EQ(out, data);
}

TEST_F(ShmEngineTest, AggregationHappensOverShm) {
  constexpr ChannelId kFlows = 8;
  std::vector<Channel> tx, rx;
  for (ChannelId f = 0; f < kFlows; ++f) {
    tx.push_back(world_->node(0).open_channel(1, 100 + f));
    rx.push_back(world_->node(1).open_channel(0, 100 + f));
  }
  for (int i = 0; i < 25; ++i)
    for (ChannelId f = 0; f < kFlows; ++f)
      send_bytes(tx[f], pattern(64, f * 1000u + static_cast<std::uint32_t>(i)));
  for (int i = 0; i < 25; ++i)
    for (ChannelId f = 0; f < kFlows; ++f)
      EXPECT_EQ(recv_bytes(rx[f], 64),
                pattern(64, f * 1000u + static_cast<std::uint32_t>(i)));
  EXPECT_LT(world_->node(0).stats().counter("tx.packets"),
            world_->node(0).stats().counter("tx.frags"));
}

// Every shm send rings the peer's handler. ~Engine closes its endpoints,
// which clears that ring target, so a sender that outlives its peer never
// rings the destroyed engine (under ASan such a ring is a use-after-free).
TEST(ShmEngineTeardown, SurvivingSenderNeverRingsDestroyedPeer) {
  RealTimerHost ta, tb;
  Engine a(0, EngineConfig{}, ta);
  auto b = std::make_unique<Engine>(1, EngineConfig{}, tb);
  auto pair = drv::ShmEndpoint::make_pair();
  a.add_rail(1, std::move(pair.a));
  b->add_rail(0, std::move(pair.b));
  a.start_progress_thread();
  b->start_progress_thread();
  Channel tx = a.open_channel(1, 1);
  Channel rx = b->open_channel(0, 1);
  send_bytes(tx, pattern(64));
  EXPECT_EQ(recv_bytes(rx, 64), pattern(64));
  b.reset();
  std::vector<SendHandle> sent;
  for (int i = 0; i < 16; ++i) sent.push_back(send_bytes(tx, pattern(64)));
  for (SendHandle& h : sent) EXPECT_TRUE(a.wait_send(h));
  a.stop_progress_thread();
}

}  // namespace
}  // namespace mado::core
