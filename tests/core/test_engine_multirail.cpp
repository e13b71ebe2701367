// Multirail and traffic-class tests: bulk splitting policies over
// homogeneous and heterogeneous rails, class→rail assignment, and dynamic
// re-assignment (paper §2).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class MultirailTest : public ::testing::Test {
 protected:
  void build(EngineConfig cfg, std::size_t rails,
             const drv::Capabilities& caps = drv::test_profile()) {
    world_ = std::make_unique<SimWorld>(2, cfg);
    for (std::size_t r = 0; r < rails; ++r) world_->connect(0, 1, caps);
    a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
    b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);
  }

  std::unique_ptr<SimWorld> world_;
  Channel a_, b_;
};

TEST_F(MultirailTest, TwoRailsRoundTrip) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::DynamicSplit;
  build(cfg, 2);
  EXPECT_EQ(world_->node(0).rail_count(1), 2u);
  const Bytes data = pattern(64 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(MultirailTest, DynamicSplitUsesAllRails) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::DynamicSplit;
  cfg.rdv_chunk = 4096;
  build(cfg, 2);
  const Bytes data = pattern(128 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  // Both rails carried bulk traffic: check per-endpoint counters via the
  // aggregate (32 chunks cannot all have gone over one rail and still have
  // left the shared pool empty at flush with depth-1 tracks).
  EXPECT_EQ(world_->node(0).pending_bulk_chunks(1), 0u);
  EXPECT_EQ(world_->node(1).stats().counter("rx.bulk_chunks"), 32u);
}

TEST_F(MultirailTest, SingleRailPolicyKeepsBulkOnOneRail) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::SingleRail;
  cfg.rdv_chunk = 4096;
  build(cfg, 2);
  const Bytes data = pattern(64 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(MultirailTest, HeterogeneousRailsMxPlusElan) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::DynamicSplit;
  cfg.rdv_chunk = 16 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::elan_quadrics_profile());
  a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
  b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);
  const Bytes data = pattern(1 << 20);
  send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(MultirailTest, DynamicBeatsSingleRailOnBandwidth) {
  auto run = [&](MultirailPolicy pol) {
    EngineConfig cfg;
    cfg.multirail = pol;
    cfg.rdv_chunk = 16 * 1024;
    build(cfg, 2, drv::mx_myrinet_profile());
    const Bytes data = pattern(1 << 20);
    send_bytes(a_, data, SendMode::Later);
    recv_bytes(b_, data.size());
    world_->node(0).flush();
    return world_->now();
  };
  const Nanos single = run(MultirailPolicy::SingleRail);
  const Nanos dynamic = run(MultirailPolicy::DynamicSplit);
  // Two equal rails: dynamic split should approach half the time.
  EXPECT_LT(dynamic, single * 3 / 4);
}

TEST_F(MultirailTest, ClassRailAssignmentRoutesEagerTraffic) {
  EngineConfig cfg;
  cfg.class_rail = {0, 1, 0, 0};  // SmallEager → rail 1
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1, TrafficClass::SmallEager);
  Channel b = world_->node(1).open_channel(0, 1, TrafficClass::SmallEager);
  send_bytes(a, pattern(64));
  EXPECT_EQ(world_->node(0).backlog_frags(1, 0), 0u);
  EXPECT_EQ(recv_bytes(b, 64), pattern(64));
}

TEST_F(MultirailTest, ClassRailWrapsModuloRailCount) {
  EngineConfig cfg;
  cfg.class_rail = {5, 5, 5, 5};  // only 1 rail exists → wraps to 0
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1);
  Channel b = world_->node(1).open_channel(0, 1);
  send_bytes(a, pattern(64));
  EXPECT_EQ(recv_bytes(b, 64), pattern(64));
}

TEST_F(MultirailTest, SetClassRailTakesEffectForNewMessages) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1, TrafficClass::Control);
  Channel b = world_->node(1).open_channel(0, 1, TrafficClass::Control);
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::Control), 0);
  world_->node(0).set_class_rail(TrafficClass::Control, 1);
  send_bytes(a, pattern(32));
  EXPECT_EQ(world_->node(0).backlog_frags(1, 0), 0u);
  EXPECT_EQ(recv_bytes(b, 32), pattern(32));
}

TEST_F(MultirailTest, RebalanceMovesLatencyClassesOffLoadedRail) {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::SingleRail;  // pin bulk to its rail
  cfg.class_rail = {0, 0, 0, 0};                // everything on rail 0
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  Channel bulk_tx = world_->node(0).open_channel(1, 1, TrafficClass::Bulk);
  world_->node(1).open_channel(0, 1, TrafficClass::Bulk);
  // Load rail 0: one large eager message in flight, the rest queued in the
  // collect layer (nothing pumped yet — no fabric steps between posts).
  for (int i = 0; i < 4; ++i) send_bytes(bulk_tx, pattern(16 * 1024));
  EXPECT_GT(world_->node(0).backlog_frags(1, 0), 0u);
  world_->node(0).rebalance_classes();
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::Control), 1);
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::SmallEager), 1);
  EXPECT_EQ(world_->node(0).stats().counter("sched.rebalances"), 1u);
}

TEST_F(MultirailTest, RebalanceNoopWithSingleRail) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->node(0).rebalance_classes();
  EXPECT_EQ(world_->node(0).stats().counter("sched.rebalances"), 0u);
}

TEST_F(MultirailTest, AutoRebalanceTicks) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  world_->node(0).set_auto_rebalance(usec(10));
  world_->fabric().run_until(usec(35));
  EXPECT_GE(world_->node(0).stats().counter("sched.rebalances"), 3u);
}

TEST_F(MultirailTest, SharedTrackCapsStillDeliverRdv) {
  // track_count == 1: eager packets and bulk chunks share one multiplexing
  // unit; the alternating pump must still drain both.
  auto caps = drv::test_profile();
  caps.track_count = 1;
  EngineConfig cfg;
  cfg.rdv_chunk = 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, caps);
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  const Bytes big = pattern(16 * 1024, 1);
  send_bytes(a_, big);
  send_bytes(a_, pattern(64, 2));
  EXPECT_EQ(recv_bytes(b_, big.size()), big);
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 2));
}

TEST_F(MultirailTest, EagerTrafficNotBlockedBehindBulk) {
  // Separate tracks: a small eager message posted after a huge rendezvous
  // must not wait for the bulk transfer to finish.
  EngineConfig cfg;
  cfg.rdv_chunk = 256 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  Channel a2 = world_->node(0).open_channel(1, 8);
  Channel b2 = world_->node(1).open_channel(0, 8);

  const Bytes big = pattern(4 << 20);
  send_bytes(a_, big, SendMode::Later);
  // Receiver posts the big unpack (starts the bulk flow), then reads the
  // small message; measure when the small one lands.
  Bytes rbig(big.size());
  IncomingMessage im = b_.begin_recv();
  im.unpack(rbig.data(), rbig.size(), RecvMode::Cheaper);

  send_bytes(a2, pattern(64, 5));
  const Bytes small = recv_bytes(b2, 64);
  const Nanos small_done = world_->now();
  EXPECT_EQ(small, pattern(64, 5));
  im.finish();
  const Nanos big_done = world_->now();
  EXPECT_LT(small_done, big_done / 4);
  EXPECT_EQ(rbig, big);
}

// A rendezvous posted after one of two rails died must complete under every
// multirail policy: no chunk may be queued on the Down rail, where nothing
// would ever send it and flush() would never return true.
class RailDeathTest : public ::testing::TestWithParam<MultirailPolicy> {};

TEST_P(RailDeathTest, RendezvousPostedAfterRailDeathCompletes) {
  EngineConfig cfg;
  cfg.multirail = GetParam();
  cfg.reliability = true;
  cfg.rdv_chunk = 4096;
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::test_profile());
  world.connect(0, 1, drv::test_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  world.fail_link(0, 1, 1);
  const Bytes data = pattern(96 * 1024);
  SendHandle h = send_bytes(a, data);
  EXPECT_EQ(recv_bytes(b, data.size()), data);
  EXPECT_TRUE(world.node(0).wait_send(h));
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_EQ(world.node(0).pending_bulk_chunks(1), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RailDeathTest,
    ::testing::Values(MultirailPolicy::SingleRail,
                      MultirailPolicy::DynamicSplit, MultirailPolicy::Stripe),
    [](const ::testing::TestParamInfo<MultirailPolicy>& pi) {
      switch (pi.param) {
        case MultirailPolicy::SingleRail: return std::string("single");
        case MultirailPolicy::DynamicSplit: return std::string("dynamic");
        case MultirailPolicy::Stripe: return std::string("stripe");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace mado::core
