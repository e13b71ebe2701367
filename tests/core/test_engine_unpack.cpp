// Incremental-unpack semantics: express vs cheaper interleavings, multiple
// attached receives, messages split across several packets, and consumption
// ordering across concurrent messages. The ReceiveFastPath cases pin the
// one-lock path for messages that have already arrived: it must not wait,
// and it must keep every check and the reliability dedup floor.
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

class UnpackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<SimWorld>(2);
    world_->connect(0, 1, drv::test_profile());  // max_eager = 1024
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }

  void post_frags(std::initializer_list<std::uint32_t> sizes,
                  std::uint32_t seed = 1) {
    Message m;
    std::uint32_t i = 0;
    for (std::uint32_t s : sizes) {
      const Bytes d = pattern(s, seed + i++);
      m.pack(d.data(), d.size(), SendMode::Safe);
    }
    a_.post(std::move(m));
  }

  std::unique_ptr<SimWorld> world_;
  Channel a_, b_;
};

TEST_F(UnpackTest, AllCheaperThenFinish) {
  post_frags({16, 32, 64});
  Bytes r1(16), r2(32), r3(64);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r1.data(), 16, RecvMode::Cheaper);
  im.unpack(r2.data(), 32, RecvMode::Cheaper);
  im.unpack(r3.data(), 64, RecvMode::Cheaper);
  im.finish();  // the only blocking point
  EXPECT_EQ(r1, pattern(16, 1));
  EXPECT_EQ(r2, pattern(32, 2));
  EXPECT_EQ(r3, pattern(64, 3));
}

TEST_F(UnpackTest, ExpressAfterFullArrivalIsInstant) {
  post_frags({64});
  world_->run();  // everything delivered and buffered
  const Nanos before = world_->now();
  Bytes r(64);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), 64, RecvMode::Express);
  im.finish();
  EXPECT_EQ(world_->now(), before);  // no extra virtual time consumed
  EXPECT_EQ(r, pattern(64, 1));
}

TEST_F(UnpackTest, MessageSplitAcrossPackets) {
  // 5 x 400 B with a 1024 B eager limit: at least 3 packets.
  post_frags({400, 400, 400, 400, 400});
  IncomingMessage im = b_.begin_recv();
  for (std::uint32_t i = 0; i < 5; ++i) {
    Bytes r(400);
    im.unpack(r.data(), 400, RecvMode::Express);
    EXPECT_EQ(r, pattern(400, 1 + i)) << i;
  }
  im.finish();
  EXPECT_GE(world_->node(0).stats().counter("tx.packets"), 3u);
}

TEST_F(UnpackTest, ManyFragments) {
  Message m;
  std::vector<Bytes> frags;
  for (std::uint32_t i = 0; i < 50; ++i) {
    frags.push_back(pattern(20, 100 + i));
    m.pack(frags.back().data(), frags.back().size(), SendMode::Safe);
  }
  a_.post(std::move(m));
  IncomingMessage im = b_.begin_recv();
  for (std::uint32_t i = 0; i < 50; ++i) {
    Bytes r(20);
    im.unpack(r.data(), 20, RecvMode::Express);
    EXPECT_EQ(r, pattern(20, 100 + i)) << i;
  }
  im.finish();
}

TEST_F(UnpackTest, TwoAttachedReceivesServedOutOfAttachOrder) {
  send_bytes(a_, pattern(32, 1));
  send_bytes(a_, pattern(32, 2));
  IncomingMessage im0 = b_.begin_recv();
  IncomingMessage im1 = b_.begin_recv();
  Bytes r1(32), r0(32);
  im1.unpack(r1.data(), 32, RecvMode::Express);  // consume seq 1 first
  EXPECT_EQ(r1, pattern(32, 2));
  im0.unpack(r0.data(), 32, RecvMode::Express);
  EXPECT_EQ(r0, pattern(32, 1));
  im1.finish();
  im0.finish();
}

TEST_F(UnpackTest, MixedExpressCheaperInterleavedMessages) {
  post_frags({16, 256}, 10);
  post_frags({16, 256}, 20);
  IncomingMessage first = b_.begin_recv();
  IncomingMessage second = b_.begin_recv();
  Bytes h1(16), h2(16), p1(256), p2(256);
  first.unpack(h1.data(), 16, RecvMode::Express);
  second.unpack(h2.data(), 16, RecvMode::Express);
  first.unpack(p1.data(), 256, RecvMode::Cheaper);
  second.unpack(p2.data(), 256, RecvMode::Cheaper);
  second.finish();
  first.finish();
  EXPECT_EQ(h1, pattern(16, 10));
  EXPECT_EQ(p1, pattern(256, 11));
  EXPECT_EQ(h2, pattern(16, 20));
  EXPECT_EQ(p2, pattern(256, 21));
}

TEST_F(UnpackTest, NextSizeDiscoversEagerFragmentLength) {
  post_frags({123, 456});
  IncomingMessage im = b_.begin_recv();
  EXPECT_EQ(im.next_size(), 123u);
  Bytes r1 = im.unpack_bytes();
  EXPECT_EQ(r1, pattern(123, 1));
  EXPECT_EQ(im.next_size(), 456u);
  Bytes r2 = im.unpack_bytes();
  EXPECT_EQ(r2, pattern(456, 2));
  im.finish();
}

TEST_F(UnpackTest, NextSizeFromRtsWithoutWaitingForBulk) {
  // 16 KiB rendezvous fragment: the size must be learnable from the RTS
  // alone (before any bulk data could have flowed — no CTS yet).
  post_frags({16 * 1024});
  IncomingMessage im = b_.begin_recv();
  EXPECT_EQ(im.next_size(), 16u * 1024);
  EXPECT_EQ(world_->node(1).stats().counter("rx.bulk_chunks"), 0u);
  Bytes r = im.unpack_bytes();
  EXPECT_EQ(r, pattern(16 * 1024, 1));
  im.finish();
}

TEST_F(UnpackTest, UnknownSizeProtocolWithoutHeaderFragment) {
  // A sender that packs arbitrary-size payloads with no size header: the
  // receiver discovers each message's shape from the wire.
  for (std::uint32_t s : {7u, 900u, 5000u})
    send_bytes(a_, pattern(s, s));
  for (std::uint32_t s : {7u, 900u, 5000u}) {
    IncomingMessage im = b_.begin_recv();
    Bytes r = im.unpack_bytes();
    im.finish();
    EXPECT_EQ(r.size(), s);
    EXPECT_EQ(r, pattern(s, s));
  }
}

TEST_F(UnpackTest, FinishWithNothingUnpackedThrows) {
  send_bytes(a_, pattern(8));
  IncomingMessage im = b_.begin_recv();
  EXPECT_THROW(im.finish(), CheckError);
}

TEST_F(UnpackTest, UnpackAfterFinishThrows) {
  send_bytes(a_, pattern(8));
  Bytes r(8);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), 8, RecvMode::Express);
  im.finish();
  EXPECT_THROW(im.unpack(r.data(), 8, RecvMode::Express), CheckError);
}

TEST_F(UnpackTest, DoubleFinishThrows) {
  send_bytes(a_, pattern(8));
  Bytes r(8);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), 8, RecvMode::Express);
  im.finish();
  EXPECT_THROW(im.finish(), CheckError);
}

TEST_F(UnpackTest, ExpressHeaderWhilePayloadStillInFlight) {
  // Header and payload in separate packets (payload exceeds eager budget,
  // below rdv threshold): the express header must be deliverable before
  // the payload packet lands.
  post_frags({16, 2000});
  IncomingMessage im = b_.begin_recv();
  Bytes h(16);
  im.unpack(h.data(), 16, RecvMode::Express);
  EXPECT_EQ(h, pattern(16, 1));
  Bytes p(2000);
  im.unpack(p.data(), 2000, RecvMode::Cheaper);
  im.finish();
  EXPECT_EQ(p, pattern(2000, 2));
}

// An Express unpack of a fragment that is already buffered, and the finish
// after it, neither wait nor pump: with no progress thread and no external
// progress hook, any wait would self-pump the engine (prog.self_pumps).
TEST(ReceiveFastPath, ArrivedMessageIsReceivedWithoutWaiting) {
  RealTimerHost ta, tb;
  Engine a(0, EngineConfig{}, ta), b(1, EngineConfig{}, tb);
  auto pair = drv::ShmEndpoint::make_pair();
  a.add_rail(1, std::move(pair.a));
  b.add_rail(0, std::move(pair.b));
  Channel tx = a.open_channel(1, 7);
  Channel rx = b.open_channel(0, 7);
  send_bytes(tx, pattern(64, 5));
  for (int i = 0; i < 100000 && b.stats().counter("rx.packets") == 0; ++i) {
    a.progress();
    b.progress();
  }
  ASSERT_EQ(b.stats().counter("rx.packets"), 1u);
  EXPECT_EQ(recv_bytes(rx, 64), pattern(64, 5));
  EXPECT_EQ(b.stats().counter("prog.self_pumps"), 0u)
      << "receiving an arrived message went through the wait path";
  EXPECT_EQ(b.stats().counter("rx.msgs_completed"), 1u);
}

// Pending events stay pending: receiving an arrived message does not step
// the shared simulation, so a later message still in flight stays there.
TEST_F(UnpackTest, ArrivedMessageDoesNotStepTheWorld) {
  post_frags({64}, 1);
  world_->run();
  post_frags({64}, 2);  // in flight: its events wait in the fabric
  const std::uint64_t rx_packets =
      world_->node(1).stats().counter("rx.packets");
  Bytes r(64);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), r.size(), RecvMode::Express);
  im.finish();
  EXPECT_EQ(r, pattern(64, 1));
  EXPECT_EQ(world_->node(1).stats().counter("rx.packets"), rx_packets);
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 2));
}

TEST_F(UnpackTest, FinishAfterTooFewUnpacksOfArrivedMessageThrows) {
  post_frags({16, 32});
  world_->run();
  Bytes r(16);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), r.size(), RecvMode::Express);
  EXPECT_THROW(im.finish(), CheckError);
}

TEST_F(UnpackTest, FinishAfterTooManyUnpacksOfArrivedMessageThrows) {
  // The one real fragment completes the message, so finish() takes the
  // fast path — which must still reject the extra unpack.
  post_frags({16});
  world_->run();
  Bytes r(16), extra(8);
  IncomingMessage im = b_.begin_recv();
  im.unpack(r.data(), r.size(), RecvMode::Express);
  im.unpack(extra.data(), extra.size(), RecvMode::Cheaper);
  EXPECT_THROW(im.finish(), CheckError);
}

TEST_F(UnpackTest, UnpackSizeMismatchOfArrivedFragmentThrows) {
  post_frags({64});
  world_->run();
  Bytes r(32);
  IncomingMessage im = b_.begin_recv();
  EXPECT_THROW(im.unpack(r.data(), r.size(), RecvMode::Express), CheckError);
}

// A message finished on the fast path still advances the channel's dedup
// floor: when its rail dies before the receiver's ack gets back, the
// sender replays the packet on the surviving rail with a fresh reliable
// sequence, and the receiver must drop that copy as rel.dup_drops instead
// of resurrecting the message.
TEST(ReceiveFastPath, ReplayAfterFastFinishIsDroppedAsDuplicate) {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.rel_rto_initial = usec(50000);  // no retransmit before failover
  SimWorld w(2, cfg);
  drv::FaultPlan clean, acks_lost;
  acks_lost.drop = 1.0;
  w.connect(0, 1, drv::test_profile(), clean, acks_lost);  // rail 0
  w.connect(0, 1, drv::test_profile());                    // rail 1
  Channel tx = w.node(0).open_channel(1, 7);
  Channel rx = w.node(1).open_channel(0, 7);
  Engine& b = w.node(1);
  const SendHandle h = send_bytes(tx, pattern(64, 9));
  ASSERT_TRUE(w.run_until([&] { return b.stats().counter("rx.packets") > 0; }));
  EXPECT_EQ(recv_bytes(rx, 64), pattern(64, 9));  // arrived: fast path
  EXPECT_EQ(b.stats().counter("rel.dup_drops"), 0u);
  w.fail_link(0, 1, 0);
  EXPECT_TRUE(w.node(0).wait_send(h));
  w.run();
  EXPECT_EQ(b.stats().counter("rel.dup_drops"), 1u);
  EXPECT_EQ(b.stats().counter("rx.msgs_completed"), 1u);
  EXPECT_EQ(b.stats().counter("rx.malformed"), 0u);
  EXPECT_FALSE(rx.probe());
}

}  // namespace
}  // namespace mado::core
