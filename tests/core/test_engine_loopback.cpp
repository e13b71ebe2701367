// Manual progression mode: engines over an in-process shm pair with neither
// a simulation fabric nor progress threads — every blocking call pumps its
// own engine's progress() internally (the library-embedded usage mode).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;

class LoopbackEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = std::make_unique<Engine>(0, EngineConfig{}, timers_a_);
    b_ = std::make_unique<Engine>(1, EngineConfig{}, timers_b_);
    auto pair = drv::ShmEndpoint::make_pair(drv::test_profile());
    a_->add_rail(1, std::move(pair.a));
    b_->add_rail(0, std::move(pair.b));
    cha_ = a_->open_channel(1, 7);
    chb_ = b_->open_channel(0, 7);
  }

  RealTimerHost timers_a_, timers_b_;
  std::unique_ptr<Engine> a_, b_;
  Channel cha_, chb_;
};

TEST_F(LoopbackEngineTest, BlockingCallsSelfPump) {
  const Bytes data = pattern(64);
  Message m;
  m.pack(data.data(), data.size(), SendMode::Safe);
  SendHandle h = cha_.post(std::move(m));
  // b's blocking unpack pumps b's driver; a's wait pumps a's completions.
  Bytes out(64);
  IncomingMessage im = chb_.begin_recv();
  im.unpack(out.data(), 64, RecvMode::Express);
  im.finish();
  EXPECT_EQ(out, data);
  EXPECT_TRUE(a_->wait_send(h));
}

TEST_F(LoopbackEngineTest, RendezvousWorksWithManualPumping) {
  const Bytes data = pattern(16 * 1024);  // > test profile threshold
  Message m;
  m.pack(data.data(), data.size(), SendMode::Later);
  SendHandle h = cha_.post(std::move(m));
  Bytes out(data.size());
  IncomingMessage im = chb_.begin_recv();
  // The express unpack drives the whole handshake: b pumps (RTS in),
  // posts CTS; a's arrival processing happens when b's wait loop calls
  // b.progress() which delivers... the CTS sits in a's endpoint, drained
  // by a's progress — which the cross-engine dependency forces through
  // wait_send below. Use Cheaper + finish so b doesn't deadlock waiting
  // for data a hasn't pumped yet.
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  // Interleave both engines' progression manually until done.
  for (int i = 0; i < 10000 && !a_->send_done(h); ++i) {
    a_->progress();
    b_->progress();
  }
  im.finish();
  EXPECT_EQ(out, data);
  EXPECT_TRUE(a_->send_done(h));
}

TEST_F(LoopbackEngineTest, ExplicitProgressDrainsBacklog) {
  for (int i = 0; i < 10; ++i) {
    const Bytes data = pattern(64, static_cast<std::uint32_t>(i));
    Message m;
    m.pack(data.data(), data.size(), SendMode::Safe);
    cha_.post(std::move(m));
  }
  for (int i = 0; i < 100 && a_->inflight_packets() + a_->backlog_frags(1, 0);
       ++i) {
    a_->progress();
    b_->progress();
  }
  EXPECT_EQ(a_->backlog_frags(1, 0), 0u);
  for (int i = 0; i < 10; ++i) {
    Bytes out(64);
    IncomingMessage im = chb_.begin_recv();
    im.unpack(out.data(), 64, RecvMode::Express);
    im.finish();
    EXPECT_EQ(out, pattern(64, static_cast<std::uint32_t>(i)));
  }
}

}  // namespace
}  // namespace mado::core
