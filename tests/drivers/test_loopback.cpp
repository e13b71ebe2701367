// Hand-pumped loopback: an in-process ShmEndpoint pair driven from a single
// thread, the way the manual-progression engine tests use it. Each case
// checks what one explicit progress() call on one side delivers. The
// receiver-destruction case lives in the driver conformance kit.
#include <gtest/gtest.h>

#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pair = ShmEndpoint::make_pair(test_profile());
    a_ = std::move(pair.a);
    b_ = std::move(pair.b);
    a_->set_handler(&ha_);
    b_->set_handler(&hb_);
  }

  std::unique_ptr<ShmEndpoint> a_, b_;
  RecordingHandler ha_, hb_;
};

TEST_F(LoopbackTest, NoSynchronousCallbacks) {
  GatherList gl;
  Bytes p = make_payload(16);
  gl.add(p.data(), p.size());
  a_->send(kTrackEager, gl, 1);
  EXPECT_TRUE(ha_.completions.empty());
  EXPECT_TRUE(hb_.packets.empty());
}

TEST_F(LoopbackTest, ProgressDeliversCompletionToSender) {
  GatherList gl;
  Bytes p = make_payload(16);
  gl.add(p.data(), p.size());
  a_->send(kTrackEager, gl, 42);
  a_->progress();
  ASSERT_EQ(ha_.completions.size(), 1u);
  EXPECT_EQ(ha_.completions[0].token, 42u);
  EXPECT_EQ(ha_.completions[0].track, kTrackEager);
}

TEST_F(LoopbackTest, ProgressDeliversPacketToReceiver) {
  GatherList gl;
  Bytes p = make_payload(32);
  gl.add(p.data(), p.size());
  a_->send(kTrackBulk, gl, 1);
  b_->progress();
  ASSERT_EQ(hb_.packets.size(), 1u);
  EXPECT_EQ(hb_.packets[0].track, kTrackBulk);
  EXPECT_EQ(hb_.packets[0].payload, p);
}

TEST_F(LoopbackTest, GatherSegmentsConcatenated) {
  Bytes p1 = make_payload(8, 1), p2 = make_payload(8, 2);
  GatherList gl;
  gl.add(p1.data(), p1.size());
  gl.add(p2.data(), p2.size());
  a_->send(kTrackEager, gl, 1);
  b_->progress();
  ASSERT_EQ(hb_.packets.size(), 1u);
  Bytes expect = p1;
  expect.insert(expect.end(), p2.begin(), p2.end());
  EXPECT_EQ(hb_.packets[0].payload, expect);
}

TEST_F(LoopbackTest, FifoOrderPreserved) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    GatherList gl;
    Bytes p = make_payload(4, static_cast<std::uint8_t>(i));
    gl.add(p.data(), p.size());
    a_->send(kTrackEager, gl, i);
  }
  a_->progress();
  b_->progress();
  ASSERT_EQ(ha_.completions.size(), 10u);
  ASSERT_EQ(hb_.packets.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ha_.completions[i].token, i);
    EXPECT_EQ(hb_.packets[i].payload[0], static_cast<Byte>(i));
  }
}

TEST_F(LoopbackTest, BothDirectionsIndependent) {
  GatherList ga, gb;
  Bytes pa = make_payload(8, 10), pb = make_payload(8, 20);
  ga.add(pa.data(), pa.size());
  gb.add(pb.data(), pb.size());
  a_->send(kTrackEager, ga, 1);
  b_->send(kTrackEager, gb, 2);
  a_->progress();
  b_->progress();
  ASSERT_EQ(ha_.packets.size(), 1u);
  ASSERT_EQ(hb_.packets.size(), 1u);
  EXPECT_EQ(ha_.packets[0].payload, pb);
  EXPECT_EQ(hb_.packets[0].payload, pa);
}

TEST_F(LoopbackTest, InvalidTrackThrows) {
  GatherList gl;
  Bytes p = make_payload(4);
  gl.add(p.data(), p.size());
  EXPECT_THROW(a_->send(TrackId{9}, gl, 1), CheckError);
}

}  // namespace
}  // namespace mado::drv
