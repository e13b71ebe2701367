// Size-boundary matrix: byte-exact round trips at every interesting edge of
// each driver profile — around the eager packet budget (single-fragment
// packets may exceed it), the PIO/DMA threshold, and the rendezvous
// threshold — where off-by-one bugs in packing and protocol selection live.
// Plus the frame bound: no frame above a driver's max_frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

using Params = std::tuple<std::string /*profile*/, int /*edge*/>;

/// The interesting sizes for a profile, derived from its capabilities.
std::vector<std::size_t> edge_sizes(const drv::Capabilities& caps) {
  std::vector<std::size_t> sizes = {
      1,
      caps.cost.pio_threshold > 1 ? caps.cost.pio_threshold - 1 : 1,
      caps.cost.pio_threshold + 1,
      caps.max_eager - FragHeader::kWireSize - 1,  // last size that packs
      caps.max_eager,      // single-fragment oversized packet
      caps.max_eager + 1,
      caps.rdv_threshold - 1,  // largest eager
      caps.rdv_threshold,      // smallest rendezvous
      caps.rdv_threshold + 1,
      caps.rdv_threshold * 3 + 7,  // several chunks, non-aligned tail
  };
  for (auto& s : sizes)
    if (s == 0) s = 1;
  return sizes;
}

class SizeBoundaryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SizeBoundaryTest, RoundTripAtEveryEdge) {
  const drv::Capabilities caps = drv::profile_by_name(GetParam());
  SimWorld w(2);
  w.connect(0, 1, caps);
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  std::uint32_t seed = 1;
  for (const std::size_t size : edge_sizes(caps)) {
    const Bytes data = pattern(size, seed++);
    send_bytes(a, data, SendMode::Later);
    ASSERT_EQ(recv_bytes(b, size), data)
        << GetParam() << " size " << size;
  }
  EXPECT_TRUE(w.node(0).flush());
  // Rendezvous fired exactly for the sizes at/above the threshold.
  EXPECT_EQ(w.node(0).stats().counter("tx.rdv_rts"), 3u);
}

TEST_P(SizeBoundaryTest, EdgesInsideOneMultiFragmentMessage) {
  const drv::Capabilities caps = drv::profile_by_name(GetParam());
  SimWorld w(2);
  w.connect(0, 1, caps);
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  const auto sizes = edge_sizes(caps);
  Message m;
  std::vector<Bytes> frags;
  std::uint32_t seed = 100;
  for (const std::size_t size : sizes) frags.push_back(pattern(size, seed++));
  for (const Bytes& f : frags) m.pack(f.data(), f.size(), SendMode::Later);
  a.post(std::move(m));
  IncomingMessage im = b.begin_recv();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Bytes out(sizes[i]);
    im.unpack(out.data(), out.size(), RecvMode::Express);
    ASSERT_EQ(out, frags[i]) << GetParam() << " frag " << i;
  }
  im.finish();
  EXPECT_TRUE(w.node(0).flush());
}

TEST_P(SizeBoundaryTest, RmaPutAtEveryEdge) {
  const drv::Capabilities caps = drv::profile_by_name(GetParam());
  SimWorld w(2);
  w.connect(0, 1, caps);
  const auto sizes = edge_sizes(caps);
  const std::size_t win_len = *std::max_element(sizes.begin(), sizes.end());
  Bytes window(win_len, Byte{0});
  w.node(1).expose_window(1, window.data(), window.size());
  std::uint32_t seed = 200;
  for (const std::size_t size : sizes) {
    const Bytes data = pattern(size, seed++);
    SendHandle h = w.node(0).rma_put(1, 1, 0, data.data(), size);
    ASSERT_TRUE(w.node(0).wait_send(h)) << GetParam() << " size " << size;
    ASSERT_EQ(Bytes(window.begin(), window.begin() + static_cast<long>(size)),
              data)
        << GetParam() << " size " << size;
  }
}

// A driver with a non-zero max_frame refuses a larger frame (driver
// contract clause 6: the sim driver throws), so each send below fails the
// test if the engine cut one byte too few. Each bound is met exactly:
//  * eager: node 1's packet of 16 CTS controls (exactly max_eager) and an
//    RmaPut of the clamped threshold − 1;
//  * bulk: rendezvous of 3 chunks + 1 byte, a full chunk and its
//    BulkHeader being exactly max_frame;
//  * sizes on both sides of the clamped threshold, and the configured
//    threshold − 1, which the clamp sends by rendezvous.
TEST(MaxFrameTest, NoFrameExceedsMaxFrame) {
  constexpr std::size_t kMaxFrame = 8192;
  constexpr std::size_t kCtsControls = 16;
  drv::Capabilities caps = drv::test_profile();
  caps.max_eager = kCtsControls * (FragHeader::kWireSize + CtsBody::kWireSize);
  caps.rdv_threshold = 64 * 1024;
  caps.max_frame = kMaxFrame;
  // Controls up to max_eager, then one RmaPut fragment of threshold − 1.
  const std::size_t threshold =
      kMaxFrame + 1 - PacketHeader::kWireSize - caps.max_eager -
      FragHeader::kWireSize - RmaPutBody::kWireSize;
  const std::size_t chunk = kMaxFrame - BulkHeader::kWireSize;

  SimWorld w(2);
  w.connect(0, 1, caps);
  Tracer tracer(1 << 16);
  w.node(0).set_tracer(&tracer);
  w.node(1).set_tracer(&tracer);
  Bytes win0(caps.rdv_threshold), win1(caps.rdv_threshold);
  w.node(0).expose_window(1, win0.data(), win0.size());
  w.node(1).expose_window(1, win1.data(), win1.size());
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);

  // Node 0's rendezvous RTS all land before node 1 posts a receive.
  std::vector<Bytes> rdv;
  for (std::uint32_t i = 0; i < kCtsControls; ++i) {
    rdv.push_back(pattern(3 * chunk + 1, i));
    send_bytes(a, rdv.back(), SendMode::Later);
  }
  w.run();
  // Node 1's first packet holds its eager track while the 16 CTS its
  // unpacks answer and an RmaPut queue behind it: one packet takes them all.
  const Bytes big = pattern(caps.rdv_threshold - 1, 50);
  send_bytes(b, big, SendMode::Later);
  std::vector<Bytes> out(kCtsControls, Bytes(3 * chunk + 1));
  std::vector<IncomingMessage> ims;
  for (Bytes& o : out) {
    ims.push_back(b.begin_recv());
    ims.back().unpack(o.data(), o.size(), RecvMode::Cheaper);
  }
  const Bytes put = pattern(threshold - 1, 51);
  SendHandle hp = w.node(1).rma_put(0, 1, 0, put.data(), put.size());
  for (std::size_t i = 0; i < kCtsControls; ++i) {
    ims[i].finish();
    EXPECT_EQ(out[i], rdv[i]) << "rendezvous " << i;
  }
  EXPECT_TRUE(w.node(1).wait_send(hp));
  EXPECT_EQ(Bytes(win0.begin(), win0.begin() + std::ptrdiff_t(put.size())),
            put);
  EXPECT_EQ(recv_bytes(a, big.size()), big);

  for (const std::size_t len : {threshold - 1, threshold}) {
    const Bytes data = pattern(len, static_cast<std::uint32_t>(len));
    SendHandle h = w.node(0).rma_put(1, 1, 0, data.data(), len);
    ASSERT_TRUE(w.node(0).wait_send(h)) << "put " << len;
    EXPECT_EQ(Bytes(win1.begin(), win1.begin() + std::ptrdiff_t(len)), data)
        << "put " << len;
    Bytes got(len);
    h = w.node(0).rma_get(1, 1, 0, got.data(), len);
    ASSERT_TRUE(w.node(0).wait_send(h)) << "get " << len;
    EXPECT_EQ(got, data) << "get " << len;
  }
  EXPECT_TRUE(w.node(0).flush());
  EXPECT_TRUE(w.node(1).flush());

  // The largest frame either engine handed its driver is exactly max_frame.
  std::size_t largest = 0;
  for (const TraceRecord& r : tracer.snapshot()) {
    if (r.event == TraceEvent::PacketTx) largest = std::max(largest, r.b);
    if (r.event == TraceEvent::BulkTx)
      largest = std::max(largest, BulkHeader::kWireSize + r.c);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(largest, kMaxFrame);
}

INSTANTIATE_TEST_SUITE_P(Profiles, SizeBoundaryTest,
                         ::testing::Values("mx", "elan", "tcp", "shm",
                                           "test"),
                         [](const ::testing::TestParamInfo<std::string>& pi) {
                           return pi.param;
                         });

}  // namespace
}  // namespace mado::core
