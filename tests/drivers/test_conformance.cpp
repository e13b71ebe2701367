// Driver conformance kit: one parameterized suite that checks the
// DriverEndpoint contract (drivers/driver.hpp) against EVERY transport —
// shared-memory, simulated NIC, socket streams and UDP datagrams. Anyone
// adding a driver (docs/internals.md §9) plugs it in here.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "drivers/sim_driver.hpp"
#include "drivers/socket_driver.hpp"
#include "drivers/udp_driver.hpp"
#include "sim/fabric.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;

/// Uniform harness over one endpoint pair plus its progression mechanism.
struct Harness {
  std::unique_ptr<DriverEndpoint> a, b;
  RecordingHandler ha, hb;
  std::function<void()> pump_once;  // advance the world a little
  std::unique_ptr<sim::Fabric> fabric;  // sim only

  void init() {
    a->set_handler(&ha);
    b->set_handler(&hb);
  }

  /// Pump until `pred` or timeout; returns pred().
  bool pump_until(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      pump_once();
    }
    return true;
  }

  void send(DriverEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    ep.send(track, gl, token);
  }
};

// gtest prints the raw value in each test's name; the values stay fixed
// so the names do not change when a kind is added or removed.
enum class Kind { Shm = 1, Sim, Socket, Udp };

std::unique_ptr<Harness> make_harness(Kind kind) {
  auto h = std::make_unique<Harness>();
  switch (kind) {
    case Kind::Shm: {
      auto pair = ShmEndpoint::make_pair();
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Sim: {
      h->fabric = std::make_unique<sim::Fabric>();
      auto pair = SimEndpoint::make_pair(*h->fabric, test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Socket: {
      auto pair = SocketEndpoint::make_pair(test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Udp: {
      // Real datagrams over 127.0.0.1. A clean loopback with the driver's
      // flow-control window engaged delivers everything the contract asks
      // for, including per-track FIFO (seq-ordered release).
      auto pair = UdpEndpoint::make_pair(test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
  }
  Harness* raw = h.get();
  if (h->fabric) {
    h->pump_once = [raw] { raw->fabric->step(); };
  } else {
    h->pump_once = [raw] {
      raw->a->progress();
      if (raw->b) raw->b->progress();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    };
  }
  h->init();
  return h;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Shm: return "shm";
    case Kind::Sim: return "sim";
    case Kind::Socket: return "socket";
    case Kind::Udp: return "udp";
  }
  return "?";
}

class DriverConformanceTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override { h_ = make_harness(GetParam()); }
  void TearDown() override {
    if (h_) {
      h_->a->close();
      if (h_->b) h_->b->close();
    }
  }
  std::unique_ptr<Harness> h_;
};

TEST_P(DriverConformanceTest, SendNeverInvokesHandlersSynchronously) {
  h_->send(*h_->a, kTrackEager, make_payload(64), 1);
  EXPECT_TRUE(h_->ha.completions.empty());
  EXPECT_TRUE(h_->hb.packets.empty());
}

TEST_P(DriverConformanceTest, CompletionCarriesTrackAndToken) {
  h_->send(*h_->a, kTrackBulk, make_payload(64), 0xfeed);
  ASSERT_TRUE(h_->pump_until([&] { return !h_->ha.completions.empty(); }));
  EXPECT_EQ(h_->ha.completions[0].track, kTrackBulk);
  EXPECT_EQ(h_->ha.completions[0].token, 0xfeedu);
}

TEST_P(DriverConformanceTest, PayloadDeliveredByteExact) {
  const Bytes p = make_payload(777, 9);
  h_->send(*h_->a, kTrackEager, p, 1);
  ASSERT_TRUE(h_->pump_until([&] { return !h_->hb.packets.empty(); }));
  EXPECT_EQ(h_->hb.packets[0].payload, p);
  EXPECT_EQ(h_->hb.packets[0].track, kTrackEager);
}

TEST_P(DriverConformanceTest, LargePayloadSurvives) {
  const Bytes p = make_payload(2 * 1024 * 1024, 3);
  h_->send(*h_->a, kTrackBulk, p, 1);
  ASSERT_TRUE(h_->pump_until([&] { return !h_->hb.packets.empty(); }));
  EXPECT_EQ(h_->hb.packets[0].payload, p);
}

TEST_P(DriverConformanceTest, ZeroLengthPayload) {
  GatherList gl;
  h_->a->send(kTrackEager, gl, 5);
  ASSERT_TRUE(h_->pump_until([&] {
    return !h_->hb.packets.empty() && !h_->ha.completions.empty();
  }));
  EXPECT_TRUE(h_->hb.packets[0].payload.empty());
}

TEST_P(DriverConformanceTest, PerTrackFifoOrder) {
  constexpr std::uint64_t kN = 64;
  for (std::uint64_t i = 0; i < kN; ++i)
    h_->send(*h_->a, kTrackEager, make_payload(16, static_cast<std::uint8_t>(i)),
             i);
  ASSERT_TRUE(h_->pump_until([&] { return h_->hb.packets.size() == kN; }));
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(h_->hb.packets[i].payload,
              make_payload(16, static_cast<std::uint8_t>(i)))
        << i;
    EXPECT_EQ(h_->ha.completions[i].token, i);
  }
}

TEST_P(DriverConformanceTest, GatherSegmentsConcatenate) {
  const Bytes p1 = make_payload(32, 1), p2 = make_payload(48, 2),
              p3 = make_payload(16, 3);
  GatherList gl;
  gl.add(p1.data(), p1.size());
  gl.add(p2.data(), p2.size());
  gl.add(p3.data(), p3.size());
  h_->a->send(kTrackEager, gl, 1);
  ASSERT_TRUE(h_->pump_until([&] { return !h_->hb.packets.empty(); }));
  Bytes expect = p1;
  expect.insert(expect.end(), p2.begin(), p2.end());
  expect.insert(expect.end(), p3.begin(), p3.end());
  EXPECT_EQ(h_->hb.packets[0].payload, expect);
}

TEST_P(DriverConformanceTest, DirectionsAreIndependent) {
  h_->send(*h_->a, kTrackEager, make_payload(16, 1), 1);
  h_->send(*h_->b, kTrackEager, make_payload(16, 2), 2);
  ASSERT_TRUE(h_->pump_until([&] {
    return !h_->ha.packets.empty() && !h_->hb.packets.empty();
  }));
  EXPECT_EQ(h_->ha.packets[0].payload, make_payload(16, 2));
  EXPECT_EQ(h_->hb.packets[0].payload, make_payload(16, 1));
}

TEST_P(DriverConformanceTest, SegmentsReusableAfterCompletion) {
  Bytes buf = make_payload(64, 1);
  h_->send(*h_->a, kTrackEager, buf, 1);
  ASSERT_TRUE(h_->pump_until([&] { return !h_->ha.completions.empty(); }));
  std::fill(buf.begin(), buf.end(), Byte{0});  // allowed after completion
  ASSERT_TRUE(h_->pump_until([&] { return !h_->hb.packets.empty(); }));
  EXPECT_EQ(h_->hb.packets[0].payload, make_payload(64, 1));
}

TEST_P(DriverConformanceTest, ConcurrentTracksShareOnePeerWithoutInterference) {
  // Two tracks in flight at once toward the same peer: a stream of large
  // bulk chunks raced against a stream of small eager packets, interleaved
  // at submission time. The contract: per-track FIFO survives, every
  // payload stays byte-exact, and completions for both tracks arrive in
  // per-track submission order — neither track may starve or reorder the
  // other. This is exactly the shape the engine's striped rendezvous path
  // produces (eager control packets racing bulk chunks on one rail).
  constexpr std::uint64_t kN = 8;
  constexpr std::size_t kBulkSize = 192 * 1024;
  for (std::uint64_t i = 0; i < kN; ++i) {
    h_->send(*h_->a, kTrackBulk,
             make_payload(kBulkSize, static_cast<std::uint8_t>(0x40 + i)),
             0x100 + i);
    h_->send(*h_->a, kTrackEager,
             make_payload(24, static_cast<std::uint8_t>(i)), 0x200 + i);
  }
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->hb.packets.size() == 2 * kN &&
           h_->ha.completions.size() == 2 * kN;
  }));

  // Per-track FIFO + byte-exact payloads, whatever the interleaving.
  std::uint64_t eager_seen = 0, bulk_seen = 0;
  for (const auto& pkt : h_->hb.packets) {
    if (pkt.track == kTrackEager) {
      EXPECT_EQ(pkt.payload,
                make_payload(24, static_cast<std::uint8_t>(eager_seen)))
          << "eager #" << eager_seen;
      ++eager_seen;
    } else {
      ASSERT_EQ(pkt.track, kTrackBulk);
      EXPECT_EQ(pkt.payload,
                make_payload(kBulkSize,
                             static_cast<std::uint8_t>(0x40 + bulk_seen)))
          << "bulk #" << bulk_seen;
      ++bulk_seen;
    }
  }
  EXPECT_EQ(eager_seen, kN);
  EXPECT_EQ(bulk_seen, kN);

  // Completions are per-track FIFO too.
  std::uint64_t eager_done = 0, bulk_done = 0;
  for (const auto& c : h_->ha.completions) {
    if (c.track == kTrackEager) {
      EXPECT_EQ(c.token, 0x200 + eager_done);
      ++eager_done;
    } else {
      ASSERT_EQ(c.track, kTrackBulk);
      EXPECT_EQ(c.token, 0x100 + bulk_done);
      ++bulk_done;
    }
  }
  EXPECT_EQ(eager_done, kN);
  EXPECT_EQ(bulk_done, kN);
  EXPECT_TRUE(h_->ha.failures.empty());
}

TEST_P(DriverConformanceTest, PeerDestructionIsSafe) {
  // Destroy the receiver with a packet in flight: the sender's send still
  // resolves exactly once. Drivers that complete on local hand-off (shm,
  // sim) report a completion; a socket or UDP driver may instead fail the
  // send when the peer vanished before the bytes left.
  h_->send(*h_->a, kTrackEager, make_payload(4), 1);
  h_->b.reset();
  ASSERT_TRUE(h_->pump_until([&] {
    return !h_->ha.completions.empty() || !h_->ha.failures.empty();
  }));
  for (int i = 0; i < 10; ++i) h_->pump_once();
  EXPECT_EQ(h_->ha.completions.size() + h_->ha.failures.size(), 1u);
  if (GetParam() == Kind::Shm || GetParam() == Kind::Sim) {
    EXPECT_EQ(h_->ha.completions.size(), 1u);
  }
}

TEST_P(DriverConformanceTest, InvalidTrackRejected) {
  GatherList gl;
  const Bytes p = make_payload(8);
  gl.add(p.data(), p.size());
  EXPECT_THROW(h_->a->send(TrackId{200}, gl, 1), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, DriverConformanceTest,
                         ::testing::Values(Kind::Shm, Kind::Sim,
                                           Kind::Socket, Kind::Udp),
                         [](const ::testing::TestParamInfo<Kind>& pi) {
                           return kind_name(pi.param);
                         });

}  // namespace
}  // namespace mado::drv
