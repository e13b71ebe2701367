// Planner schedules executed over live engines (ISSUE 9).
//
// The property suite proves schedules are well-formed symbolically; this
// suite proves the ScheduleOp executor moves real bytes through real
// engines:
//   * data correctness for every forced algorithm family across rank
//     counts, payload sizes and non-zero roots on the deterministic
//     SimWorld;
//   * virtual-time optimality: measured fabric time for auto-planned
//     collectives stays within the stated gap of the alpha-beta oracle
//     bound, and beats the linear baseline at scale;
//   * the threaded UDP world: collectives over genuine lossy datagrams,
//     recovered by the go-back-N reliability layer;
//   * a seeded mid-collective rail-failure soak (PR 4 pattern): killing a
//     rail while an allreduce is in flight must fail over, not corrupt.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "mw/collectives.hpp"
#include "tests/mw/collective_oracle.hpp"

namespace mado::mw {
namespace {

using Rank = Collectives::Rank;

/// Fully connected SimWorld, one Collectives per rank, forced algorithm.
struct AlgoWorld {
  AlgoWorld(Rank n, CollAlgo algo,
            const drv::Capabilities& caps = drv::test_profile(),
            const core::EngineConfig& cfg = {})
      : world(n, cfg) {
    for (Rank a = 0; a < n; ++a)
      for (Rank b = static_cast<Rank>(a + 1); b < n; ++b)
        world.connect(a, b, caps);
    for (Rank r = 0; r < n; ++r) {
      colls.push_back(std::make_unique<Collectives>(world.node(r), r, n));
      colls.back()->set_algorithm(algo);
    }
  }

  bool drive(std::vector<std::unique_ptr<Collectives::Op>>& ops) {
    std::vector<Collectives::Op*> raw;
    for (auto& op : ops) raw.push_back(op.get());
    return drive_all([this] { return world.fabric().step(); }, raw);
  }

  core::SimWorld world;
  std::vector<std::unique_ptr<Collectives>> colls;
};

class AlgoCorrectness
    : public ::testing::TestWithParam<std::tuple<CollAlgo, Rank>> {};

TEST_P(AlgoCorrectness, BcastEveryRootByteExact) {
  const auto [algo, n] = GetParam();
  for (Rank root : {Rank{0}, static_cast<Rank>(n - 1)}) {
    AlgoWorld w(n, algo);
    constexpr std::size_t kLen = 96;
    std::vector<Bytes> bufs(n, Bytes(kLen, Byte{0}));
    for (std::size_t i = 0; i < kLen; ++i)
      bufs[root][i] = static_cast<Byte>(i * 5 + root + 1);
    std::vector<std::unique_ptr<Collectives::Op>> ops;
    for (Rank r = 0; r < n; ++r)
      ops.push_back(w.colls[r]->bcast(bufs[r].data(), kLen, root));
    ASSERT_TRUE(w.drive(ops)) << "root " << root;
    for (Rank r = 0; r < n; ++r)
      EXPECT_EQ(bufs[r], bufs[root])
          << to_string(algo) << " n=" << n << " rank " << r;
  }
}

TEST_P(AlgoCorrectness, ReduceToNonzeroRoot) {
  const auto [algo, n] = GetParam();
  const Rank root = static_cast<Rank>(n - 1);
  AlgoWorld w(n, algo);
  constexpr std::size_t kN = 24;
  std::vector<std::vector<double>> in(n), out(n,
                                              std::vector<double>(kN, -7));
  for (Rank r = 0; r < n; ++r) {
    in[r].resize(kN);
    for (std::size_t i = 0; i < kN; ++i)
      in[r][i] = static_cast<double>(r + 1) + static_cast<double>(i) * 0.5;
  }
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Rank r = 0; r < n; ++r)
    ops.push_back(
        w.colls[r]->reduce_sum(in[r].data(), out[r].data(), kN, root));
  ASSERT_TRUE(w.drive(ops));
  for (std::size_t i = 0; i < kN; ++i) {
    const double want = n * (n + 1) / 2.0 +
                        static_cast<double>(n) * static_cast<double>(i) * 0.5;
    EXPECT_DOUBLE_EQ(out[root][i], want)
        << to_string(algo) << " n=" << n << " i=" << i;
  }
}

TEST_P(AlgoCorrectness, AllreduceEveryRank) {
  const auto [algo, n] = GetParam();
  AlgoWorld w(n, algo);
  constexpr std::size_t kN = 24;
  std::vector<std::vector<double>> in(n), out(n, std::vector<double>(kN, 0));
  for (Rank r = 0; r < n; ++r) {
    in[r].resize(kN);
    for (std::size_t i = 0; i < kN; ++i)
      in[r][i] = static_cast<double>((r + 2) * (i + 1));
  }
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Rank r = 0; r < n; ++r)
    ops.push_back(
        w.colls[r]->allreduce_sum(in[r].data(), out[r].data(), kN));
  ASSERT_TRUE(w.drive(ops));
  for (Rank r = 0; r < n; ++r)
    for (std::size_t i = 0; i < kN; ++i) {
      double want = 0;
      for (Rank q = 0; q < n; ++q)
        want += static_cast<double>((q + 2) * (i + 1));
      EXPECT_DOUBLE_EQ(out[r][i], want)
          << to_string(algo) << " n=" << n << " rank " << r << " i=" << i;
    }
}

TEST_P(AlgoCorrectness, AlltoallDeliversEveryBlock) {
  const auto [algo, n] = GetParam();
  AlgoWorld w(n, algo);
  constexpr std::size_t kBlock = 48;
  std::vector<Bytes> send(n, Bytes(kBlock * n)),
      recv(n, Bytes(kBlock * n, Byte{0}));
  for (Rank r = 0; r < n; ++r)
    for (Rank d = 0; d < n; ++d)
      for (std::size_t j = 0; j < kBlock; ++j)
        send[r][d * kBlock + j] =
            static_cast<Byte>(r * 31 + d * 7 + j);
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Rank r = 0; r < n; ++r)
    ops.push_back(
        w.colls[r]->alltoall(send[r].data(), recv[r].data(), kBlock));
  ASSERT_TRUE(w.drive(ops));
  for (Rank r = 0; r < n; ++r)
    for (Rank s = 0; s < n; ++s)
      for (std::size_t j = 0; j < kBlock; ++j)
        ASSERT_EQ(recv[r][s * kBlock + j],
                  static_cast<Byte>(s * 31 + r * 7 + j))
            << to_string(algo) << " n=" << n << " rank " << r << " from "
            << s;
}

TEST_P(AlgoCorrectness, BarrierThenAllreduceStayOrdered) {
  const auto [algo, n] = GetParam();
  AlgoWorld w(n, algo);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::unique_ptr<Collectives::Op>> ops;
    for (auto& c : w.colls) ops.push_back(c->barrier());
    ASSERT_TRUE(w.drive(ops));
  }
  double in = 1.0;
  std::vector<double> outs(n, 0);
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Rank r = 0; r < n; ++r)
    ops.push_back(w.colls[r]->allreduce_sum(&in, &outs[r], 1));
  ASSERT_TRUE(w.drive(ops));
  for (Rank r = 0; r < n; ++r)
    EXPECT_DOUBLE_EQ(outs[r], static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Families, AlgoCorrectness,
    ::testing::Combine(::testing::Values(CollAlgo::Auto, CollAlgo::Linear,
                                         CollAlgo::Tree, CollAlgo::Ring,
                                         CollAlgo::Bucket),
                       ::testing::Values(Rank{2}, Rank{3}, Rank{5},
                                         Rank{8}, Rank{12})),
    [](const auto& pinfo) {
      return std::string(to_string(std::get<0>(pinfo.param))) + "_n" +
             std::to_string(std::get<1>(pinfo.param));
    });

// ---- virtual-time optimality on the mx-profile fabric ----------------------

Nanos timed_allreduce(Rank n, CollAlgo algo, std::size_t doubles) {
  AlgoWorld w(n, algo, drv::mx_myrinet_profile());
  std::vector<std::vector<double>> in(n, std::vector<double>(doubles, 1.0)),
      out(n, std::vector<double>(doubles, 0));
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Rank r = 0; r < n; ++r)
    ops.push_back(
        w.colls[r]->allreduce_sum(in[r].data(), out[r].data(), doubles));
  std::vector<Collectives::Op*> raw;
  for (auto& op : ops) raw.push_back(op.get());
  const Nanos t0 = w.world.now();
  EXPECT_TRUE(drive_all([&w] { return w.world.fabric().step(); }, raw));
  for (Rank r = 0; r < n; ++r)
    EXPECT_DOUBLE_EQ(out[r][0], static_cast<double>(n))
        << to_string(algo) << " n=" << n;
  return w.world.now() - t0;
}

TEST(CollectiveOptimality, MeasuredSimTimeWithinOracleGap) {
  const drv::Capabilities caps = drv::mx_myrinet_profile();
  for (Rank n : {Rank{8}, Rank{16}}) {
    constexpr std::size_t kDoubles = 32 * 1024;  // 256 KiB vector
    const Nanos measured = timed_allreduce(n, CollAlgo::Auto, kDoubles);
    const Nanos bound =
        oracle::lower_bound(CollKind::Allreduce, n, kDoubles * 8, caps);
    EXPECT_GE(measured, bound) << "n=" << n;
    EXPECT_LE(oracle::gap(measured, bound), 3.0)
        << "n=" << n << ": measured " << measured << "ns vs bound "
        << bound << "ns";
  }
}

TEST(CollectiveOptimality, PlannedBeatsLinearAtScale) {
  constexpr std::size_t kDoubles = 16 * 1024;  // 128 KiB vector
  const Nanos planned = timed_allreduce(16, CollAlgo::Auto, kDoubles);
  const Nanos linear = timed_allreduce(16, CollAlgo::Linear, kDoubles);
  EXPECT_GE(linear, 2 * planned)
      << "auto-planned allreduce should be >= 2x faster than the linear "
         "fan-out at 16 ranks";
}

// ---- real UDP datagrams (threaded world, go-back-N recovery) ---------------

void drive_threaded(Collectives::Op& op0, Collectives::Op& op1) {
  std::thread t([&] {
    while (!op1.done()) {
      op1.step();
      std::this_thread::yield();
    }
  });
  while (!op0.done()) {
    op0.step();
    std::this_thread::yield();
  }
  t.join();
}

TEST(CollectivesUdp, AllreduceBcastAlltoallOverRealDatagrams) {
  core::UdpWorld w({});
  Collectives c0(w.node(0), 0, 2), c1(w.node(1), 1, 2);

  constexpr std::size_t kN = 512;
  std::vector<double> in0(kN), in1(kN), out0(kN, 0), out1(kN, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    in0[i] = static_cast<double>(i);
    in1[i] = static_cast<double>(2 * i + 1);
  }
  {
    auto op0 = c0.allreduce_sum(in0.data(), out0.data(), kN);
    auto op1 = c1.allreduce_sum(in1.data(), out1.data(), kN);
    drive_threaded(*op0, *op1);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_DOUBLE_EQ(out0[i], static_cast<double>(3 * i + 1)) << i;
    EXPECT_DOUBLE_EQ(out1[i], static_cast<double>(3 * i + 1)) << i;
  }

  Bytes b0(4096), b1(4096, Byte{0});
  for (std::size_t i = 0; i < b0.size(); ++i)
    b0[i] = static_cast<Byte>(i * 11);
  {
    auto op0 = c0.bcast(b0.data(), b0.size(), 0);
    auto op1 = c1.bcast(b1.data(), b1.size(), 0);
    drive_threaded(*op0, *op1);
  }
  EXPECT_EQ(b1, b0);

  constexpr std::size_t kBlock = 256;
  Bytes s0(2 * kBlock), s1(2 * kBlock), r0(2 * kBlock, Byte{0}),
      r1(2 * kBlock, Byte{0});
  for (std::size_t i = 0; i < 2 * kBlock; ++i) {
    s0[i] = static_cast<Byte>(i);
    s1[i] = static_cast<Byte>(i + 100);
  }
  {
    auto op0 = c0.alltoall(s0.data(), r0.data(), kBlock);
    auto op1 = c1.alltoall(s1.data(), r1.data(), kBlock);
    drive_threaded(*op0, *op1);
  }
  EXPECT_EQ(Bytes(r0.begin(), r0.begin() + kBlock),
            Bytes(s0.begin(), s0.begin() + kBlock));
  EXPECT_EQ(Bytes(r0.begin() + kBlock, r0.end()),
            Bytes(s1.begin(), s1.begin() + kBlock));
  EXPECT_EQ(Bytes(r1.begin(), r1.begin() + kBlock),
            Bytes(s0.begin() + kBlock, s0.end()));
  EXPECT_EQ(Bytes(r1.begin() + kBlock, r1.end()),
            Bytes(s1.begin() + kBlock, s1.end()));
}

TEST(CollectivesUdp, LossyAllreduceRecoveredByGoBackN) {
  // 2% receive-side datagram loss in both directions: the reliability
  // layer must retransmit until the collective lands numerically exact.
  // A round is only a few datagrams each way (a 64 KiB chunk is one), so
  // 20 rounds give the seeded loss enough datagrams to hit.
  core::UdpWorld w({});
  w.endpoint(0).set_rx_loss(0.02, 11);
  w.endpoint(1).set_rx_loss(0.02, 12);
  Collectives c0(w.node(0), 0, 2), c1(w.node(1), 1, 2);
  constexpr std::size_t kN = 8192;  // 64 KiB: rendezvous over lossy UDP
  std::vector<double> in0(kN, 1.5), in1(kN, 2.5), out0(kN, 0), out1(kN, 0);
  for (int round = 0; round < 20; ++round) {
    std::fill(out0.begin(), out0.end(), 0.0);
    std::fill(out1.begin(), out1.end(), 0.0);
    auto op0 = c0.allreduce_sum(in0.data(), out0.data(), kN);
    auto op1 = c1.allreduce_sum(in1.data(), out1.data(), kN);
    drive_threaded(*op0, *op1);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_DOUBLE_EQ(out0[i], 4.0) << "round " << round << " i=" << i;
      ASSERT_DOUBLE_EQ(out1[i], 4.0) << "round " << round << " i=" << i;
    }
  }
  // The wire really dropped datagrams — this was not a clean-link pass.
  EXPECT_GT(w.endpoint(0).counters().rx_loss_injected.load() +
                w.endpoint(1).counters().rx_loss_injected.load(),
            0u);
}

// ---- mid-collective rail failure (seeded soak, PR 4 pattern) ---------------

TEST(CollectivesFailover, MidAllreduceRailDeathSoak) {
  // Two mx rails with reliability on; kill rail 0 after the receiver has
  // seen `threshold` bulk chunks of the in-flight allreduce. Every seed
  // must still produce exact sums, and at least one seed must exercise a
  // genuine failover (failure landing before completion).
  std::uint64_t failovers = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    core::EngineConfig cfg;
    cfg.multirail = core::MultirailPolicy::Stripe;
    cfg.reliability = true;
    cfg.payload_crc = true;
    cfg.rdv_chunk = 16 * 1024;
    core::SimWorld world(2, cfg);
    world.connect(0, 1, drv::mx_myrinet_profile());
    world.connect(0, 1, drv::mx_myrinet_profile());
    Collectives c0(world.node(0), 0, 2), c1(world.node(1), 1, 2);

    constexpr std::size_t kN = 32 * 1024;  // 256 KiB vector
    std::vector<double> in0(kN), in1(kN), out0(kN, 0), out1(kN, 0);
    for (std::size_t i = 0; i < kN; ++i) {
      in0[i] = static_cast<double>(i % 97);
      in1[i] = static_cast<double>(i % 89);
    }
    auto op0 = c0.allreduce_sum(in0.data(), out0.data(), kN);
    auto op1 = c1.allreduce_sum(in1.data(), out1.data(), kN);

    const std::uint64_t threshold = 1 + seed * 2;
    bool failed = false;
    while (!(op0->done() && op1->done())) {
      bool any = world.fabric().step();
      any = op0->step() || any;
      any = op1->step() || any;
      if (!failed &&
          world.node(1).stats().counter("rx.bulk_chunks") >= threshold) {
        world.fail_link(0, 1, 0);
        failed = true;
      }
      ASSERT_TRUE(any || op0->done() || op1->done())
          << "seed " << seed << ": world drained mid-collective";
    }
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_DOUBLE_EQ(out0[i],
                       static_cast<double>(i % 97) +
                           static_cast<double>(i % 89))
          << "seed " << seed << " i=" << i;
    ASSERT_EQ(out1, out0) << "seed " << seed;
    ASSERT_TRUE(failed) << "seed " << seed
                        << ": failure never triggered; lower threshold";
    failovers += world.node(0).stats().counter("rel.rail_failovers") +
                 world.node(1).stats().counter("rel.rail_failovers");

    // The fabric must still carry traffic on the surviving rail.
    std::vector<double> o0(1, 0), o1(1, 0);
    double one = 1.0;
    auto p0 = c0.allreduce_sum(&one, o0.data(), 1);
    auto p1 = c1.allreduce_sum(&one, o1.data(), 1);
    std::vector<Collectives::Op*> raw{p0.get(), p1.get()};
    ASSERT_TRUE(
        drive_all([&world] { return world.fabric().step(); }, raw))
        << "seed " << seed << ": post-failure collective stalled";
    EXPECT_DOUBLE_EQ(o0[0], 2.0);
    EXPECT_DOUBLE_EQ(o1[0], 2.0);
  }
  EXPECT_GT(failovers, 0u)
      << "no seed exercised a real failover: thresholds all too late";
}

}  // namespace
}  // namespace mado::mw
