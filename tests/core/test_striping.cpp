// Heterogeneous multi-rail bulk striping (MultirailPolicy::Stripe).
//
// Two layers of coverage:
//   * Model tests drive strategy_detail::stripe_shares / stripe_rail_rate
//     directly — pure functions of the cost model, no engine involved — and
//     check the water-filling invariants (shares sum to the total, Down
//     rails carry nothing, backlogs shift bytes away, min_chunk crumbs are
//     folded, the bandwidth hint overrides the profile's nominal rate).
//   * Engine tests run whole transfers over 2–4 heterogeneous simulated
//     rails, including work stealing, out-of-order cross-rail reassembly,
//     composition with the reliability layer (loss, duplication, scheduled
//     mid-transfer link failure) and a randomized many-seed soak with an
//     exact-delivery oracle.
//
// Everything runs on the deterministic SimWorld fabric; each soak seed is a
// bit-identical replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "core/engine.hpp"
#include "core/strategy.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using strategy_detail::StripeRail;
using strategy_detail::stripe_rail_rate;
using strategy_detail::stripe_shares;
using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

EngineConfig stripe_cfg() {
  EngineConfig cfg;
  cfg.multirail = MultirailPolicy::Stripe;
  cfg.rdv_chunk = 16 * 1024;
  return cfg;
}

// ---- model layer -----------------------------------------------------------

TEST(StripeModel, RailRateScalesWithBandwidthHint) {
  drv::Capabilities slow = drv::tcp_gige_profile();
  drv::Capabilities fast = slow;
  fast.bandwidth_hint_bytes_per_us = slow.cost.link_bytes_per_us * 4.0;
  const double r_slow = stripe_rail_rate(slow, 64 * 1024);
  const double r_fast = stripe_rail_rate(fast, 64 * 1024);
  EXPECT_GT(r_slow, 0.0);
  // A 4x hint cannot make the rail 4x faster end to end (injection setup is
  // unchanged), but it must be decisively faster.
  EXPECT_GT(r_fast, r_slow * 1.5);
}

TEST(StripeModel, SharesSumToTotalAndFavorTheFastRail) {
  drv::Capabilities fast = drv::elan_quadrics_profile();
  drv::Capabilities slow = drv::tcp_gige_profile();
  std::vector<StripeRail> rails{{&fast, 0, true}, {&slow, 0, true}};
  std::vector<std::uint64_t> shares;
  const std::uint64_t total = 4u << 20;
  stripe_shares(rails, total, 64 * 1024, 8 * 1024, shares);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0] + shares[1], total);
  // elan ~900 B/us vs tcp ~110 B/us: the fast rail must dominate.
  EXPECT_GT(shares[0], shares[1] * 2);
  EXPECT_GT(shares[1], 0u) << "the slow rail should still participate";
}

TEST(StripeModel, DownRailsGetZero) {
  drv::Capabilities a = drv::mx_myrinet_profile();
  drv::Capabilities b = drv::mx_myrinet_profile();
  std::vector<StripeRail> rails{{&a, 0, false}, {&b, 0, true}};
  std::vector<std::uint64_t> shares;
  stripe_shares(rails, 1u << 20, 64 * 1024, 8 * 1024, shares);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], 1u << 20);
}

TEST(StripeModel, BacklogShiftsBytesToTheIdleRail) {
  drv::Capabilities a = drv::mx_myrinet_profile();
  drv::Capabilities b = drv::mx_myrinet_profile();
  // Identical rails, but rail 0 must first drain 2 MB of queued traffic.
  std::vector<StripeRail> rails{{&a, 2u << 20, true}, {&b, 0, true}};
  std::vector<std::uint64_t> shares;
  stripe_shares(rails, 1u << 20, 64 * 1024, 8 * 1024, shares);
  EXPECT_EQ(shares[0] + shares[1], 1u << 20);
  EXPECT_GT(shares[1], shares[0])
      << "the loaded rail must receive fewer new bytes";
}

TEST(StripeModel, HugeBacklogExcludesARailEntirely) {
  drv::Capabilities a = drv::mx_myrinet_profile();
  drv::Capabilities b = drv::mx_myrinet_profile();
  // Rail 0's backlog alone takes longer than the whole transfer on rail 1.
  std::vector<StripeRail> rails{{&a, 64u << 20, true}, {&b, 0, true}};
  std::vector<std::uint64_t> shares;
  stripe_shares(rails, 256 * 1024, 64 * 1024, 8 * 1024, shares);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], 256u * 1024);
}

TEST(StripeModel, CrumbSharesFoldIntoTheFastestRail) {
  drv::Capabilities fast = drv::elan_quadrics_profile();
  drv::Capabilities slow = drv::tcp_gige_profile();
  std::vector<StripeRail> rails{{&fast, 0, true}, {&slow, 0, true}};
  std::vector<std::uint64_t> shares;
  // A small transfer whose slow-rail share would fall below min_chunk: the
  // slow rail must not join the stripe for a pittance.
  stripe_shares(rails, 64 * 1024, 16 * 1024, 32 * 1024, shares);
  EXPECT_EQ(shares[0], 64u * 1024);
  EXPECT_EQ(shares[1], 0u);
}

TEST(StripeModel, EqualRailsSplitNearEvenlyWithLowImbalance) {
  drv::Capabilities a = drv::mx_myrinet_profile();
  drv::Capabilities b = drv::mx_myrinet_profile();
  std::vector<StripeRail> rails{{&a, 0, true}, {&b, 0, true}};
  std::vector<std::uint64_t> shares;
  const double imbalance =
      stripe_shares(rails, 2u << 20, 64 * 1024, 8 * 1024, shares);
  EXPECT_EQ(shares[0] + shares[1], 2u << 20);
  const auto hi = std::max(shares[0], shares[1]);
  const auto lo = std::min(shares[0], shares[1]);
  EXPECT_LE(hi - lo, 64u * 1024) << "equal rails should split evenly";
  EXPECT_LT(imbalance, 10.0);
}

TEST(StripeModel, AllRailsDownYieldsNoShares) {
  drv::Capabilities a = drv::mx_myrinet_profile();
  std::vector<StripeRail> rails{{&a, 0, false}, {&a, 0, false}};
  std::vector<std::uint64_t> shares;
  stripe_shares(rails, 1u << 20, 64 * 1024, 8 * 1024, shares);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], 0u);
}

// Randomized model property: for arbitrary rail mixes, backlogs and totals,
// shares always sum to the total and Down rails never carry bytes.
TEST(StripeModel, RandomizedInvariants) {
  const drv::Capabilities profiles[] = {drv::mx_myrinet_profile(),
                                        drv::elan_quadrics_profile(),
                                        drv::tcp_gige_profile()};
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t nrails = 2 + next() % 3;
    std::vector<StripeRail> rails(nrails);
    for (std::size_t i = 0; i < nrails; ++i) {
      rails[i].caps = &profiles[next() % 3];
      rails[i].backlog_bytes = (next() % 8) * 256 * 1024;
      rails[i].up = (next() % 5) != 0;  // ~20% down
    }
    const std::uint64_t total = 4096 + next() % (8u << 20);
    std::vector<std::uint64_t> shares;
    stripe_shares(rails, total, 64 * 1024, 8 * 1024, shares);
    ASSERT_EQ(shares.size(), nrails);
    bool any_up = false;
    for (const StripeRail& r : rails) any_up |= r.up;
    const std::uint64_t sum =
        std::accumulate(shares.begin(), shares.end(), std::uint64_t{0});
    if (any_up)
      EXPECT_EQ(sum, total) << "iter " << iter;
    else
      EXPECT_EQ(sum, 0u) << "iter " << iter;
    for (std::size_t i = 0; i < nrails; ++i) {
      if (!rails[i].up) {
        EXPECT_EQ(shares[i], 0u) << "iter " << iter;
      }
    }
  }
}

// ---- engine layer ----------------------------------------------------------

/// Count BulkTx bytes per rail from a tracer attached to the sender.
std::map<RailId, std::uint64_t> bulk_tx_bytes_by_rail(const Tracer& tracer) {
  std::map<RailId, std::uint64_t> out;
  for (const TraceRecord& r : tracer.snapshot())
    if (r.event == TraceEvent::BulkTx && r.node == 0) out[r.rail] += r.c;
  return out;
}

TEST(StripeEngine, HeterogeneousRailsShareOneTransfer) {
  SimWorld world(2, stripe_cfg());
  world.connect(0, 1, drv::tcp_gige_profile());   // rail 0: ~110 B/us
  world.connect(0, 1, drv::elan_quadrics_profile());  // rail 1: ~900 B/us
  Tracer tracer(1 << 16);
  world.node(0).set_tracer(&tracer);
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);

  const Bytes big = pattern(2u << 20, 5);
  send_bytes(a, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b, big.size()), big);
  EXPECT_TRUE(world.node(0).flush());

  auto& st = world.node(0).stats();
  EXPECT_GE(st.counter("stripe.transfers"), 1u);
  EXPECT_GT(st.counter("stripe.chunks"), 2u);

  // Both rails carried bytes, and the fast rail carried decisively more.
  const auto by_rail = bulk_tx_bytes_by_rail(tracer);
  ASSERT_EQ(by_rail.size(), 2u);
  EXPECT_GT(by_rail.at(1), by_rail.at(0) * 2)
      << "elan (rail 1) should out-carry tcp (rail 0)";

  // The receiver saw cross-rail interleaving: chunks above the contiguous
  // watermark landed early.
  EXPECT_GT(world.node(1).stats().counter("stripe.reassembly_ooo"), 0u);
  world.node(0).set_tracer(nullptr);
}

TEST(StripeEngine, FourRailMixDeliversExactBytes) {
  SimWorld world(2, stripe_cfg());
  world.connect(0, 1, drv::mx_myrinet_profile());
  world.connect(0, 1, drv::elan_quadrics_profile());
  world.connect(0, 1, drv::tcp_gige_profile());
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  for (std::size_t i = 0; i < 4; ++i) {
    const Bytes big = pattern(768 * 1024 + i * 4096,
                              static_cast<std::uint32_t>(100 + i));
    send_bytes(a, big, SendMode::Later);
    EXPECT_EQ(recv_bytes(b, big.size()), big) << "transfer " << i;
  }
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_EQ(world.node(1).stats().counter("rx.msgs_completed"), 4u);
  EXPECT_GE(world.node(0).stats().counter("stripe.transfers"), 4u);
}

// Work stealing: feed the planner a lying bandwidth hint so it overloads
// rail 0; rail 1 (equally fast in reality) drains its thin share and must
// steal queued chunks from rail 0's tail to keep the transfer balanced.
TEST(StripeEngine, IdleRailStealsFromMispredictedPlan) {
  SimWorld world(2, stripe_cfg());
  drv::Capabilities lying = drv::mx_myrinet_profile();
  lying.bandwidth_hint_bytes_per_us = lying.cost.link_bytes_per_us * 10.0;
  world.connect(0, 1, lying);                       // planner thinks: 10x
  world.connect(0, 1, drv::mx_myrinet_profile());   // reality: equal
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);

  const Bytes big = pattern(4u << 20, 9);
  send_bytes(a, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b, big.size()), big);
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_GT(world.node(0).stats().counter("stripe.steals"), 0u)
      << "the idle rail should rob the mispredicted queue";
}

TEST(StripeEngine, StealDisabledKeepsThePlan) {
  EngineConfig cfg = stripe_cfg();
  cfg.stripe.steal = false;
  SimWorld world(2, cfg);
  drv::Capabilities lying = drv::mx_myrinet_profile();
  lying.bandwidth_hint_bytes_per_us = lying.cost.link_bytes_per_us * 10.0;
  world.connect(0, 1, lying);
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  const Bytes big = pattern(2u << 20, 9);
  send_bytes(a, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b, big.size()), big);
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_EQ(world.node(0).stats().counter("stripe.steals"), 0u);
}

TEST(StripeEngine, SingleRailDegeneratesCleanly) {
  SimWorld world(2, stripe_cfg());
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  const Bytes big = pattern(512 * 1024, 2);
  send_bytes(a, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b, big.size()), big);
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_EQ(world.node(0).stats().counter("stripe.steals"), 0u);
}

// Striping composes with the reliability layer: killing a rail mid-transfer
// fails its queued/in-flight chunks over to the survivor, and the receiver's
// offset bookkeeping never double-counts a replayed chunk.
TEST(StripeEngine, MidTransferRailFailureCompletesOnSurvivor) {
  EngineConfig cfg = stripe_cfg();
  cfg.reliability = true;
  cfg.payload_crc = true;
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);

  const Bytes big = pattern(1u << 20, 3);
  send_bytes(a, big, SendMode::Later);
  Bytes out(big.size());
  IncomingMessage im = b.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  world.run_until([&] {
    return world.node(1).stats().counter("rx.bulk_chunks") >= 8;
  });
  world.fail_link(0, 1, 0);
  im.finish();
  EXPECT_EQ(out, big);
  EXPECT_TRUE(world.node(0).flush());
  EXPECT_GE(world.node(0).stats().counter("rel.rail_failovers"), 1u);
  EXPECT_EQ(world.node(1).stats().counter("rx.msgs_completed"), 1u)
      << "exactly one completion despite the replay";
}

// A transfer whose CTS arrives after a rail already died must be planned
// around the corpse (Down rails get zero shares).
TEST(StripeEngine, PlanSkipsAlreadyDeadRail) {
  EngineConfig cfg = stripe_cfg();
  cfg.reliability = true;
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());
  world.connect(0, 1, drv::mx_myrinet_profile());
  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  // Warm up, then kill rail 0 before the big transfer is submitted.
  send_bytes(a, pattern(64, 1));
  EXPECT_EQ(recv_bytes(b, 64), pattern(64, 1));
  world.fail_link(0, 1, 0);
  world.run();
  const Bytes big = pattern(1u << 20, 4);
  send_bytes(a, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b, big.size()), big);
  EXPECT_TRUE(world.node(0).flush());
}

// ---- randomized soak (acceptance) ------------------------------------------
//
// Per seed: 2–4 rails with heterogeneous profiles, seeded loss/duplication/
// reordering on every rail, and (for odd seeds) a scheduled mid-soak link
// failure on the last rail. Oracle: every message arrives exactly once with
// exact payload bytes, message count matches, no completion double-fires.
void run_stripe_soak(std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  EngineConfig cfg = stripe_cfg();
  cfg.reliability = true;
  cfg.payload_crc = true;
  cfg.rdv_chunk = 8 * 1024;
  cfg.stripe.min_chunk = 4 * 1024;
  SimWorld world(2, cfg);

  const drv::Capabilities profiles[] = {drv::mx_myrinet_profile(),
                                        drv::elan_quadrics_profile(),
                                        drv::tcp_gige_profile()};
  const std::size_t nrails = 2 + next() % 3;
  const bool kill_rail = (seed % 2) == 1 && nrails > 2;
  for (std::size_t r = 0; r < nrails; ++r) {
    drv::FaultPlan ab, ba;
    ab.drop = ba.drop = 0.01;
    ab.duplicate = ba.duplicate = 0.005;
    ab.reorder = ba.reorder = 0.005;
    ab.seed = next();
    ba.seed = next();
    // Early enough to land while the first bulk transfers are streaming
    // (the fabric only executes the scheduled failure if the soak's virtual
    // time actually passes it).
    if (kill_rail && r == nrails - 1)
      ab.fail_at = 100 * kNanosPerMicro + next() % (400 * kNanosPerMicro);
    world.connect(0, 1, profiles[next() % 3], ab, ba);
  }

  Channel a = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel b = world.node(1).open_channel(0, 7, TrafficClass::Bulk);
  Channel a_small = world.node(0).open_channel(1, 8);
  Channel b_small = world.node(1).open_channel(0, 8);

  const std::size_t nbulk = 3 + next() % 4;
  const std::size_t nsmall = 20 + next() % 30;
  std::vector<Bytes> bulks;  // SendMode::Later references in place
  bulks.reserve(nbulk);
  std::vector<std::size_t> bulk_sizes;
  for (std::size_t i = 0; i < nbulk; ++i) {
    bulk_sizes.push_back(96 * 1024 + next() % (384 * 1024));
    bulks.push_back(
        pattern(bulk_sizes.back(), static_cast<std::uint32_t>(seed * 97 + i)));
    send_bytes(a, bulks.back(), SendMode::Later);
  }
  for (std::size_t i = 0; i < nsmall; ++i)
    send_bytes(a_small,
               pattern(48 + i % 700, static_cast<std::uint32_t>(seed + i)));

  for (std::size_t i = 0; i < nbulk; ++i)
    EXPECT_EQ(recv_bytes(b, bulk_sizes[i]),
              pattern(bulk_sizes[i], static_cast<std::uint32_t>(seed * 97 + i)))
        << "bulk " << i;
  for (std::size_t i = 0; i < nsmall; ++i)
    EXPECT_EQ(recv_bytes(b_small,
                         48 + i % 700),
              pattern(48 + i % 700, static_cast<std::uint32_t>(seed + i)))
        << "small " << i;

  EXPECT_TRUE(world.node(0).flush());
  EXPECT_TRUE(world.node(1).flush());
  auto& rx = world.node(1).stats();
  // Exactly once: completion count matches the submit count even though
  // duplicates, retransmits and (sometimes) a rail failover replayed chunks.
  EXPECT_EQ(rx.counter("rx.msgs_completed"), nbulk + nsmall);
  EXPECT_GE(world.node(0).stats().counter("stripe.transfers"), nbulk);
  if (kill_rail) {
    EXPECT_GE(world.node(0).stats().counter("rel.rail_failovers"), 1u);
  }
  // flush() looks at the senders only; the receive side must drain too.
  world.run();
  for (NodeId n : {NodeId{0}, NodeId{1}}) {
    const Engine::Snapshot snap = world.node(n).snapshot();
    EXPECT_TRUE(snap.quiescent()) << "node " << n << ": " << snap.to_string();
    EXPECT_EQ(world.node(n).stats().counter("rx.malformed"), 0u)
        << "node " << n;
  }
}

class StripeSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StripeSoak, LossyHeterogeneousRailsDeliverExactlyOnce) {
  run_stripe_soak(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripeSoak,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mado::core
