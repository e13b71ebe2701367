// The engine's counter table: golden counter values for a deterministic
// mixed workload, and a drift check against docs/counters.md.
//
// The golden values were recorded from the string-keyed counter code that
// the table replaced. A mismatch means a bump was renamed, dropped or
// double-counted; the failure message prints the observed values in the
// initializer format used below.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

using Golden = std::map<std::string, std::uint64_t>;

/// Every non-zero counter of `e`, plus the count and sum of every
/// histogram. Zero counters are left out: a cell is created on the first
/// bump of its name, so a name never bumped may or may not be listed.
Golden observed(Engine& e) {
  Golden g;
  for (const auto& [name, v] : e.counters_snapshot())
    if (v != 0) g[name] = v;
  for (const auto& [name, h] : e.stats().histograms()) {
    if (h.count() == 0) continue;
    g[name + "#count"] = h.count();
    g[name + "#sum"] = h.sum();
  }
  return g;
}

std::string render(const Golden& g) {
  std::ostringstream os;
  for (const auto& [name, v] : g)
    os << "    {\"" << name << "\", " << v << "},\n";
  return os.str();
}

/// Reliability with seeded drops in both directions, carrying an eager
/// burst on two flows (posts outrun the NIC, so packets aggregate), a
/// three-fragment message with a rendezvous fragment, and one-sided puts
/// and gets on both the eager and the rendezvous path.
std::array<Golden, 2> run_reliable_mix() {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.payload_crc = true;
  cfg.rdv_chunk = 4096;
  SimWorld w(2, cfg);
  drv::FaultPlan ab, ba;
  ab.drop = ba.drop = 0.1;
  ab.seed = 7;
  ba.seed = 8;
  w.connect(0, 1, drv::test_profile(), ab, ba);
  Channel a7 = w.node(0).open_channel(1, 7);
  Channel b7 = w.node(1).open_channel(0, 7);
  Channel a8 = w.node(0).open_channel(1, 8);
  Channel b8 = w.node(1).open_channel(0, 8);
  Bytes window(64 * 1024, Byte{0});
  w.node(1).expose_window(5, window.data(), window.size());

  constexpr std::uint32_t kBurst = 40;
  const auto size_of = [](std::uint32_t i) { return 32 + (i % 5) * 100; };
  std::vector<SendHandle> hs;
  for (std::uint32_t i = 0; i < kBurst; ++i)
    hs.push_back(send_bytes(i % 2 ? a8 : a7, pattern(size_of(i), i)));
  const Bytes h16 = pattern(16, 100), p200 = pattern(200, 101),
              big = pattern(5000, 102);
  Message m;
  m.pack(h16.data(), h16.size(), SendMode::Safe);
  m.pack(p200.data(), p200.size(), SendMode::Safe);
  m.pack(big.data(), big.size(), SendMode::Later);
  hs.push_back(a7.post(std::move(m)));

  const Bytes put_small = pattern(256, 200), put_big = pattern(20000, 201);
  Bytes get_small(128), get_big(16 * 1024);
  hs.push_back(w.node(0).rma_put(1, 5, 0, put_small.data(), put_small.size()));
  hs.push_back(
      w.node(0).rma_put(1, 5, 1024, put_big.data(), put_big.size()));

  for (std::uint32_t i = 0; i < kBurst; i += 2)
    EXPECT_EQ(recv_bytes(b7, size_of(i)), pattern(size_of(i), i));
  {
    Bytes r16(16), r200(200), rbig(5000);
    IncomingMessage im = b7.begin_recv();
    im.unpack(r16.data(), r16.size(), RecvMode::Express);
    im.unpack(r200.data(), r200.size(), RecvMode::Cheaper);
    im.unpack(rbig.data(), rbig.size(), RecvMode::Cheaper);
    im.finish();
    EXPECT_EQ(r16, h16);
    EXPECT_EQ(r200, p200);
    EXPECT_EQ(rbig, big);
  }
  for (std::uint32_t i = 1; i < kBurst; i += 2)
    EXPECT_EQ(recv_bytes(b8, size_of(i)), pattern(size_of(i), i));
  for (const SendHandle& h : hs) EXPECT_TRUE(w.node(0).wait_send(h));

  SendHandle g1 = w.node(0).rma_get(1, 5, 0, get_small.data(),
                                    get_small.size());
  SendHandle g2 =
      w.node(0).rma_get(1, 5, 1024, get_big.data(), get_big.size());
  EXPECT_TRUE(w.node(0).wait_send(g1));
  EXPECT_TRUE(w.node(0).wait_send(g2));
  EXPECT_EQ(get_small, Bytes(put_small.begin(), put_small.begin() + 128));
  EXPECT_EQ(get_big, Bytes(put_big.begin(), put_big.begin() + 16 * 1024));
  EXPECT_TRUE(w.node(0).flush());
  EXPECT_TRUE(w.node(1).flush());
  EXPECT_GT(w.endpoint(0, 1, 0).fault_stats().dropped, 0u);
  return {observed(w.node(0)), observed(w.node(1))};
}

/// The nagle strategy holding a lone fragment until its deadline, then a
/// burst that fills the lookahead window and leaves at once.
std::array<Golden, 2> run_nagle_hold() {
  EngineConfig cfg;
  cfg.strategy = "nagle";
  cfg.nagle_delay = usec(10);
  cfg.lookahead_window = 4;
  SimWorld w(2, cfg);
  w.connect(0, 1, drv::test_profile());
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  send_bytes(a, pattern(16, 1));
  EXPECT_EQ(recv_bytes(b, 16), pattern(16, 1));
  for (std::uint32_t i = 0; i < 8; ++i) send_bytes(a, pattern(24, 10 + i));
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(recv_bytes(b, 24), pattern(24, 10 + i));
  EXPECT_TRUE(w.node(0).flush());
  return {observed(w.node(0)), observed(w.node(1))};
}

const std::array<Golden, 2> kReliableMix = {
    Golden{
        {"cap.table_growths", 6},
        {"lat.complete.small_eager#count", 41},
        {"lat.complete.small_eager#sum", 4606914},
        {"lat.hold.control#count", 1},
        {"lat.hold.control#sum", 0},
        {"lat.hold.putget#count", 4},
        {"lat.hold.putget#sum", 94},
        {"lat.hold.small_eager#count", 43},
        {"lat.hold.small_eager#sum", 4528},
        {"lat.rdv_complete#count", 2},
        {"lat.rdv_complete#sum", 400631},
        {"lat.rdv_handshake#count", 2},
        {"lat.rdv_handshake#sum", 200383},
        {"opt.aggregated_packets", 12},
        {"opt.alloc_bytes", 1405},
        {"opt.decisions", 16},
        {"opt.flow_index_ops", 34},
        {"opt.lock_acquisitions", 125},
        {"opt.slab_hits", 29},
        {"opt.slab_misses", 8},
        {"rel.acks_rx", 24},
        {"rel.acks_tx", 8},
        {"rel.ooo_drops", 2},
        {"rel.retransmits", 11},
        {"rel.rto_backoffs", 3},
        {"rma.gets", 2},
        {"rma.gets_completed", 2},
        {"rma.puts", 2},
        {"rma.puts_completed", 2},
        {"rx.bulk_chunks", 4},
        {"rx.bytes", 17081},
        {"rx.frags", 6},
        {"rx.packets", 5},
        {"rx.rdv_cts", 2},
        {"timer.arms", 25},
        {"timer.cancelled", 22},
        {"tx.bulk_chunks", 7},
        {"tx.bytes", 48504},
        {"tx.frags", 48},
        {"tx.frags_submitted", 43},
        {"tx.msgs", 41},
        {"tx.msgs_completed", 41},
        {"tx.packets", 16},
        {"tx.pkt_bytes#count", 16},
        {"tx.pkt_bytes#sum", 11382},
        {"tx.pkt_frags#count", 16},
        {"tx.pkt_frags#sum", 48},
        {"tx.rdv_completed", 2},
        {"tx.rdv_cts", 1},
        {"tx.rdv_rts", 1},
    },
    Golden{
        {"cap.table_growths", 4},
        {"lat.hold.control#count", 4},
        {"lat.hold.control#sum", 11},
        {"lat.hold.putget#count", 2},
        {"lat.hold.putget#sum", 0},
        {"lat.rdv_complete#count", 1},
        {"lat.rdv_complete#sum", 200154},
        {"lat.rdv_handshake#count", 1},
        {"lat.rdv_handshake#sum", 44},
        {"opt.alloc_bytes", 574},
        {"opt.decisions", 5},
        {"opt.flow_index_ops", 4},
        {"opt.lock_acquisitions", 79},
        {"opt.slab_hits", 37},
        {"opt.slab_misses", 4},
        {"rel.acks_rx", 8},
        {"rel.acks_tx", 26},
        {"rel.ooo_drops", 8},
        {"rel.retransmits", 4},
        {"rel.rto_backoffs", 1},
        {"rx.bulk_chunks", 7},
        {"rx.bytes", 36753},
        {"rx.frags", 48},
        {"rx.msgs_completed", 41},
        {"rx.packets", 16},
        {"rx.rdv_completed", 1},
        {"rx.rdv_cts", 1},
        {"rx.rdv_rts", 1},
        {"rx.rma_gets", 2},
        {"rx.rma_put_rts", 1},
        {"rx.rma_puts", 1},
        {"rx.rma_puts_completed", 1},
        {"rx.unexpected_frags", 34},
        {"timer.arms", 10},
        {"timer.cancelled", 9},
        {"tx.bulk_chunks", 4},
        {"tx.bytes", 34509},
        {"tx.frags", 6},
        {"tx.packets", 5},
        {"tx.pkt_bytes#count", 5},
        {"tx.pkt_bytes#sum", 485},
        {"tx.pkt_frags#count", 5},
        {"tx.pkt_frags#sum", 6},
        {"tx.rdv_completed", 1},
        {"tx.rdv_cts", 2},
        {"tx.rma_acks", 2},
    },
};

const std::array<Golden, 2> kNagleHold = {
    Golden{
        {"cap.table_growths", 1},
        {"lat.complete.small_eager#count", 9},
        {"lat.complete.small_eager#sum", 10192},
        {"lat.hold.small_eager#count", 9},
        {"lat.hold.small_eager#sum", 10060},
        {"opt.alloc_bytes", 276},
        {"opt.decisions", 7},
        {"opt.flow_index_ops", 6},
        {"opt.lock_acquisitions", 13},
        {"opt.nagle_waits", 4},
        {"opt.slab_hits", 2},
        {"opt.slab_misses", 1},
        {"timer.arms", 2},
        {"timer.cancelled", 1},
        {"tx.bytes", 484},
        {"tx.frags", 9},
        {"tx.frags_submitted", 9},
        {"tx.msgs", 9},
        {"tx.msgs_completed", 9},
        {"tx.packets", 3},
        {"tx.pkt_bytes#count", 3},
        {"tx.pkt_bytes#sum", 484},
        {"tx.pkt_frags#count", 3},
        {"tx.pkt_frags#sum", 9},
    },
    Golden{
        {"opt.lock_acquisitions", 3},
        {"rx.bytes", 484},
        {"rx.frags", 9},
        {"rx.msgs_completed", 9},
        {"rx.packets", 3},
        {"rx.unexpected_frags", 6},
    },
};

TEST(CounterGolden, ReliableMixMatchesPinnedValues) {
  const auto got = run_reliable_mix();
  for (std::size_t n = 0; n < 2; ++n)
    EXPECT_EQ(got[n], kReliableMix[n]) << "node " << n << ":\n"
                                       << render(got[n]);
}

TEST(CounterGolden, NagleHoldMatchesPinnedValues) {
  const auto got = run_nagle_hold();
  for (std::size_t n = 0; n < 2; ++n)
    EXPECT_EQ(got[n], kNagleHold[n]) << "node " << n << ":\n"
                                     << render(got[n]);
}

// The documentation cannot drift from the table: every row of it must be
// described in docs/counters.md under its exact (backquoted) name.
TEST(CounterTable, EveryNameIsDocumented) {
  std::ifstream in(MADO_SOURCE_DIR "/docs/counters.md");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  ASSERT_FALSE(doc.empty()) << "docs/counters.md not found";
  // Appended piecewise: GCC 12 flags `"`" + std::string(name)` with a
  // false -Wrestrict in Release builds.
  const auto quoted = [](std::string_view name) {
    std::string q = "`";
    q.append(name);
    q += '`';
    return q;
  };
  for (std::string_view name : kCounterNames)
    EXPECT_NE(doc.find(quoted(name)), std::string::npos)
        << "counter " << name << " is missing from docs/counters.md";
  for (std::string_view name : kHistogramNames)
    EXPECT_NE(doc.find(quoted(name)), std::string::npos)
        << "histogram " << name << " is missing from docs/counters.md";
}

}  // namespace
}  // namespace mado::core
