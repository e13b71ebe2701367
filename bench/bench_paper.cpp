// bench_paper — regenerates the virtual-time tables of EXPERIMENTS.md
// (E1–E8, E10, A1–A4).
//
// Each experiment runs its scenario once on a SimWorld and returns one
// markdown table. Every time is *virtual* (from the NIC cost model), so
// every run prints the same tables on any host.
//
//   bench_paper         print every table
//   bench_paper FILE    also exit 1 unless each table appears in FILE
//                       verbatim (ctest PaperTables checks EXPERIMENTS.md)
//
// A violated E6 striping gate makes it exit 1 as well.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "mw/collectives.hpp"
#include "mw/workload.hpp"
#include "mw/workload_runner.hpp"

namespace {

using namespace mado;
using core::Channel;
using core::EngineConfig;
using core::SimWorld;

// ---- tables and gates -------------------------------------------------------

struct Table {
  std::string name;
  std::string md;  // header row, separator row, then one line per row
};

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* f, ...) {
  char buf[64];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string row(const std::vector<std::string>& cells) {
  std::string s = "|";
  for (const auto& c : cells) s += " " + c + " |";
  return s + "\n";
}

Table table(std::string name, const std::vector<std::string>& head) {
  std::string sep = "|";
  for (std::size_t i = 0; i < head.size(); ++i) sep += "---|";
  return {std::move(name), row(head) + sep + "\n"};
}

std::string size_label(std::size_t bytes) {
  if (bytes >= (1u << 20)) return fmt("%zu MiB", bytes >> 20);
  if (bytes >= (1u << 10)) return fmt("%zu KiB", bytes >> 10);
  return fmt("%zu B", bytes);
}

int g_failures = 0;

void gate(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

// True when `md` is a whole table of `doc`: it starts a line and no table
// row directly precedes or follows it.
bool appears_as_table(const std::string& doc, const std::string& md) {
  for (std::size_t pos = doc.find(md); pos != std::string::npos;
       pos = doc.find(md, pos + 1)) {
    const std::size_t end = pos + md.size();
    const bool starts_line = pos == 0 || doc[pos - 1] == '\n';
    const bool no_row_before = pos < 2 || doc[pos - 2] != '|';
    const bool no_row_after = end == doc.size() || doc[end] != '|';
    if (starts_line && no_row_before && no_row_after) return true;
  }
  return false;
}

// ---- shared workloads -------------------------------------------------------

Bytes payload(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<Byte>(1 + i * 13);
  return b;
}

void post_bytes(Channel& ch, const Bytes& data,
                core::SendMode mode = core::SendMode::Safe) {
  core::Message m;
  m.pack(data.data(), data.size(), mode);
  ch.post(std::move(m));
}

void recv_into(Channel& ch, Bytes& out) {
  core::IncomingMessage im = ch.begin_recv();
  im.unpack(out.data(), out.size(), core::RecvMode::Express);
  im.finish();
}

// One 64 B ping-pong a → b → a; returns its virtual round-trip time.
double round_trip_us(SimWorld& w, Channel& a, Channel& b) {
  const Bytes ping = payload(64);
  Bytes pong(64);
  const Nanos t0 = w.now();
  post_bytes(a, ping);
  recv_into(b, pong);
  post_bytes(b, pong);
  recv_into(a, pong);
  return to_usec(w.now() - t0);
}

struct MultiflowResult {
  Nanos time = 0;
  std::uint64_t packets = 0;
  std::uint64_t frags = 0;
  double frags_per_packet() const {
    return static_cast<double>(frags) / static_cast<double>(packets);
  }
};

// E1/E4/A1: `flows` channels each post `msgs` single-fragment messages of
// `size` bytes back to back; the receiver drains everything.
MultiflowResult run_multiflow(const EngineConfig& cfg,
                              const drv::Capabilities& caps,
                              std::size_t flows, int msgs, std::size_t size) {
  SimWorld w(2, cfg);
  w.connect(0, 1, caps);
  std::vector<Channel> tx, rx;
  for (std::size_t f = 0; f < flows; ++f) {
    tx.push_back(w.node(0).open_channel(1, static_cast<core::ChannelId>(f)));
    rx.push_back(w.node(1).open_channel(0, static_cast<core::ChannelId>(f)));
  }
  const Bytes data = payload(size);
  for (int i = 0; i < msgs; ++i)
    for (std::size_t f = 0; f < flows; ++f) post_bytes(tx[f], data);
  Bytes out(size);
  for (int i = 0; i < msgs; ++i)
    for (std::size_t f = 0; f < flows; ++f) recv_into(rx[f], out);
  w.node(0).flush();
  return {w.now(), w.node(0).stats().counter("tx.packets"),
          w.node(0).stats().counter("tx.frags")};
}

// E3/E10: a one-way stream of `total` bytes in `size`-byte messages from
// node 0 to node 1 of `w`; returns MB/s (bytes per virtual µs).
double stream_mbps(SimWorld& w, std::size_t size, std::size_t total) {
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  const std::size_t n = total / size;
  const Bytes data = payload(size);
  for (std::size_t i = 0; i < n; ++i)
    post_bytes(a, data, core::SendMode::Later);
  Bytes out(size);
  for (std::size_t i = 0; i < n; ++i) recv_into(b, out);
  w.node(0).flush();
  return static_cast<double>(n * size) / to_usec(w.now());
}

// ---- E1 ---------------------------------------------------------------------
// The paper's headline claim (§4): "the aggregation of eager segments
// collected from several independent communication flows brings huge
// performance gains." N flows × 50 messages × 64 B over one MX rail; "fifo"
// (previous Madeleine: one network transaction per message) vs "aggreg"
// (dynamic cross-flow aggregation). Expected shape: identical fragment
// counts, but aggreg collapses transactions and completion time drops; the
// gap grows with the number of flows.
Table e1_aggregation() {
  Table t = table("E1", {"flows", "fifo transactions", "aggreg transactions",
                         "fifo time (µs)", "aggreg time (µs)", "speedup"});
  for (std::size_t flows : {1u, 2u, 4u, 8u, 16u, 32u}) {
    MultiflowResult r[2];
    for (int opt = 0; opt < 2; ++opt) {
      EngineConfig cfg;
      cfg.strategy = opt ? "aggreg" : "fifo";
      cfg.lookahead_window = 0;  // unbounded: E4 studies the window
      r[opt] = run_multiflow(cfg, drv::mx_myrinet_profile(), flows, 50, 64);
    }
    t.md += row({fmt("%zu", flows), fmt("%lu", r[0].packets),
                 fmt("%lu", r[1].packets), fmt("%.1f", to_usec(r[0].time)),
                 fmt("%.1f", to_usec(r[1].time)),
                 fmt("%.2f×", to_usec(r[0].time) / to_usec(r[1].time))});
  }
  return t;
}

// ---- E2 ---------------------------------------------------------------------
// Baseline parity: single-flow ping-pong, 20 rounds per size. With strict
// request-response turn taking there is nothing to aggregate, so the
// optimizer must match the baseline. Expected shape: half-RTT(aggreg) ==
// half-RTT(fifo) at every size, with the MX rendezvous threshold (32 KiB)
// visible as a step.
Table e2_pingpong() {
  Table t = table("E2", {"size", "fifo half-RTT (µs)", "aggreg half-RTT (µs)"});
  for (std::size_t size :
       {4u, 64u, 512u, 4096u, 16384u, 65536u, 262144u, 1048576u}) {
    std::vector<std::string> cells = {size_label(size)};
    for (const char* strategy : {"fifo", "aggreg"}) {
      EngineConfig cfg;
      cfg.strategy = strategy;
      SimWorld w(2, cfg);
      w.connect(0, 1, drv::mx_myrinet_profile());
      Channel a = w.node(0).open_channel(1, 7);
      Channel b = w.node(1).open_channel(0, 7);
      const Bytes data = payload(size);
      Bytes out(size);
      constexpr unsigned kRounds = 20;
      const Nanos t0 = w.now();
      for (unsigned i = 0; i < kRounds; ++i) {
        post_bytes(a, data, core::SendMode::Later);
        recv_into(b, out);
        post_bytes(b, out, core::SendMode::Later);
        recv_into(a, out);
      }
      cells.push_back(fmt("%.1f", to_usec((w.now() - t0) / (2 * kRounds))));
    }
    t.md += row(cells);
  }
  return t;
}

// ---- E3 ---------------------------------------------------------------------
// The bandwidth curve every Madeleine-family paper reports: a one-way
// 16 MiB stream per message size for the MX/Myrinet, Elan/Quadrics and
// TCP/GigE profiles. Expected shape: bandwidth rises with size toward each
// link rate (MX ≈ 250 MB/s, Elan ≈ 900, TCP ≈ 110); the eager → rendezvous
// transition is a knee at the profile's threshold; Elan > MX > TCP at every
// size.
Table e3_bandwidth() {
  Table t = table("E3", {"size", "MX (MB/s)", "Elan (MB/s)", "TCP (MB/s)"});
  for (std::size_t size :
       {1024u, 4096u, 16384u, 65536u, 262144u, 1048576u, 4194304u}) {
    std::vector<std::string> cells = {size_label(size)};
    for (const char* profile : {"mx", "elan", "tcp"}) {
      EngineConfig cfg;
      cfg.strategy = "aggreg";
      SimWorld w(2, cfg);
      w.connect(0, 1, drv::profile_by_name(profile));
      cells.push_back(fmt("%.0f", stream_mbps(w, size, 16u << 20)));
    }
    t.md += row(cells);
  }
  return t;
}

// ---- E4 ---------------------------------------------------------------------
// Future work #1: "experiment with different packet lookahead window
// sizes." The E1 stream at 16 flows under aggreg, window (fragments the
// optimizer may combine per packet decision) swept; 1 degenerates to no
// cross-flow aggregation. Expected shape: completion time falls and
// frags/packet rises steeply for the first few steps, then saturates once
// the window covers the natural backlog depth — supporting the paper's plan
// to keep the window (and thus optimizer state) small.
Table e4_lookahead() {
  Table t = table("E4",
                  {"window", "transactions", "frags/packet", "time (µs)"});
  for (std::size_t window : {1u, 2u, 4u, 8u, 16u, 32u, 0u}) {
    EngineConfig cfg;
    cfg.strategy = "aggreg";
    cfg.lookahead_window = window;  // 0 = unbounded
    const MultiflowResult r =
        run_multiflow(cfg, drv::mx_myrinet_profile(), 16, 50, 64);
    t.md += row({window ? fmt("%zu", window) : "∞", fmt("%lu", r.packets),
                 fmt("%.1f", r.frags_per_packet()),
                 fmt("%.1f", to_usec(r.time))});
  }
  return t;
}

// ---- E5 ---------------------------------------------------------------------
// Future work #2: "study how to bound the number of data rearrangements the
// optimizer has to evaluate." 8 flows × 40 messages with a bimodal size mix
// (48 B and 1.8 KiB), where merging or pipelining the mediums is a genuine
// decision, under aggreg_exhaustive with its evaluation budget K swept.
// Expected shape: solution quality (sim µs) saturates within a few tens of
// evaluations while the optimizer's own CPU cost (E9) keeps growing with K
// — a small bound loses nothing.
Table e5_rearrange_bound() {
  Table t = table("E5", {"K", "evals/decision", "solution quality (sim µs)"});
  for (std::size_t budget : {1u, 4u, 16u, 64u, 256u, 0u}) {
    EngineConfig cfg;
    cfg.strategy = "aggreg_exhaustive";
    cfg.eval_budget = budget;
    cfg.lookahead_window = 12;
    SimWorld w(2, cfg);
    w.connect(0, 1, drv::mx_myrinet_profile());
    constexpr std::size_t kFlows = 8;
    constexpr int kMsgs = 40;
    std::vector<Channel> tx, rx;
    for (std::size_t f = 0; f < kFlows; ++f) {
      tx.push_back(w.node(0).open_channel(1, static_cast<core::ChannelId>(f)));
      rx.push_back(w.node(1).open_channel(0, static_cast<core::ChannelId>(f)));
    }
    for (int i = 0; i < kMsgs; ++i)
      for (std::size_t f = 0; f < kFlows; ++f)
        post_bytes(tx[f], payload(f % 2 ? 1800 : 48));
    for (int i = 0; i < kMsgs; ++i)
      for (std::size_t f = 0; f < kFlows; ++f) {
        Bytes out(f % 2 ? 1800 : 48);
        recv_into(rx[f], out);
      }
    w.node(0).flush();
    const auto evals = w.node(0).stats().counter("opt.evals");
    const auto decisions = w.node(0).stats().counter("opt.decisions");
    t.md += row({budget ? fmt("%zu", budget) : "∞",
                 fmt("%.1f", static_cast<double>(evals) /
                                 static_cast<double>(decisions)),
                 fmt("%.0f", to_usec(w.now()))});
  }
  return t;
}

// ---- E6 ---------------------------------------------------------------------
// §2: "dynamic load balancing on multiple resources, multiple NICs, or even
// NICs from multiple technologies." One rendezvous bulk transfer over the
// given rails; returns MB/s.
double run_rails_mbps(core::MultirailPolicy policy, std::size_t bytes,
                      const std::vector<drv::Capabilities>& rails) {
  EngineConfig cfg;
  cfg.multirail = policy;
  cfg.rdv_chunk = 64 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  SimWorld w(2, cfg);
  for (const auto& caps : rails) w.connect(0, 1, caps);
  Channel tx = w.node(0).open_channel(1, 7, core::TrafficClass::Bulk);
  Channel rx = w.node(1).open_channel(0, 7, core::TrafficClass::Bulk);
  const Bytes data = payload(bytes);
  post_bytes(tx, data, core::SendMode::Later);
  Bytes out(bytes);
  recv_into(rx, out);
  w.node(0).flush();
  return static_cast<double>(bytes) / to_usec(w.now());
}

// MX (≈ 250 MB/s) + Elan (≈ 900 MB/s) under the three bulk policies.
// Expected shape: single-rail caps at the chosen rail's bandwidth; stripe
// (cost-model placement) approaches the 1150 MB/s aggregate at every size;
// dynamic-split reaches it for large transfers without knowing the rails'
// speeds (it adapts chunk by chunk) — stripe ≥ dynamic > single.
Table e6_multirail() {
  Table t = table("E6", {"size", "single-rail (MB/s)", "stripe (MB/s)",
                         "dynamic-split (MB/s)"});
  const std::vector<drv::Capabilities> rails = {
      drv::mx_myrinet_profile(), drv::elan_quadrics_profile()};
  for (std::size_t bytes : {256u << 10, 1u << 20, 4u << 20, 8u << 20}) {
    std::vector<std::string> cells = {size_label(bytes)};
    for (auto policy : {core::MultirailPolicy::SingleRail,
                        core::MultirailPolicy::Stripe,
                        core::MultirailPolicy::DynamicSplit})
      cells.push_back(fmt("%.0f", run_rails_mbps(policy, bytes, rails)));
    t.md += row(cells);
  }
  return t;
}

// Rails of deliberately skewed speed: 10:1, 4:1 and the 2:1 "10G + 5G" pair
// (1250 / 625 bytes per µs). Rail 0 is the SLOW rail on purpose: the
// default class map pins Bulk to rail 0, so "pinned" is exactly what a
// transfer gets with no striping and no manual rail choice. Gates:
//   * stripe ≥ 90% of the ideal sum of the two solo-rail bandwidths;
//   * stripe ≥ 1.5× the single-rail-pinned baseline;
//   * Stripe on ONE rail is within 2% of SingleRail (the policy must
//     degenerate cleanly).
drv::Capabilities rail_at(double bytes_per_us, const char* name) {
  drv::Capabilities caps = drv::elan_quadrics_profile();
  caps.name = name;
  caps.cost.link_bytes_per_us = bytes_per_us;
  caps.bandwidth_hint_bytes_per_us = 0.0;  // plan from the cost model
  return caps;
}

Table e6_hetero_stripe() {
  Table t = table("E6 hetero",
                  {"slow:fast", "size", "stripe (MB/s)", "pinned (MB/s)",
                   "ideal (MB/s)", "efficiency", "speedup vs pinned",
                   "one-rail stripe vs single-rail"});
  struct RatePair {
    const char* name;
    double slow, fast;  // bytes/µs of rails 0 and 1
  };
  for (const RatePair& rp : {RatePair{"10:1", 125.0, 1250.0},
                             RatePair{"4:1", 312.0, 1250.0},
                             RatePair{"2:1 (10G+5G)", 625.0, 1250.0}})
    for (std::size_t bytes : {4u << 20, 16u << 20}) {
      using P = core::MultirailPolicy;
      const drv::Capabilities slow = rail_at(rp.slow, "slow");
      const drv::Capabilities fast = rail_at(rp.fast, "fast");
      const double stripe = run_rails_mbps(P::Stripe, bytes, {slow, fast});
      const double pinned = run_rails_mbps(P::SingleRail, bytes, {slow, fast});
      const double solo_slow = run_rails_mbps(P::SingleRail, bytes, {slow});
      const double solo_fast = run_rails_mbps(P::SingleRail, bytes, {fast});
      const double one_rail = run_rails_mbps(P::Stripe, bytes, {fast});
      const double ideal = solo_slow + solo_fast;
      const double delta = one_rail / solo_fast - 1.0;
      t.md += row({rp.name, size_label(bytes), fmt("%.1f", stripe),
                   fmt("%.1f", pinned), fmt("%.1f", ideal),
                   fmt("%.3f", stripe / ideal),
                   fmt("%.2f×", stripe / pinned),
                   fmt("%+.2f%%", 100.0 * delta)});
      const std::string at = fmt(" (E6 %s, %s)", rp.name,
                                 size_label(bytes).c_str());
      gate(stripe / ideal >= 0.90,
           "striping delivered < 90% of the ideal rail sum" + at);
      gate(stripe / pinned >= 1.5,
           "striping < 1.5x over single-rail pinning" + at);
      gate(delta >= -0.02 && delta <= 0.02,
           "Stripe on one rail is not within 2% of SingleRail" + at);
    }
  return t;
}

// ---- E7 ---------------------------------------------------------------------
// §3: "If the NIC never stays busy long enough for packets to accumulate,
// the scheduler may ... artificially delay them for a short time to
// increase the potential of interesting aggregations (in a TCP Nagle's
// algorithm fashion)." 4 flows, one 64 B message per flow every 3 µs
// (longer than the NIC's busy time, so the backlog never builds), delay D
// swept. Expected shape: the classic Nagle tradeoff — as D grows,
// transactions drop while mean latency rises by roughly D. The adaptive
// strategy senses the inter-arrival gap itself: here (cross-flow gaps
// ≈ 0.75 µs, inside its hold window) it should land near the nagle curve
// while charging no delay at all on truly idle links.
struct SparseResult {
  std::uint64_t packets = 0;
  double mean_latency_us = 0;
};

SparseResult run_sparse(Nanos delay, const char* strategy) {
  EngineConfig cfg;
  cfg.strategy = strategy;
  cfg.nagle_delay = delay;
  SimWorld w(2, cfg);
  w.connect(0, 1, drv::mx_myrinet_profile());
  constexpr std::size_t kFlows = 4;
  constexpr int kMsgs = 40;
  constexpr Nanos kInterArrival = usec(3);
  std::vector<Channel> tx, rx;
  for (std::size_t f = 0; f < kFlows; ++f) {
    tx.push_back(w.node(0).open_channel(1, static_cast<core::ChannelId>(f)));
    rx.push_back(w.node(1).open_channel(0, static_cast<core::ChannelId>(f)));
  }
  // Flow f submits message i at t = i*3µs + f*0.4µs (staggered so a short
  // delay can capture peers).
  std::vector<std::vector<Nanos>> submit_at(kFlows,
                                            std::vector<Nanos>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    for (std::size_t f = 0; f < kFlows; ++f) {
      const Nanos t = static_cast<Nanos>(i) * kInterArrival +
                      static_cast<Nanos>(f) * (usec(1) * 2 / 5);
      submit_at[f][static_cast<std::size_t>(i)] = t;
      w.fabric().post_at(t, [&tx, f] { post_bytes(tx[f], payload(64)); });
    }
  // Receive in global submit order; latency = completion - submit time.
  double total_latency = 0;
  Bytes out(64);
  for (int i = 0; i < kMsgs; ++i)
    for (std::size_t f = 0; f < kFlows; ++f) {
      recv_into(rx[f], out);
      total_latency +=
          to_usec(w.now() - submit_at[f][static_cast<std::size_t>(i)]);
    }
  w.node(0).flush();
  return {w.node(0).stats().counter("tx.packets"),
          total_latency / (kFlows * kMsgs)};
}

Table e7_nagle() {
  Table t = table("E7", {"D (µs)", "transactions", "mean latency (µs)"});
  for (double d : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const SparseResult r = run_sparse(usec(d), "nagle");
    t.md += row({fmt("%g", d), fmt("%lu", r.packets),
                 fmt("%.2f", r.mean_latency_us)});
  }
  const SparseResult r = run_sparse(usec(2), "adaptive");
  t.md += row({"adaptive", fmt("%lu", r.packets),
               fmt("%.2f", r.mean_latency_us)});
  return t;
}

// ---- E8 ---------------------------------------------------------------------
// §2: a scheduler with global control "may assign some of these resources
// to different classes of traffic" and "dynamically change the assignment
// ... as the needs of the application evolve." A saturating 32 MiB
// rendezvous stream is pinned to rail 0 of two MX rails while a 64 B
// control ping-pong runs:
//   shared     — control class on the bulk-loaded rail 0
//   separated  — control class statically on rail 1
//   rebalanced — control starts on rail 0; rebalance_classes() moves it
//                off the loaded rail a quarter of the way in
// Expected shape: control RTT under "shared" inflates by the bulk chunk
// serialization it queues behind; "separated" stays near the unloaded RTT;
// "rebalanced" starts like shared and converges to separated.
Table e8_traffic_classes() {
  Table t = table("E8", {"policy", "mean control RTT (µs)", "worst (µs)"});
  for (const char* policy : {"shared", "separated", "rebalanced"}) {
    const std::string p = policy;
    EngineConfig cfg;
    cfg.multirail = core::MultirailPolicy::SingleRail;  // bulk on rail 0
    cfg.rdv_chunk = 256 * 1024;
    cfg.class_rail = {0, 0, 0, 0};
    if (p == "separated") cfg.class_rail[0] = 1;  // Control → rail 1
    SimWorld w(2, cfg);
    w.connect(0, 1, drv::mx_myrinet_profile());
    w.connect(0, 1, drv::mx_myrinet_profile());
    Channel bulk_tx = w.node(0).open_channel(1, 1, core::TrafficClass::Bulk);
    Channel bulk_rx = w.node(1).open_channel(0, 1, core::TrafficClass::Bulk);
    Channel ping_a = w.node(0).open_channel(1, 2, core::TrafficClass::Control);
    Channel ping_b = w.node(1).open_channel(0, 2, core::TrafficClass::Control);

    // The receiver posts the bulk unpack up front so the data flows "in the
    // background" while the pings pump the world.
    const std::size_t kBulkBytes = 32u << 20;
    const Bytes bulk = payload(kBulkBytes);
    post_bytes(bulk_tx, bulk, core::SendMode::Later);
    Bytes bulk_out(kBulkBytes);
    core::IncomingMessage bulk_im = bulk_rx.begin_recv();
    bulk_im.unpack(bulk_out.data(), bulk_out.size(), core::RecvMode::Cheaper);

    constexpr int kPings = 40;
    double total = 0, worst = 0;
    for (int i = 0; i < kPings; ++i) {
      if (p == "rebalanced" && i == kPings / 4) {
        w.node(0).rebalance_classes();
        w.node(1).rebalance_classes();
      }
      const double rtt = round_trip_us(w, ping_a, ping_b);
      total += rtt;
      worst = std::max(worst, rtt);
    }
    bulk_im.finish();
    w.node(0).flush();
    t.md += row({p, fmt("%.1f", total / kPings), fmt("%.1f", worst)});
  }
  return t;
}

// Second scenario: the contention is INSIDE one rail's collect layer —
// bulk-class eager messages (16 KiB, below the rdv threshold) pile up in
// the same backlog as control pings. The class-aware "priority" strategy
// lets control fragments overtake the queued bulk without any resource
// re-assignment; "aggreg" serves the backlog in age order.
Table e8_backlog_priority() {
  Table t = table("E8 backlog", {"strategy", "mean control RTT (µs)"});
  for (const char* strategy : {"aggreg", "priority"}) {
    EngineConfig cfg;
    cfg.strategy = strategy;
    SimWorld w(2, cfg);
    w.connect(0, 1, drv::mx_myrinet_profile());
    Channel bulk_tx = w.node(0).open_channel(1, 1, core::TrafficClass::Bulk);
    Channel bulk_rx = w.node(1).open_channel(0, 1, core::TrafficClass::Bulk);
    Channel ping_a = w.node(0).open_channel(1, 2, core::TrafficClass::Control);
    Channel ping_b = w.node(1).open_channel(0, 2, core::TrafficClass::Control);
    constexpr int kPings = 20;
    double total = 0;
    const Bytes chunk = payload(16 * 1024);
    Bytes sink(16 * 1024);
    for (int i = 0; i < kPings; ++i) {
      // Refill the backlog with bulk-class eager messages, then ping.
      for (int k = 0; k < 6; ++k)
        post_bytes(bulk_tx, chunk, core::SendMode::Later);
      total += round_trip_us(w, ping_a, ping_b);
      for (int k = 0; k < 6; ++k) recv_into(bulk_rx, sink);
    }
    w.node(0).flush();
    t.md += row({strategy, fmt("%.1f", total / kPings)});
  }
  return t;
}

// ---- E10 --------------------------------------------------------------------
// Reliable delivery over lossy rails: one-way 4 MiB stream goodput vs wire
// drop rate (both directions — data AND acks are lossy), reliability and
// payload CRC on, for an eager and a rendezvous size; the reliability-off
// row at drop 0 isolates the layer's clean-link tax. Expected shape:
// goodput degrades gracefully with loss — go-back-N costs roughly the
// dropped packets plus the tail they drag along, so a few percent loss
// should cost a few (not tens of) percent at eager sizes, more at bulk
// sizes where a lost chunk stalls the whole stream for one RTO.
// Retransmits grow with the drop rate; at drop 0 they stay 0 and the tax
// is pure header bytes and ack packets.
Table e10_lossy() {
  Table t = table("E10", {"size", "reliability", "drop (‰)", "MB/s",
                          "retransmits", "RTO backoffs", "wire drops"});
  auto add_row = [&t](std::size_t size, bool reliable, int drop_pm) {
    EngineConfig cfg;
    cfg.strategy = "aggreg";
    cfg.reliability = reliable;
    cfg.payload_crc = reliable;
    drv::FaultPlan plan_ab;
    plan_ab.drop = drop_pm / 1000.0;
    plan_ab.seed = 0xe10a;
    drv::FaultPlan plan_ba = plan_ab;
    plan_ba.seed = 0xe10b;  // acks are lossy too
    SimWorld w(2, cfg);
    w.connect(0, 1, drv::mx_myrinet_profile(), plan_ab, plan_ba);
    const double mbps = stream_mbps(w, size, 4u << 20);
    t.md += row({size_label(size), reliable ? "on" : "off",
                 fmt("%d", drop_pm), fmt("%.1f", mbps),
                 fmt("%lu", w.node(0).stats().counter("rel.retransmits")),
                 fmt("%lu", w.node(0).stats().counter("rel.rto_backoffs")),
                 fmt("%lu", w.endpoint(0, 1, 0).fault_stats().dropped)});
  };
  for (std::size_t size : {4096u, 65536u}) {
    add_row(size, false, 0);
    for (int drop_pm : {0, 1, 5, 10, 20, 50}) add_row(size, true, drop_pm);
  }
  return t;
}

// ---- A1 ---------------------------------------------------------------------
// Ablation of the rendezvous chunk size: an 8 MiB bulk transfer with a
// concurrent control ping-pong on the same MX rail (the eager and bulk
// tracks share the link, so the chunk sets the blocking grain). Small
// chunks interleave better with latency traffic but pay per-chunk
// overhead. Expected shape: bulk bandwidth rises with chunk size and
// saturates; the control RTT rises with chunk size.
Table a1_chunk_size() {
  Table t = table("A1 chunk",
                  {"chunk", "bulk (MB/s)", "control RTT (µs)"});
  for (std::size_t chunk : {16u << 10, 64u << 10, 256u << 10, 1u << 20}) {
    EngineConfig cfg;
    cfg.rdv_chunk = chunk;
    SimWorld w(2, cfg);
    w.connect(0, 1, drv::mx_myrinet_profile());
    Channel bulk_tx = w.node(0).open_channel(1, 1, core::TrafficClass::Bulk);
    Channel bulk_rx = w.node(1).open_channel(0, 1, core::TrafficClass::Bulk);
    Channel ping_a = w.node(0).open_channel(1, 2);
    Channel ping_b = w.node(1).open_channel(0, 2);
    const std::size_t kBytes = 8u << 20;
    const Bytes bulk = payload(kBytes);
    const Nanos t0 = w.now();
    post_bytes(bulk_tx, bulk, core::SendMode::Later);
    Bytes out(kBytes);
    core::IncomingMessage im = bulk_rx.begin_recv();
    im.unpack(out.data(), out.size(), core::RecvMode::Cheaper);
    constexpr int kPings = 20;
    double total_rtt = 0;
    for (int i = 0; i < kPings; ++i)
      total_rtt += round_trip_us(w, ping_a, ping_b);
    im.finish();
    w.node(0).flush();
    t.md += row({size_label(chunk),
                 fmt("%.1f", static_cast<double>(kBytes) /
                                 to_usec(w.now() - t0)),
                 fmt("%.1f", total_rtt / kPings)});
  }
  return t;
}

// Ablation of the per-track pipeline depth on the E1 stream at 16 flows.
// The paper's design keeps one packet in flight (depth 1) so the backlog
// can accumulate; deeper pipelines shrink the lookahead pool. Expected
// shape: transactions grow (aggregation shrinks) as depth increases.
Table a1_track_depth() {
  Table t = table("A1 depth",
                  {"depth", "transactions", "frags/packet", "time (µs)"});
  for (std::size_t depth : {1u, 2u, 4u, 8u}) {
    EngineConfig cfg;
    cfg.strategy = "aggreg";
    auto caps = drv::mx_myrinet_profile();
    caps.track_depth = depth;
    const MultiflowResult r = run_multiflow(cfg, caps, 16, 50, 64);
    t.md += row({fmt("%zu", depth), fmt("%lu", r.packets),
                 fmt("%.1f", r.frags_per_packet()),
                 fmt("%.1f", to_usec(r.time))});
  }
  return t;
}

// ---- A2 ---------------------------------------------------------------------
// One-sided put/get (an extension: the paper names "put/get transfers" as a
// traffic class but does not evaluate them) vs two-sided send/recv, 10
// rounds per size across the eager → rendezvous transition, MX profile.
// Put completes remotely (on the target's ack). Expected shape: small puts
// cost ~1 RTT (data + ack) like an eager send+recv turnaround; large
// puts/gets track the rendezvous bandwidth of two-sided transfers since
// they share the same bulk machinery.
Table a2_putget() {
  Table t = table("A2", {"size", "put (µs)", "get (µs)", "send+recv (µs)"});
  for (std::size_t size : {64u, 1024u, 16384u, 65536u, 1048576u}) {
    std::vector<std::string> cells = {size_label(size)};
    for (const char* op : {"put", "get", "send_recv"}) {
      const std::string o = op;
      SimWorld w(2, EngineConfig{});
      w.connect(0, 1, drv::mx_myrinet_profile());
      Bytes window(size, Byte{0});
      w.node(1).expose_window(1, window.data(), window.size());
      Channel tx = w.node(0).open_channel(1, 7);
      Channel rx = w.node(1).open_channel(0, 7);
      const Bytes data = payload(size);
      Bytes out(size);
      constexpr int kRounds = 10;
      const Nanos t0 = w.now();
      for (int i = 0; i < kRounds; ++i) {
        if (o == "put") {
          w.node(0).wait_send(w.node(0).rma_put(1, 1, 0, data.data(), size));
        } else if (o == "get") {
          w.node(0).wait_send(w.node(0).rma_get(1, 1, 0, out.data(), size));
        } else {
          post_bytes(tx, data, core::SendMode::Later);
          recv_into(rx, out);
        }
      }
      cells.push_back(fmt("%.1f", to_usec(w.now() - t0) / kRounds));
    }
    t.md += row(cells);
  }
  return t;
}

// ---- A3 ---------------------------------------------------------------------
// Collectives on the engine (an extension): dissemination barrier and
// 256-double allreduce over fully connected MX topologies, fifo vs aggreg.
// Each rank exchanges with log2(N) distinct peers over dedicated links, so
// cross-flow aggregation only helps where several collective edges share a
// rail pair. Expected shape: completion time scales with log2 N, and fifo
// == aggreg (few concurrent fragments per link pair): the optimizer does
// not hurt latency-bound collective patterns.
double run_collective(mw::Collectives::Rank n, const char* strategy,
                      bool allreduce) {
  using mw::Collectives;
  EngineConfig cfg;
  cfg.strategy = strategy;
  SimWorld world(n, cfg);
  for (Collectives::Rank a = 0; a < n; ++a)
    for (auto b = static_cast<Collectives::Rank>(a + 1); b < n; ++b)
      world.connect(a, b, drv::mx_myrinet_profile());
  std::vector<std::unique_ptr<Collectives>> colls;
  for (Collectives::Rank r = 0; r < n; ++r)
    colls.push_back(std::make_unique<Collectives>(world.node(r), r, n));
  const std::size_t elems = allreduce ? 256 : 0;
  std::vector<std::vector<double>> in(n, std::vector<double>(elems, 1.0));
  std::vector<std::vector<double>> out(n, std::vector<double>(elems, 0.0));
  std::vector<std::unique_ptr<Collectives::Op>> ops;
  for (Collectives::Rank r = 0; r < n; ++r)
    ops.push_back(allreduce ? colls[r]->allreduce_sum(in[r].data(),
                                                      out[r].data(), elems)
                            : colls[r]->barrier());
  std::vector<Collectives::Op*> raw;
  for (auto& op : ops) raw.push_back(op.get());
  const bool ok = mw::drive_all([&world] { return world.fabric().step(); },
                                raw);
  return ok ? to_usec(world.now()) : 0.0;
}

Table a3_collectives() {
  Table t = table("A3", {"nodes", "barrier fifo (µs)", "barrier aggreg (µs)",
                         "allreduce fifo (µs)", "allreduce aggreg (µs)"});
  for (mw::Collectives::Rank n : {2u, 4u, 8u, 16u}) {
    std::vector<std::string> cells = {fmt("%u", unsigned{n})};
    for (bool allreduce : {false, true})
      for (const char* strategy : {"fifo", "aggreg"})
        cells.push_back(fmt("%.1f", run_collective(n, strategy, allreduce)));
    t.md += row(cells);
  }
  return t;
}

// ---- A4 ---------------------------------------------------------------------
// Workload-shape ablation: the same load (4 flows × 80 messages × 64 B)
// with three arrival patterns — back-to-back bursts, Poisson, sparse
// uniform — under each relevant strategy (nagle at D = 2 µs). Expected
// shape: bursty traffic → aggregation collapses transactions and fifo pays
// heavily; sparse traffic → aggreg ≈ fifo (nothing to combine) while
// nagle/adaptive trade latency for transactions; Poisson sits in between.
// This is the phase diagram behind the paper's argument that the policy
// must be selected dynamically.
mw::Schedule make_schedule(const std::string& shape) {
  if (shape == "bursty") {  // dense bursts separated by silence
    mw::BurstySpec s;
    s.flows = 4;
    s.bursts = 10;
    s.burst_len = 8;
    s.inter_gap = usec(30);
    return mw::make_bursty(s);
  }
  if (shape == "poisson") {  // mean gap 2 µs per flow
    mw::PoissonSpec s;
    s.flows = 4;
    s.msgs_per_flow = 80;
    s.mean_gap_us = 2.0;
    s.seed = 7;
    return mw::make_poisson(s);
  }
  mw::UniformSpec s;  // sparse: one message per flow every 8 µs
  s.flows = 4;
  s.msgs_per_flow = 80;
  s.interval = usec(8);
  s.stagger = usec(2);
  return mw::make_uniform(s);
}

Table a4_burstiness() {
  Table t = table("A4", {"shape", "fifo", "aggreg", "nagle D=2µs", "adaptive"});
  for (const char* shape : {"bursty", "poisson", "sparse"}) {
    const mw::Schedule schedule = make_schedule(shape);
    std::vector<std::string> cells = {shape};
    for (const char* strategy : {"fifo", "aggreg", "nagle", "adaptive"}) {
      EngineConfig cfg;
      cfg.strategy = strategy;
      cfg.nagle_delay = usec(2);
      const mw::ReplayResult r =
          mw::replay(cfg, drv::mx_myrinet_profile(), schedule);
      cells.push_back(fmt("%lu / %.1f", r.packets, r.mean_latency_us));
    }
    t.md += row(cells);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [EXPERIMENTS.md]\n", argv[0]);
    return 2;
  }
  const std::vector<Table> tables = {
      e1_aggregation(), e2_pingpong(), e3_bandwidth(), e4_lookahead(),
      e5_rearrange_bound(), e6_multirail(), e6_hetero_stripe(), e7_nagle(),
      e8_traffic_classes(), e8_backlog_priority(), e10_lossy(),
      a1_chunk_size(), a1_track_depth(), a2_putget(), a3_collectives(),
      a4_burstiness()};
  for (const Table& t : tables)
    std::printf("%s\n%s\n", t.name.c_str(), t.md.c_str());
  if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read %s\n", argv[1]);
      return 1;
    }
    std::stringstream doc;
    doc << in.rdbuf();
    for (const Table& t : tables)
      gate(appears_as_table(doc.str(), t.md),
           "table " + t.name + " is not in " + argv[1] + " verbatim");
  }
  return g_failures ? 1 : 0;
}
