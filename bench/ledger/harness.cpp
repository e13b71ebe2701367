#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/shm_driver.hpp"
#include "drivers/udp_driver.hpp"
#include "probes.hpp"
#include "util/rng.hpp"

namespace ledger {
namespace {

using mado::Byte;
using mado::Bytes;
using mado::core::Channel;
using mado::core::ChannelId;
using mado::core::Engine;
using mado::core::IncomingMessage;
using mado::core::Message;
using mado::core::RecvMode;
using mado::core::SendHandle;
using mado::core::SendMode;
using mado::core::TrafficClass;

constexpr std::size_t kSmall = 64;
constexpr std::size_t kPoolBuffers = 8;
constexpr Nanos kSlo = 1'000'000;  // 1 ms after due
constexpr Nanos kSettle = 5 * mado::kNanosPerSec;
constexpr std::size_t kSetups = 8;  // timed set-ups per segment (setup_s)

Nanos sec_ns(double s) { return static_cast<Nanos>(s * 1e9); }
double ratio(double a, double b) { return b != 0 ? a / b : 0; }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t msg_id(ChannelId ch, std::uint64_t seq) {
  return (std::uint64_t{ch} << 40) | seq;
}

enum class Transport { Shm, Udp };

using Counters = std::map<std::string, std::uint64_t>;

// ---- delivery oracle -------------------------------------------------------------

/// Leading fragment of every large message.
struct Stamp {
  std::uint64_t seq = 0;
  std::uint32_t ch = 0;
  std::uint32_t idx = 0;  ///< payload pool buffer
};
static_assert(sizeof(Stamp) == 16);

/// Seeded inputs and their expected values. A small message is its own
/// stamp (word 0 = channel and sequence) followed by seeded words; a large
/// message is a Stamp fragment plus one buffer of a seeded pool chosen per
/// message. Either way the receiver recomputes every expected byte from
/// (seed, channel, sequence), so a wrong, reordered or corrupted delivery
/// cannot match.
class Oracle {
 public:
  Oracle(std::uint64_t seed, std::size_t large_len, bool self_test)
      : seed_(seed), self_test_(self_test) {
    for (std::size_t i = 0; large_len != 0 && i < kPoolBuffers; ++i) {
      Bytes b(large_len);
      for (std::size_t w = 0; w * 8 < large_len; ++w) {
        const std::uint64_t v = mix(seed_ ^ mix(i) ^ w);
        std::memcpy(b.data() + w * 8, &v, 8);
      }
      pool_.push_back(std::move(b));
    }
  }

  void fill(Byte* dst, ChannelId ch, std::uint64_t seq) const {
    for (std::size_t w = 0; w < kSmall / 8; ++w) {
      const std::uint64_t v = w == 0 ? (std::uint64_t{ch} << 48) ^ seq
                                     : mix(seed_ ^ mix(msg_id(ch, seq)) ^ w);
      std::memcpy(dst + w * 8, &v, 8);
    }
  }

  std::uint32_t pick(ChannelId ch, std::uint64_t seq) const {
    return static_cast<std::uint32_t>(mix(~seed_ ^ mix(msg_id(ch, seq))) %
                                      pool_.size());
  }
  const Bytes& pooled(std::uint32_t idx) const { return pool_[idx]; }

  bool check_small(Byte* got, ChannelId ch, std::uint64_t seq) {
    std::array<Byte, kSmall> want;
    fill(want.data(), ch, seq);
    maybe_corrupt(got, kSmall);
    return std::memcmp(got, want.data(), kSmall) == 0;
  }

  bool check_large(const Stamp& st, Byte* got, ChannelId ch,
                   std::uint64_t seq) {
    const std::uint32_t idx = pick(ch, seq);
    const Bytes& want = pool_[idx];
    maybe_corrupt(got, want.size());
    return st.seq == seq && st.ch == ch && st.idx == idx &&
           std::memcmp(got, want.data(), want.size()) == 0;
  }

 private:
  /// Self-test: flip one delivered byte of the third checked message, so
  /// a run proves its check can fail.
  void maybe_corrupt(Byte* got, std::size_t len) {
    if (self_test_ && ++checks_ == 3) got[len / 2] ^= 0x5a;
  }

  const std::uint64_t seed_;
  const bool self_test_;
  std::uint64_t checks_ = 0;
  std::vector<Bytes> pool_;
};

// ---- run context -------------------------------------------------------------------

/// What one segment's measured window saw.
struct Window {
  bool on = false;
  Nanos began = 0, ended = 0;
  LatHist lat;   ///< the workload's latency (see README)
  LatHist late;  ///< generator lateness
  std::uint64_t msgs = 0, bytes = 0, slo_miss = 0;
  double seconds() const { return static_cast<double>(ended - began) / 1e9; }
};

struct Ctx {
  Ctx(const Options& o, std::size_t large_len)
      : oracle(o.seed, large_len, o.self_test), seed(o.seed) {}

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void delivered(std::size_t payload) {
    if (!win.on) return;
    ++win.msgs;
    win.bytes += payload;
  }
  void latency(Nanos v) {
    if (!win.on) return;
    win.lat.add(v);
    if (v > kSlo) ++win.slo_miss;
  }
  void lateness(Nanos v) {
    if (win.on) win.late.add(v);
  }

  /// Every handle must end done or failed; checked oldest first as they
  /// complete, and all remaining ones at the drain.
  void track(Engine& eng, SendHandle h) {
    ++attempted;
    sends.push_back({&eng, std::move(h)});
    while (!sends.empty()) {
      const Sent& s = sends.front();
      if (s.eng->send_failed(s.h))
        fail("send failed");
      else if (!s.eng->send_done(s.h))
        break;
      sends.pop_front();
    }
  }
  void settle() {
    for (const Sent& s : sends)
      if (!s.eng->wait_send(s.h, kSettle)) fail("send did not complete");
    sends.clear();
  }

  struct Sent {
    Engine* eng;
    SendHandle h;
  };

  Oracle oracle;
  const std::uint64_t seed;
  Probes* probes = nullptr;  ///< set for traced segments
  Window win;
  std::deque<Sent> sends;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

// ---- engine pair ---------------------------------------------------------------------

/// Two engines joined by one rail, built here rather than by ShmWorld /
/// UdpWorld so traced segments can wrap the drivers, and so the
/// progress-thread count is fixed at one per engine whatever the
/// environment says.
class Rig {
 public:
  Rig(Transport t, Probes* probes) {
    mado::core::EngineConfig cfg;
    cfg.strategy = probes ? kTimedStrategy : "aggreg";
    cfg.progress_threads = 1;
    cfg.reliability = t == Transport::Udp;  // UDP rails are lossy
    for (mado::core::NodeId i = 0; i < 2; ++i) {
      timers_[i] = std::make_unique<mado::core::RealTimerHost>();
      engines_[i] = std::make_unique<Engine>(i, cfg, *timers_[i]);
    }
    std::array<std::unique_ptr<mado::drv::DriverEndpoint>, 2> ep;
    if (t == Transport::Shm) {
      auto p = mado::drv::ShmEndpoint::make_pair();
      ep = {std::move(p.a), std::move(p.b)};
    } else {
      auto p = mado::drv::UdpEndpoint::make_pair(
          mado::drv::udp_loopback_profile());
      udp_ = {p.a.get(), p.b.get()};
      ep = {std::move(p.a), std::move(p.b)};
    }
    for (std::size_t i = 0; i < 2; ++i) {
      if (probes)
        ep[i] = std::make_unique<TimedEndpoint>(std::move(ep[i]), *probes);
      engines_[i]->add_rail(static_cast<mado::core::NodeId>(1 - i),
                            std::move(ep[i]));
    }
    for (auto& e : engines_) e->start_progress_thread();
  }

  Engine& a() { return *engines_[0]; }
  Engine& b() { return *engines_[1]; }

  /// Engine counters summed over both engines, plus the UDP endpoints'.
  Counters counters() const {
    Counters out;
    for (const auto& e : engines_)
      for (const auto& [k, v] : e->counters_snapshot()) out[k] += v;
    for (const mado::drv::UdpEndpoint* u : udp_) {
      if (!u) continue;
      const mado::drv::UdpCounters& c = u->counters();
      out["udp.datagrams_tx"] += c.datagrams_tx.load();
      out["udp.window_stalls"] += c.window_stalls.load();
      out["udp.eagain_tx"] += c.eagain_tx.load();
    }
    return out;
  }

  void check_quiescent(Ctx& c) {
    for (auto& e : engines_) {
      Engine* eng = e.get();
      if (!eng->wait_until([eng] { return eng->snapshot().quiescent(); },
                           kSettle))
        c.fail("engine " + std::to_string(eng->self()) +
               " not quiescent after drain: " + eng->snapshot().to_string());
    }
  }

 private:
  // Engines are declared after their timer hosts so they are destroyed
  // first; each engine's destructor joins its progress thread.
  std::array<std::unique_ptr<mado::core::RealTimerHost>, 2> timers_;
  std::array<std::unique_ptr<Engine>, 2> engines_;
  std::array<const mado::drv::UdpEndpoint*, 2> udp_{};  // owned by engines
};

// ---- load generators -------------------------------------------------------------------

/// One workload driven from the calling thread. open() is the workload's
/// part of set-up: it opens the channels.
class Load {
 public:
  explicit Load(Ctx& c) : c_(c) {}
  virtual ~Load() = default;
  virtual void open(Rig& rig) = 0;
  virtual void step() = 0;   ///< one loop iteration
  virtual void drain() = 0;  ///< receive everything still outstanding

 protected:
  /// Post one seeded 64 B message; returns when post() was called.
  Nanos post_small(Engine& eng, Channel& ch) {
    const ChannelId id = ch.id();
    const std::uint64_t seq = tx_seq_[id]++;
    std::array<Byte, kSmall> body;
    c_.oracle.fill(body.data(), id, seq);
    Message m;
    m.pack(body.data(), kSmall, SendMode::Safe);
    const Nanos t = now_ns();
    SendHandle h;
    {
      SpanScope s(c_.probes, Span::Post, msg_id(id, seq));
      h = ch.post(std::move(m));
    }
    c_.track(eng, std::move(h));
    return t;
  }

  /// Receive and check the next 64 B message on `rx`, blocking until it is
  /// here; returns when it was in hand.
  Nanos recv_small(Channel& rx) {
    const ChannelId id = rx.id();
    const std::uint64_t seq = rx_seq_[id]++;
    std::array<Byte, kSmall> body;
    const Nanos t0 = now_ns();
    {
      SpanScope s(c_.probes, Span::Recv, msg_id(id, seq));
      IncomingMessage im = rx.begin_recv();
      im.unpack(body.data(), kSmall, RecvMode::Express);
      im.finish();
    }
    const Nanos t1 = now_ns();
    if (c_.probes)
      c_.probes->interval(Interval::RecvWait, t0, t1, msg_id(id, seq));
    if (!c_.oracle.check_small(body.data(), id, seq))
      c_.fail("wrong bytes on channel " + std::to_string(id) + " seq " +
              std::to_string(seq));
    c_.delivered(kSmall);
    return t1;
  }

  Ctx& c_;
  std::array<std::uint64_t, 16> tx_seq_{}, rx_seq_{};  // by channel id
};

/// A window of large messages on one channel. Each post also pre-posts
/// its receive (RecvMode::Cheaper), so rendezvous CTS goes out at once
/// and up to `window` transfers overlap.
class LargeFlow {
 public:
  LargeFlow(Ctx& c, std::size_t window)
      : c_(c), window_(window), stamps_(window), bufs_(window) {
    for (Bytes& b : bufs_) b.resize(c.oracle.pooled(0).size());
  }

  void open(Engine& eng, Channel tx, Channel rx) {
    eng_ = &eng;
    tx_ = tx;
    rx_ = rx;
  }
  bool can_post() const { return pending_.size() < window_; }
  bool idle() const { return pending_.empty(); }

  void post() {
    const ChannelId id = tx_.id();
    const std::uint64_t seq = tx_seq_++;
    const Stamp st{seq, id, c_.oracle.pick(id, seq)};
    const Bytes& payload = c_.oracle.pooled(st.idx);
    Message m;
    m.pack(&st, sizeof st, SendMode::Safe);
    m.pack(payload.data(), payload.size(), SendMode::Later);
    const Nanos t = now_ns();
    SendHandle h;
    {
      SpanScope s(c_.probes, Span::Post, msg_id(id, seq));
      h = tx_.post(std::move(m));
    }
    c_.track(*eng_, std::move(h));
    const std::size_t slot = seq % window_;
    const Nanos begun = now_ns();
    SpanScope s(c_.probes, Span::Recv, msg_id(id, seq));
    IncomingMessage im = rx_.begin_recv();
    im.unpack(&stamps_[slot], sizeof(Stamp), RecvMode::Cheaper);
    im.unpack(bufs_[slot].data(), bufs_[slot].size(), RecvMode::Cheaper);
    pending_.push_back({im, seq, t, begun});
  }

  /// Finish the oldest message; without `block`, only if it is ready.
  /// Returns its post-to-delivery latency, or 0 if not finished.
  Nanos complete(bool block) {
    Pending& p = pending_.front();
    const std::uint64_t id = msg_id(rx_.id(), p.seq);
    if (!block && !p.im.ready()) return 0;
    {
      SpanScope s(c_.probes, Span::Recv, id);
      p.im.finish();
    }
    const Nanos t = now_ns();
    if (c_.probes) c_.probes->interval(Interval::RecvWait, p.begun, t, id);
    const std::size_t slot = p.seq % window_;
    if (!c_.oracle.check_large(stamps_[slot], bufs_[slot].data(), rx_.id(),
                               p.seq))
      c_.fail("wrong large message on channel " + std::to_string(rx_.id()) +
              " seq " + std::to_string(p.seq));
    c_.delivered(bufs_[slot].size());
    const Nanos lat = t - p.posted;
    pending_.pop_front();
    return lat;
  }

 private:
  struct Pending {
    IncomingMessage im;
    std::uint64_t seq;
    Nanos posted, begun;
  };
  Ctx& c_;
  const std::size_t window_;
  Engine* eng_ = nullptr;
  Channel tx_, rx_;
  std::uint64_t tx_seq_ = 0;
  std::vector<Stamp> stamps_;
  std::vector<Bytes> bufs_;
  std::deque<Pending> pending_;
};

/// Closed loop, one outstanding: 64 B request A→B, 64 B reply B→A.
/// Latency is the round trip.
class PingPong final : public Load {
 public:
  using Load::Load;
  void open(Rig& r) override {
    a_ = &r.a();
    b_ = &r.b();
    req_tx_ = a_->open_channel(1, 1);
    req_rx_ = b_->open_channel(0, 1);
    rep_tx_ = b_->open_channel(0, 2);
    rep_rx_ = a_->open_channel(1, 2);
  }
  void step() override {
    const Nanos t0 = post_small(*a_, req_tx_);
    if (due_ != 0) c_.lateness(t0 - due_);
    recv_small(req_rx_);
    post_small(*b_, rep_tx_);
    due_ = recv_small(rep_rx_);
    c_.latency(due_ - t0);
  }
  void drain() override {}

 private:
  Engine *a_ = nullptr, *b_ = nullptr;
  Channel req_tx_, req_rx_, rep_tx_, rep_rx_;
  Nanos due_ = 0;
};

/// Closed loop, window 256: 64 B messages on 16 channels, channel drawn
/// per message from the seed. Each step receives the oldest message and
/// refills the window. Latency is post to delivery.
class MultiFlow final : public Load {
 public:
  explicit MultiFlow(Ctx& c) : Load(c), rng_(mix(c.seed ^ 0x3f)) {}
  void open(Rig& r) override {
    a_ = &r.a();
    for (ChannelId f = 0; f < kFlows; ++f) {
      tx_[f] = a_->open_channel(1, f);
      rx_[f] = r.b().open_channel(0, f);
    }
  }
  void step() override {
    while (out_.size() < kWindow) {
      const auto f = static_cast<ChannelId>(rng_.below(kFlows));
      const Nanos t = post_small(*a_, tx_[f]);
      if (due_ != 0) c_.lateness(t - due_);
      due_ = 0;
      out_.push_back({f, t});
    }
    receive_oldest();
  }
  void drain() override {
    while (!out_.empty()) receive_oldest();
  }

 private:
  static constexpr ChannelId kFlows = 16;
  static constexpr std::size_t kWindow = 256;
  struct Out {
    ChannelId ch;
    Nanos posted;
  };
  void receive_oldest() {
    const Out o = out_.front();
    out_.pop_front();
    due_ = recv_small(rx_[o.ch]);
    c_.latency(due_ - o.posted);
  }

  mado::Rng rng_;
  Engine* a_ = nullptr;
  std::array<Channel, kFlows> tx_, rx_;
  std::deque<Out> out_;
  Nanos due_ = 0;
};

/// Closed loop, window 4: 1 MiB one-way messages. Latency is post to
/// delivery.
class Stream final : public Load {
 public:
  explicit Stream(Ctx& c) : Load(c), flow_(c, 4) {}
  void open(Rig& r) override {
    flow_.open(r.a(), r.a().open_channel(1, 0, TrafficClass::Bulk),
               r.b().open_channel(0, 0, TrafficClass::Bulk));
  }
  void step() override {
    while (flow_.can_post()) {
      if (due_ != 0) c_.lateness(now_ns() - due_);
      due_ = 0;
      flow_.post();
    }
    c_.latency(flow_.complete(true));
    due_ = now_ns();
  }
  void drain() override {
    while (!flow_.idle()) flow_.complete(true);
  }

 private:
  LargeFlow flow_;
  Nanos due_ = 0;
};

/// Open loop: Poisson arrivals (mean 20k/s) of 64 B messages on 4
/// channels, beside back-to-back 256 KiB Bulk-class messages (window 2) on
/// the same rail. Nothing blocks: arrivals are found with probe() and
/// ready(). Latency is that of the 64 B messages, from their due time.
class Mixed final : public Load {
 public:
  explicit Mixed(Ctx& c) : Load(c), bulk_(c, 2), rng_(mix(c.seed ^ 0x5d)) {}
  void open(Rig& r) override {
    a_ = &r.a();
    for (ChannelId f = 0; f < kFlows; ++f) {
      tx_[f] = a_->open_channel(1, f);
      rx_[f] = r.b().open_channel(0, f);
    }
    bulk_.open(*a_, a_->open_channel(1, kFlows, TrafficClass::Bulk),
               r.b().open_channel(0, kFlows, TrafficClass::Bulk));
    next_due_ = now_ns();
  }
  void step() override {
    for (Nanos now = now_ns(); next_due_ <= now; now = now_ns()) {
      const auto f = static_cast<ChannelId>(rng_.below(kFlows));
      c_.lateness(post_small(*a_, tx_[f]) - next_due_);
      due_[f].push_back(next_due_);
      next_due_ += static_cast<Nanos>(-kMeanGapNs * std::log1p(-rng_.uniform()));
    }
    while (bulk_.can_post()) bulk_.post();
    bulk_.complete(false);
    for (ChannelId f = 0; f < kFlows; ++f)
      if (!due_[f].empty() && rx_[f].probe()) receive(f);
  }
  void drain() override {
    for (ChannelId f = 0; f < kFlows; ++f)
      while (!due_[f].empty()) receive(f);
    while (!bulk_.idle()) bulk_.complete(true);
  }

 private:
  static constexpr ChannelId kFlows = 4;
  static constexpr double kMeanGapNs = 1e9 / 20'000;
  void receive(ChannelId f) {
    c_.latency(recv_small(rx_[f]) - due_[f].front());
    due_[f].pop_front();
  }

  LargeFlow bulk_;
  mado::Rng rng_;
  Engine* a_ = nullptr;
  std::array<Channel, kFlows> tx_, rx_;
  std::array<std::deque<Nanos>, kFlows> due_;
  Nanos next_due_ = 0;
};

// ---- workloads as data ---------------------------------------------------------

struct Spec {
  const char* name;
  Transport transport;
  std::size_t large_len;  ///< payload of the large messages, 0 = none
  std::unique_ptr<Load> (*make)(Ctx&);
};

template <class L>
std::unique_ptr<Load> make(Ctx& c) {
  return std::make_unique<L>(c);
}

constexpr std::array<Spec, 4> kSpecs = {{
    {"pingpong_shm", Transport::Shm, 0, &make<PingPong>},
    {"multiflow_shm", Transport::Shm, 0, &make<MultiFlow>},
    {"stream_udp", Transport::Udp, 1 << 20, &make<Stream>},
    {"mixed_udp", Transport::Udp, 256 << 10, &make<Mixed>},
}};

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return s;
  throw std::invalid_argument("unknown workload: " + name);
}

// ---- segments: set-up, warm-up, measured window, drain ---------------------------------

/// Segments of one kind (untraced or traced), merged. Each segment runs on
/// its own freshly built engine pair, so thread placement, which moves
/// these numbers far more than the seed does, is drawn anew per segment;
/// the per-segment medians then steady the run.
struct Phase {
  std::vector<double> rate, goodput, lat_p50;  // one per segment
  LatHist lat, late;
  std::uint64_t msgs = 0, bytes = 0, slo_miss = 0;
  double seconds = 0, cpu_s = 0;
  Counters delta;  ///< counters over the measured windows

  void add(const Window& w) {
    rate.push_back(ratio(double(w.msgs), w.seconds()));
    goodput.push_back(ratio(double(w.bytes) / 1e6, w.seconds()));
    lat_p50.push_back(w.lat.quantile(0.5));
    lat.merge(w.lat);
    late.merge(w.late);
    msgs += w.msgs;
    bytes += w.bytes;
    slo_miss += w.slo_miss;
    seconds += w.seconds();
  }
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image. Not getrusage's ru_maxrss:
/// Linux carries that across exec, so a child of a larger parent would
/// report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024 / 1e6;  // the value is in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Appends the set-up times, in seconds, of kSetups engine pairs built back
/// to back. One set-up builds both engines and the rail, starts the
/// progress threads and opens the channels; the pair is then checked and
/// torn down untimed. No message is delivered: a first delivery, above all
/// a 1 MiB one over UDP, swings by up to 4x with thread placement. Host noise
/// comes in bursts, so set-ups are spread over the run, a few before each
/// segment, rather than made all at once.
void time_setups(const Spec& spec, Ctx& c, std::vector<double>& out) {
  for (std::size_t i = 0; i < kSetups; ++i) {
    std::unique_ptr<Load> load = spec.make(c);
    const Nanos t0 = now_ns();
    Rig rig(spec.transport, nullptr);
    load->open(rig);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    rig.check_quiescent(c);
  }
}

void run_segment(const Spec& spec, const Options& o, double seconds, Ctx& c,
                 Phase& ph) {
  std::unique_ptr<Load> load = spec.make(c);
  Rig rig(spec.transport, c.probes);
  load->open(rig);

  for (const Nanos end = now_ns() + sec_ns(o.warmup); now_ns() < end;)
    load->step();

  const Counters before = rig.counters();
  const double cpu0 = cpu_seconds();
  c.win = Window{};
  if (c.probes) c.probes->set_recording(true);
  c.win.on = true;
  c.win.began = now_ns();
  const Nanos end = c.win.began + sec_ns(seconds);
  Nanos t = c.win.began;
  while (t < end) {
    load->step();
    t = now_ns();
  }
  c.win.on = false;
  c.win.ended = t;
  if (c.probes) c.probes->set_recording(false);
  ph.cpu_s += cpu_seconds() - cpu0;
  for (const auto& [k, v] : rig.counters()) {
    auto it = before.find(k);
    ph.delta[k] += v - (it == before.end() ? 0 : it->second);
  }
  ph.add(c.win);

  load->drain();
  c.settle();
  rig.check_quiescent(c);
}

// ---- metrics -----------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Emit {
  Report& rep;
  void operator()(std::string name, double value, std::string unit,
                  std::uint64_t samples) {
    rep.metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Quantiles of a histogram, one metric per (suffix, quantile).
  void quantiles(const std::string& prefix, const LatHist& h, double scale,
                 const std::string& unit,
                 std::initializer_list<std::pair<const char*, double>> qs) {
    for (const auto& [suffix, q] : qs)
      (*this)(prefix + "." + suffix, h.quantile(q) / scale, unit, h.count());
  }
};

void end_to_end(Emit& emit, const std::vector<double>& setup_s,
                const Phase& ph) {
  emit("setup_s", median(setup_s), "s", setup_s.size());
  emit("msgs_per_s", median(ph.rate), "1/s", ph.msgs);
  emit("goodput_MBps", median(ph.goodput), "MB/s", ph.msgs);
  emit("lat_p50_us", median(ph.lat_p50) / 1e3, "us", ph.lat.count());
  emit("lat_p99_us", ph.lat.quantile(0.99) / 1e3, "us", ph.lat.count());
  emit("lat_p999_us", ph.lat.quantile(0.999) / 1e3, "us", ph.lat.count());
  emit("slo_miss_ratio", ratio(double(ph.slo_miss), double(ph.lat.count())),
       "ratio", ph.lat.count());
}

/// Layer metrics from counters, read in every run.
void from_counters(Emit& emit, const Phase& ph) {
  const Counters& d = ph.delta;
  const auto n = [&d](const char* k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double msgs = double(ph.msgs);
  const double sends = n("tx.packets") + n("tx.bulk_chunks");
  const auto cnt = [](double v) { return static_cast<std::uint64_t>(v); };
  emit("collect.ring_share", ratio(n("submit.ring_ops"), n("tx.msgs")),
       "ratio", cnt(n("tx.msgs")));
  emit("collect.lock_wait_ns_per_acq",
       ratio(n("opt.lock_wait_ns"), n("opt.lock_acquisitions")), "ns",
       cnt(n("opt.lock_acquisitions")));
  const double takes = n("opt.slab_hits") + n("opt.slab_misses");
  emit("collect.slab_miss_ratio", ratio(n("opt.slab_misses"), takes),
       "ratio", cnt(takes));
  emit("optimize.frags_per_packet", ratio(n("tx.frags"), n("tx.packets")),
       "count", cnt(n("tx.packets")));
  emit("optimize.decisions_per_packet",
       ratio(n("opt.decisions"), n("tx.packets")), "count",
       cnt(n("tx.packets")));
  emit("transfer.sends_per_msg", ratio(sends + n("rel.acks_tx"), msgs),
       "count", ph.msgs);
  emit("transfer.wire_bytes_per_payload_byte",
       ratio(n("tx.bytes"), double(ph.bytes)), "ratio", ph.msgs);
  emit("udp.datagrams_per_msg", ratio(n("udp.datagrams_tx"), msgs), "count",
       ph.msgs);
  emit("udp.window_stalls_per_s", ratio(n("udp.window_stalls"), ph.seconds),
       "1/s", cnt(n("udp.window_stalls")));
  emit("udp.eagain_per_s", ratio(n("udp.eagain_tx"), ph.seconds), "1/s",
       cnt(n("udp.eagain_tx")));
  emit("receive.unexpected_share",
       ratio(n("rx.unexpected_frags"), n("rx.frags")), "ratio",
       cnt(n("rx.frags")));
  emit("progress.wakeups_per_msg", ratio(n("prog.wakeups"), msgs), "count",
       ph.msgs);
  emit("progress.idle_sleeps_per_msg", ratio(n("prog.idle_sleeps"), msgs),
       "count", ph.msgs);
  emit("reliability.retransmit_ratio", ratio(n("rel.retransmits"), sends),
       "ratio", cnt(sends));
  emit("reliability.standalone_acks_per_packet",
       ratio(n("rel.acks_tx"), sends), "ratio", cnt(sends));
  emit("reliability.dup_drops", n("rel.dup_drops"), "count",
       cnt(n("rel.dup_drops")));
  emit.quantiles("harness.gen_late_us", ph.late, 1e3, "us", {{"p99", 0.99}});
  emit("harness.cpu_us_per_msg", ratio(ph.cpu_s * 1e6, msgs), "us", ph.msgs);
}

/// Layer metrics from the traced segments' spans.
void from_spans(Emit& emit, const LayerTotals& t, const Phase& ph) {
  const auto dur = [&t](Span s) -> const LatHist& {
    return t.dur[static_cast<std::size_t>(s)];
  };
  const auto self = [&t](Span s) {
    return static_cast<double>(t.self_ns[static_cast<std::size_t>(s)]);
  };
  const auto iv = [&t](Interval k) -> const LatHist& {
    return t.interval[static_cast<std::size_t>(k)];
  };
  const double msgs = double(ph.msgs);
  const std::initializer_list<std::pair<const char*, double>> p50_p99 = {
      {"p50", 0.5}, {"p99", 0.99}};
  emit.quantiles("collect.post_ns", dur(Span::Post), 1, "ns", p50_p99);
  emit("collect.busy_ns_per_msg", ratio(self(Span::Post), msgs), "ns",
       ph.msgs);
  emit.quantiles("optimize.decide_ns", dur(Span::Decide), 1, "ns", p50_p99);
  emit("optimize.busy_ns_per_msg", ratio(self(Span::Decide), msgs), "ns",
       ph.msgs);
  emit.quantiles("transfer.send_ns", dur(Span::Send), 1, "ns", p50_p99);
  emit.quantiles("transfer.send_to_complete_us",
                 iv(Interval::SendToComplete), 1e3, "us", p50_p99);
  emit.quantiles("transfer.poll_ns", dur(Span::Poll), 1, "ns",
                 {{"p50", 0.5}});
  emit("transfer.poll_empty_ratio",
       ratio(double(t.leaves[static_cast<std::size_t>(Span::Poll)]),
             double(dur(Span::Poll).count())),
       "ratio", dur(Span::Poll).count());
  emit.quantiles("receive.callback_ns", dur(Span::Callback), 1, "ns",
                 p50_p99);
  emit.quantiles("receive.wait_us", iv(Interval::RecvWait), 1e3, "us",
                 p50_p99);
  // Post and receive spans are the load thread's only top-level spans.
  const double covered = dur(Span::Post).sum() + dur(Span::Recv).sum();
  emit("harness.unattributed_share", 1 - ratio(covered / 1e9, ph.seconds),
       "ratio", ph.msgs);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

Report run(const Options& o) {
  const Spec& spec = spec_of(o.workload);
  const bool traced = !o.trace_path.empty();
  const std::size_t segments = std::max<std::size_t>(o.segments, traced ? 2 : 1);
  const double seconds = o.seconds / static_cast<double>(segments);

  // A traced run alternates untraced and traced segments, so the tracing
  // overhead is measured against the same stretch of host conditions.
  std::unique_ptr<Probes> probes;
  if (traced) {
    probes = std::make_unique<Probes>();
    register_timed_strategy(*probes);
  }
  Ctx c(o, spec.large_len);
  std::vector<double> setup_s;
  Phase u, t;
  for (std::size_t k = 0; k < segments; ++k) {
    time_setups(spec, c, setup_s);
    const bool traced_segment = traced && k % 2 == 1;
    c.probes = traced_segment ? probes.get() : nullptr;
    run_segment(spec, o, seconds, c, traced_segment ? t : u);
  }

  Report rep;
  Emit emit{rep};
  end_to_end(emit, setup_s, u);
  emit("rss_peak_MB", peak_rss_mb(), "MB", 1);
  from_counters(emit, u);
  if (traced) {
    from_spans(emit, probes->totals(), t);
    const double u_rate = median(u.rate), t_rate = median(t.rate);
    const double u_lat = median(u.lat_p50), t_lat = median(t.lat_p50);
    emit("harness.trace_overhead_pct.msgs_per_s",
         100 * ratio(u_rate - t_rate, u_rate), "%", t.msgs);
    emit("harness.trace_overhead_pct.lat_p50_us",
         100 * ratio(t_lat - u_lat, u_lat), "%", t.lat.count());
    if (!probes->write_chrome(o.trace_path))
      c.fail("cannot write " + o.trace_path);
  }
  rep.attempted = c.attempted;
  rep.failed = c.failed;
  rep.errors = c.errors;
  emit("error_rate", ratio(double(rep.failed), double(rep.attempted)),
       "ratio", rep.attempted);
  return rep;
}

}  // namespace ledger
