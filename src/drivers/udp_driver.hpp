// UDP endpoint: real datagrams over the kernel UDP stack, multiplexing any
// number of peers on ONE epoll event loop per process with batched
// sendmmsg/recvmmsg. This is the bridge from "socketpair inside one process"
// to "serves actual traffic": peers live in separate OS processes, the wire
// can drop and reorder, and SIGKILLing a peer surfaces as a real transport
// error (ICMP port-unreachable → ECONNREFUSED on the connected socket).
//
// Datagram format (16-byte header, little-endian, then payload):
//
//   [u8 type][u8 track][u16 nfrags][u32 seq][u32 frag][u32 frame_len]
//
//   type: 1=Data  2=Ack  3=Ping  4=Pong
//
// A driver frame (one send()) larger than the MTU payload is fragmented
// into `nfrags` datagrams sharing one per-track `seq`; the receiver
// reassembles by (track, seq, frag) and hands completed frames up in seq
// order. Acks carry a cumulative received-byte count (lo32 in `seq`, hi32
// in `frag`) driving the sender's flow-control window — without it, bulk
// senders overrun the loopback receive buffer (~208 KiB default) and drop
// silently even on a "clean" link. Ping/Pong are keepalive + ack
// solicitation.
//
// The driver is honest about what UDP is: caps().lossless == false, so
// Engine::add_rail refuses the rail unless cfg.reliability (the go-back-N
// layer from PR 2) is on. Delivery is per-track FIFO for the frames that DO
// arrive (seq-ordered release with a bounded skip for lost frames);
// recovering the lost ones is the reliability layer's job.
//
// Threading: one UdpLoop thread owns epoll, all sockets, and all per-
// endpoint IO state. send() only enqueues + wakes the loop; progress()
// only drains the completion queue — the same MPSC handoff as the
// socketpair driver, so the engine-facing contract is identical.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "drivers/driver.hpp"
#include "drivers/link_gate.hpp"
#include "util/clock.hpp"
#include "util/queues.hpp"

namespace mado::drv {

class UdpEndpoint;

struct UdpConfig {
  /// Largest datagram emitted (header + payload). Bounded by the IPv4 UDP
  /// maximum (65507); the default balances syscalls-per-byte against
  /// pipelining inside the flow-control window.
  std::size_t mtu = 32 * 1024;
};

/// Monotonic driver counters, written by the loop thread, readable from any
/// thread (relaxed). The `udp.*` names in docs/counters.md map 1:1.
struct UdpCounters {
  std::atomic<std::uint64_t> datagrams_tx{0};
  std::atomic<std::uint64_t> datagrams_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> acks_tx{0};
  std::atomic<std::uint64_t> acks_rx{0};
  std::atomic<std::uint64_t> pings_tx{0};
  std::atomic<std::uint64_t> eagain_tx{0};
  std::atomic<std::uint64_t> window_stalls{0};
  std::atomic<std::uint64_t> window_resets{0};
  std::atomic<std::uint64_t> gap_skips{0};
  std::atomic<std::uint64_t> reasm_drops{0};
  std::atomic<std::uint64_t> stale_frames{0};
  std::atomic<std::uint64_t> rx_loss_injected{0};
  std::atomic<std::uint64_t> loop_wakeups{0};
};

/// Honest capability profile for UDP over loopback: no gather (datagram
/// build flattens), lossless=false (reliability required), loopback-class
/// cost numbers so RTO floors and stripe planning stay sane.
Capabilities udp_loopback_profile();

/// One epoll event loop serving every UdpEndpoint of a process. Create it
/// once (UdpLoop::create), hand the shared_ptr to each endpoint; the loop
/// thread exits when the last endpoint releases it.
class UdpLoop {
 public:
  static std::shared_ptr<UdpLoop> create();
  ~UdpLoop();

  UdpLoop(const UdpLoop&) = delete;
  UdpLoop& operator=(const UdpLoop&) = delete;

 private:
  friend class UdpEndpoint;
  UdpLoop();

  /// Both are synchronous handshakes with the loop thread: after
  /// deregister() returns, the loop holds no reference to the endpoint.
  void register_endpoint(UdpEndpoint* ep);
  void deregister_endpoint(UdpEndpoint* ep);
  /// Cross-thread nudge (eventfd write).
  void wake();
  /// send() fast path: mark `ep` tx-dirty and wake the loop only on the
  /// first send of a burst.
  void notify_tx(UdpEndpoint* ep);

  void run();
  void process_ctrl();
  void handle_readable(UdpEndpoint* ep);
  void handle_datagram(UdpEndpoint* ep, const std::uint8_t* data,
                       std::size_t len, Nanos now);
  void deliver_ready_frames(UdpEndpoint* ep, Nanos now);
  void pump_tx(UdpEndpoint* ep, Nanos now);
  void send_ctrl_datagram(UdpEndpoint* ep, std::uint8_t type);
  void flush_ack(UdpEndpoint* ep, bool force);
  void break_link(UdpEndpoint* ep, const char* why);
  void set_active(UdpEndpoint* ep, bool active);
  void set_want_writable(UdpEndpoint* ep, bool want);
  void fast_tick(Nanos now);
  void slow_tick(Nanos now);

  int epfd_ = -1;
  int wakefd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  struct CtrlOp {
    bool deregister = false;
    UdpEndpoint* ep = nullptr;
    bool* done = nullptr;
  };
  std::vector<CtrlOp> ctrl_;

  /// Endpoints whose submit queue gained items since the loop last drained
  /// them (MPSC so every submitter can push; loop is the one consumer).
  MpscQueue<UdpEndpoint*> tx_dirty_;

  // Loop-thread-only state below.
  std::vector<UdpEndpoint*> eps_;
  std::vector<UdpEndpoint*> active_tx_;
  std::vector<std::uint8_t> rx_buf_;  ///< batch × mtu receive scratch
  Nanos last_fast_tick_ = 0;
  Nanos last_slow_tick_ = 0;
};

class UdpEndpoint final : public DriverEndpoint {
 public:
  struct PairResult {
    std::unique_ptr<UdpEndpoint> a;
    std::unique_ptr<UdpEndpoint> b;
  };
  /// Both ends in one process, cross-connected over 127.0.0.1 on a shared
  /// loop — the drop-in analogue of SocketEndpoint::make_pair for tests.
  static PairResult make_pair(const Capabilities& caps_a,
                              const Capabilities& caps_b,
                              const UdpConfig& cfg = {});
  static PairResult make_pair(const Capabilities& caps,
                              const UdpConfig& cfg = {}) {
    return make_pair(caps, caps, cfg);
  }

  /// Multi-process path: bind an unconnected endpoint on 127.0.0.1 (port 0
  /// = ephemeral), exchange ports out of band, then connect(). Traffic and
  /// epoll registration start at connect().
  static std::unique_ptr<UdpEndpoint> bind(std::shared_ptr<UdpLoop> loop,
                                           const Capabilities& caps,
                                           const UdpConfig& cfg = {},
                                           std::uint16_t port = 0);
  std::uint16_t local_port() const { return local_port_; }
  void connect(const std::string& ip, std::uint16_t port);

  ~UdpEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override { handler_ = handler; }
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override;
  void close() override;
  bool link_up() const override { return !gate_.broken(); }
  std::string describe() const override;

  bool broken() const { return gate_.broken(); }
  const UdpCounters& counters() const { return counters_; }

  /// Test hook: sever the link as if the wire died (queued and future sends
  /// fail, then exactly one on_link_down).
  void inject_failure();
  /// Test hook: drop this fraction of received DATA datagrams (after flow-
  /// control accounting, before reassembly) — a lossy wire whose acks still
  /// flow, so the window stays live while the reliability layer sweats.
  void set_rx_loss(double probability, std::uint64_t seed);

 private:
  friend class UdpLoop;
  UdpEndpoint(std::shared_ptr<UdpLoop> loop, Capabilities caps,
              UdpConfig cfg);

  void open_and_bind(std::uint16_t port);
  void register_with_loop();

  struct TxItem {
    TrackId track = 0;
    std::uint64_t token = 0;
    Bytes payload;
    bool seq_assigned = false;
    std::uint32_t seq = 0;
  };
  struct EvSendComplete {
    TrackId track;
    std::uint64_t token;
  };
  struct EvSendFailed {
    TrackId track;
    std::uint64_t token;
  };
  struct EvPacket {
    TrackId track;
    Bytes payload;
  };
  using Event = std::variant<EvSendComplete, EvSendFailed, EvPacket>;

  /// One partially reassembled (or completed, awaiting ordered release)
  /// inbound frame.
  struct Reasm {
    Bytes buf;
    std::vector<bool> got;
    std::uint32_t have = 0;
    std::uint32_t nfrags = 0;
    bool complete = false;
    Nanos first_at = 0;
    Nanos complete_at = 0;
  };
  struct TrackRx {
    std::uint32_t next_seq = 0;  ///< next seq to release to the handler
    std::map<std::uint32_t, Reasm> pend;
  };

  /// Loop-thread-only IO state. Registration/deregistration handshakes
  /// (mutex + cv) order every access against construction and close().
  struct Io {
    std::deque<TxItem> q;
    std::size_t cur_off = 0;  ///< payload bytes of q.front() already sent
    std::vector<std::uint32_t> next_seq;  ///< per-track tx frame seq
    std::uint64_t tx_charged = 0;
    std::uint64_t peer_acked = 0;
    bool want_writable = false;
    bool in_active = false;
    Nanos blocked_since = 0;  ///< 0 = not window-blocked
    std::uint64_t rx_charged = 0;
    std::uint64_t acked_sent = 0;  ///< last cumulative value sent to peer
    bool ack_pending = false;
    std::vector<TrackRx> rx;
    Nanos last_rx = 0;
    Nanos last_ping = 0;
    bool broken = false;  ///< loop-side latch: fail everything from now on
  };

  std::shared_ptr<UdpLoop> loop_;
  Capabilities caps_;
  UdpConfig cfg_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::size_t chunk_ = 0;         ///< payload bytes per datagram
  std::size_t window_ = 0;        ///< effective window (rcvbuf-clamped)
  std::atomic<bool> connected_{false};
  std::atomic<bool> registered_{false};
  EndpointHandler* handler_ = nullptr;

  MpscQueue<TxItem> tx_;
  MpscQueue<Event> events_;
  std::atomic<bool> tx_signaled_{false};
  LinkDownGate gate_;
  std::atomic<bool> fail_requested_{false};
  std::atomic<std::uint32_t> rx_loss_ppm_{0};
  /// xorshift state; atomic only so seeding from a test thread is race-free
  /// against the loop thread's relaxed advance.
  std::atomic<std::uint64_t> loss_rng_{0};
  UdpCounters counters_;
  Io io_;
};

}  // namespace mado::drv
