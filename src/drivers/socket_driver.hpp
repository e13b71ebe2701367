// Socket endpoint: real bytes over a Unix-domain socketpair, with one TX and
// one RX thread per endpoint. This is the "mock the NIC over sockets on one
// host" substrate: it exercises the engine against genuine asynchrony —
// partial reads/writes, thread handoff, out-of-band completion delivery —
// which the deterministic simulator cannot.
//
// Framing: [u8 track][u32 little-endian payload length][payload bytes].
// All tracks multiplex over the single stream, which preserves the per-track
// FIFO guarantee of the driver contract (a stream is FIFO for everything).
//
// Completions/arrivals are pushed onto an MPSC queue by the IO threads,
// which ring the handler (clause 5), and handed to the handler from
// progress(), per the driver contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <variant>

#include "drivers/driver.hpp"
#include "drivers/link_gate.hpp"
#include "util/queues.hpp"

namespace mado::drv {

class SocketEndpoint final : public DriverEndpoint {
 public:
  struct PairResult {
    std::unique_ptr<SocketEndpoint> a;
    std::unique_ptr<SocketEndpoint> b;
  };
  /// Create both ends over a fresh socketpair. Throws std::system_error on
  /// OS failure.
  static PairResult make_pair(const Capabilities& caps_a,
                              const Capabilities& caps_b);
  static PairResult make_pair(const Capabilities& caps) {
    return make_pair(caps, caps);
  }

  ~SocketEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override {
    handler_.store(handler, std::memory_order_release);
  }
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override;
  void close() override;
  bool link_up() const override { return !broken(); }

  /// True once the peer closed or an IO error occurred. progress() reports
  /// this to the handler as on_link_down — exactly once, after all queued
  /// arrivals have been drained.
  bool broken() const { return gate_.broken(); }

  std::uint64_t packets_sent() const {
    return packets_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Times the TX thread woke from its blocking wait (one per queued item
  /// or stop sentinel — an idle endpoint holds this flat; the old 100 ms
  /// poll tick woke 10×/s doing nothing).
  std::uint64_t tx_wakeups() const {
    return tx_wakeups_.load(std::memory_order_relaxed);
  }

 private:
  SocketEndpoint(Capabilities caps, int fd);

  void tx_loop();
  void rx_loop();
  /// IO threads: the wire died; progress() will report it. Rings.
  void mark_broken();
  bool write_all(const void* data, std::size_t len);
  bool read_all(void* data, std::size_t len);

  struct TxItem {
    TrackId track = 0;
    std::uint64_t token = 0;
    Bytes payload;
    bool stop = false;
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
  /// IO threads: queue `ev` for progress(), then ring the handler.
  void deliver(Event ev);

  Capabilities caps_;
  int fd_ = -1;
  /// Atomic: the IO threads start in the constructor, before set_handler,
  /// and ring through it.
  std::atomic<EndpointHandler*> handler_{nullptr};
  MpscQueue<TxItem> tx_;
  MpscQueue<Event> events_;
  std::thread tx_thread_;
  std::thread rx_thread_;
  std::atomic<bool> stop_{false};
  /// broken/outstanding/closed/reported protocol shared with the UDP
  /// driver; see link_gate.hpp for the exactly-once argument.
  LinkDownGate gate_;
  std::atomic<std::uint64_t> packets_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> tx_wakeups_{0};
};

}  // namespace mado::drv
