// Abstract transfer-layer endpoint (one side of a point-to-point link).
//
// Driver contract (every implementation MUST follow it; the engine's
// locking depends on it):
//
//  1. send() never invokes handler callbacks synchronously. Completions and
//     arrivals are delivered later — from Fabric::step() for the simulated
//     driver, from progress() for thread-backed drivers. on_ready() (clause
//     5) is the one exception: it may run inside send().
//  2. Handler callbacks are invoked WITHOUT any engine lock held; the
//     engine re-acquires its own lock inside the callback. on_ready() is
//     again the exception: it may run under the engine's peer lock (from
//     send()) and from driver IO threads, because it only rings — it takes
//     no engine lock beyond the progress threads' leaf park mutexes.
//  3. Per track, completions are reported in send order, and packets are
//     delivered to the peer in send order (tracks are FIFO channels).
//     No ordering holds ACROSS tracks. A lossy driver (lossless=false) may
//     lose packets and never holds later ones back for them: ordering,
//     dedup and recovery are the engine's reliability layer's job.
//  4. The GatherList segments passed to send() remain valid until the
//     matching on_send_complete fires.
//  5. A driver that queues anything for progress() to deliver — a packet,
//     a completion, a send failure, a link-down — calls its handler's
//     on_ready() after queuing it (once per burst is enough). The engine's
//     progress threads park until rung or until the next timer deadline,
//     so a missing ring stalls the endpoint. Drivers whose events run from
//     the pumping thread itself (the simulated driver's Fabric::step(), a
//     hand-pumped test double) need not ring.
//  6. A driver whose caps().max_frame is non-zero refuses (MADO_CHECK) a
//     send() of more bytes; the engine never issues one. Each accepted
//     frame reaches the peer whole, as one on_packet, or not at all.
//  7. Every send() completes (on_send_complete) or fails (on_send_failed,
//     or on_link_down) in bounded time. The engine's retransmit timer
//     counts no retry while a packet's last copy is still inside the
//     driver, so a send held forever would stall its rail, never fail it.
//     The simulated driver completes at the NIC model's accept time; shm
//     completes at hand-off, pushing the completion onto its own ring
//     inside send(); the socket driver's TX thread writes into a
//     socketpair whose peer RX thread always reads, and a broken socket
//     fails every queued send; UDP sends a frame once the credit window
//     admits it (a stall resets the window after 20 ms), and after 2 s of
//     peer silence breaks the link, failing every queued send.
//  8. Calls to send() on one endpoint never overlap, nor do calls to its
//     progress(); a send() may run beside a progress(). The engine holds
//     the peer lock around every send() and the shard's pump claim
//     (PeerState::pumping) around every progress(). Drivers may rely on
//     it: the shm driver's rings have one producer and one consumer.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "drivers/capabilities.hpp"
#include "util/assert.hpp"
#include "util/iovec.hpp"
#include "util/wire.hpp"

namespace mado::drv {

/// Clause 6, for every driver's send(): refuse a frame above a non-zero
/// max_frame.
inline void check_frame(const Capabilities& caps, const GatherList& gl) {
  MADO_CHECK_MSG(caps.max_frame == 0 || gl.total_bytes() <= caps.max_frame,
                 "frame of " << gl.total_bytes() << " bytes above max_frame "
                             << caps.max_frame << " of " << caps.name);
}

class EndpointHandler;

/// Where clause-5 rings go when the handler that receives them does not
/// take them itself. EndpointHandler and DriverEndpoint both inherit it
/// virtually, so a decorator — an endpoint that wraps another and
/// registers itself as the inner one's handler — holds ONE relay for both
/// roles: the engine names its own handler here (relay_ready_to) and the
/// decorator's inherited on_ready() passes the inner driver's rings on,
/// without code of its own. bench/ledger's TimedEndpoint is such a
/// decorator; it forwards only the four data callbacks by hand.
class ReadyRelay {
 protected:
  std::atomic<EndpointHandler*> ready_to_{nullptr};
};

class EndpointHandler : public virtual ReadyRelay {
 public:
  virtual ~EndpointHandler() = default;

  /// The packet identified by `token` left the NIC; the track slot is free.
  virtual void on_send_complete(TrackId track, std::uint64_t token) = 0;

  /// A packet arrived from the peer on `track`. Payload ownership moves to
  /// the handler.
  virtual void on_packet(TrackId track, Bytes payload) = 0;

  /// A queued send will never complete: the wire broke while (or before)
  /// the driver was transmitting it. Fired exactly once per affected token
  /// — every send() gets exactly one of on_send_complete / on_send_failed —
  /// and before the endpoint's on_link_down. Default: ignore (the link-down
  /// failover then sweeps up the in-flight record; lossless drivers never
  /// call it).
  virtual void on_send_failed(TrackId track, std::uint64_t token) {
    (void)track;
    (void)token;
  }

  /// The link died (peer closed, transport error, injected failure). Fired
  /// at most once per endpoint, after every packet that arrived before the
  /// failure has been delivered via on_packet and every doomed send has
  /// been failed via on_send_failed. Default: ignore (lossless drivers
  /// never call it).
  virtual void on_link_down() {}

  /// Clause 5: the driver queued something that progress() will deliver.
  /// Any thread, any lock; must only ring. Default: pass the ring on to the
  /// handler named by relay_ready_to (a decorator's), else drop it.
  virtual void on_ready() {
    if (EndpointHandler* h = ready_to_.load(std::memory_order_acquire))
      h->on_ready();
  }
};

class DriverEndpoint : public virtual ReadyRelay {
 public:
  virtual ~DriverEndpoint() = default;

  DriverEndpoint(const DriverEndpoint&) = delete;
  DriverEndpoint& operator=(const DriverEndpoint&) = delete;

  virtual const Capabilities& caps() const = 0;

  /// Register the engine-side handler. Must be called before first send.
  virtual void set_handler(EndpointHandler* handler) = 0;

  /// Name the handler that rings reaching this endpoint's own handler side
  /// are passed on to (see ReadyRelay). Call before set_handler.
  void relay_ready_to(EndpointHandler* handler) {
    ready_to_.store(handler, std::memory_order_release);
  }

  /// Enqueue one packet on `track`. See the contract above.
  virtual void send(TrackId track, const GatherList& gl,
                    std::uint64_t token) = 0;

  /// Drain pending completions/arrivals (no-op for the simulated driver,
  /// whose events run from the shared Fabric loop).
  virtual void progress() = 0;

  /// Stop background threads, if any. Idempotent. After it returns the
  /// endpoint rings its handler no more.
  virtual void close() {}

  /// False once the link has failed (on_link_down fired or is pending).
  virtual bool link_up() const { return true; }

  virtual std::string describe() const { return caps().name; }

 protected:
  DriverEndpoint() = default;
};

}  // namespace mado::drv
