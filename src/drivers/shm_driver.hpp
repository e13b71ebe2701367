// Shared-memory endpoint: intra-node transport between two threads of one
// process, exchanging frames through lock-free rings — the SMP-node
// sibling of the network drivers (Madeleine was multi-protocol: cluster
// nodes talked Myrinet between boxes and shared memory within one).
//
// Unlike the socket driver there are no IO threads: send() pushes the
// frame onto the peer's inbox ring and the completion onto the local
// completion ring, and rings both handlers (clause 5); both are delivered
// by the respective progress() calls, which keeps the driver contract (no
// synchronous callbacks) and makes the driver usable from both cooperative
// and threaded worlds. Each ring is an SpscRing of kRingSlots slots with
// one producer and one consumer, which driver contract clause 8 provides:
// one endpoint's send() calls never overlap, nor do its progress() calls.
// The rings take no mutex on a steady-state send or progress() lap; only a
// full ring's spill locks. send() still rings the peer under `ready_mu`,
// which otherwise only the peer's set_handler() and close() take, so it is
// uncontended.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "drivers/driver.hpp"
#include "util/queues.hpp"

namespace mado::drv {

/// Capability profile for the shared-memory transport: latency far below
/// any NIC, bandwidth at memcpy speed, no gather support (frames are
/// flattened into the queue anyway).
Capabilities shm_profile();

class ShmEndpoint final : public DriverEndpoint {
 public:
  struct PairResult {
    std::unique_ptr<ShmEndpoint> a;
    std::unique_ptr<ShmEndpoint> b;
  };
  static PairResult make_pair(const Capabilities& caps);
  static PairResult make_pair() { return make_pair(shm_profile()); }

  ~ShmEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override;
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override;
  /// Stops the peer's sends from ringing this side's handler.
  void close() override;

  /// Slots per ring. Small: make_pair builds four rings per rail and pays
  /// for every slot, while a burst past a ring only spills.
  static constexpr std::size_t kRingSlots = 16;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Frame {
    TrackId track = 0;
    Bytes payload;
  };
  struct Completion {
    TrackId track = 0;
    std::uint64_t token = 0;
  };
  struct Shared {
    /// Frames, indexed by receiver side: the peer's send() produces, the
    /// receiver's progress() consumes.
    SpscRing<Frame> inbox[2] = {SpscRing<Frame>(kRingSlots),
                                SpscRing<Frame>(kRingSlots)};
    /// Ring targets, indexed by side: the peer's send rings ready[side]
    /// under ready_mu[side], and close() clears it under the same lock, so
    /// a surviving sender never rings a handler whose engine is gone.
    std::mutex ready_mu[2];
    EndpointHandler* ready[2] = {nullptr, nullptr};
  };

  ShmEndpoint(Capabilities caps, std::shared_ptr<Shared> shared, int side);

  Capabilities caps_;
  std::shared_ptr<Shared> shared_;
  int side_;
  EndpointHandler* handler_ = nullptr;
  SpscRing<Completion> completions_{kRingSlots};
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mado::drv
