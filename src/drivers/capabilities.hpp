// Driver capabilities.
//
// The paper: "Optimizations are parameterized by the capabilities of the
// underlying network drivers." This struct is that parameterization: every
// strategy decision (aggregate or not, eager or rendezvous, gather or
// flatten, which track) consults a Capabilities instance, never a concrete
// driver type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/nic_model.hpp"

namespace mado::drv {

/// Virtual track (multiplexing unit) index within one endpoint.
/// Track 0 carries eager data and control; track 1 carries rendezvous bulk.
using TrackId = std::uint8_t;
constexpr TrackId kTrackEager = 0;
constexpr TrackId kTrackBulk = 1;

struct Capabilities {
  std::string name = "generic";

  /// Maximum payload of one eager-track packet. Aggregation strategies fill
  /// packets up to this bound.
  std::size_t max_eager = 8 * 1024;

  /// Fragments of at least this many bytes are sent with the rendezvous
  /// protocol (RTS/CTS + bulk track) instead of eagerly.
  std::size_t rdv_threshold = 32 * 1024;

  /// Whether the NIC consumes gather lists natively. When false, multi-
  /// segment packets must be flattened into a staging buffer first, and the
  /// cost model charges the copy.
  bool gather_scatter = true;

  /// Maximum number of gather segments per send when gather_scatter is set.
  std::size_t max_gather_segments = 32;

  /// Number of virtual tracks the endpoint exposes (>= 1). With a single
  /// track, bulk data and eager packets share one multiplexing unit.
  std::size_t track_count = 2;

  /// Maximum packets in flight per track before the engine considers the
  /// track busy. The paper's design keeps this at 1: while the NIC sends
  /// one packet, the optimizer accumulates a backlog.
  std::size_t track_depth = 1;

  /// Whether the wire itself guarantees delivery. Stream and shared-memory
  /// transports are lossless; datagram transports (UDP) are not and MUST be
  /// paired with the engine's go-back-N layer — Engine::add_rail rejects a
  /// lossy rail unless cfg.reliability is on.
  bool lossless = true;

  /// The largest frame — the bytes of one send() — the driver accepts; 0
  /// means unbounded (stream and copy transports). The engine cuts eager
  /// packets and rendezvous chunks to the smallest non-zero max_frame
  /// among a peer's rails, so only the engine cuts bytes; a driver refuses
  /// a larger frame (driver contract clause 6).
  std::size_t max_frame = 0;

  /// Cost-model parameters. The simulated driver charges time with these;
  /// strategies use the same numbers to score candidate packings, so the
  /// optimizer and the network agree on what "cheaper" means.
  sim::NicModelParams cost;

  /// Per-rail bandwidth hint in bytes/µs, for schedulers (stripe placement)
  /// when the cost model's link rate is not representative of this
  /// particular rail — e.g. a TCP driver whose profile says GigE but whose
  /// path is actually 10G, or an administrator capping a rail's share. 0
  /// means "no hint": consumers fall back to cost.link_bytes_per_us via
  /// effective_bandwidth().
  double bandwidth_hint_bytes_per_us = 0.0;

  /// The bandwidth schedulers should plan with: the explicit hint when one
  /// is set, the cost model's link rate otherwise.
  double effective_bandwidth() const {
    return bandwidth_hint_bytes_per_us > 0.0 ? bandwidth_hint_bytes_per_us
                                             : cost.link_bytes_per_us;
  }

  sim::NicModel model() const { return sim::NicModel(cost); }
};

}  // namespace mado::drv
