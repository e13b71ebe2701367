// Core identifier and mode types shared across the engine.
#pragma once

#include <cstdint>

#include "util/clock.hpp"

namespace mado::core {

/// Process/endpoint identity within one communication world.
using NodeId = std::uint32_t;

/// Logical communication flow (Madeleine "channel"). Channel ids are chosen
/// by the application — both sides of a connection must open a channel with
/// the same id, like an MPI tag agreed upon out of band.
using ChannelId = std::uint32_t;

/// Per-channel message sequence number, assigned at submit time.
using MsgSeq = std::uint32_t;

/// Index of a fragment inside one structured message.
using FragIdx = std::uint16_t;

/// Physical rail (NIC) index toward one peer.
using RailId = std::uint8_t;

/// How the sender hands a buffer to the library (Madeleine send modes).
enum class SendMode : std::uint8_t {
  /// Buffer is copied at pack() time; reusable immediately.
  Safe,
  /// Buffer is read when the optimizer builds the packet; it must stay
  /// valid until the send completes. Cheapest for large payloads.
  Later,
  /// Library picks: small fragments are copied, large ones behave as Later.
  Cheaper,
};

/// How the receiver consumes a fragment (Madeleine receive modes).
enum class RecvMode : std::uint8_t {
  /// unpack() blocks until this fragment's data is available. Used for
  /// header fragments whose content determines how to receive the rest —
  /// the "message internal dependencies" the optimizer must respect.
  Express,
  /// unpack() just registers the destination; completion is awaited at
  /// finish(). Gives the library the most freedom (e.g. zero-copy rdv).
  Cheaper,
};

/// Traffic classes the scheduler can assign to networking resources
/// (paper §2: large synchronous sends, put/get transfers, control and
/// signalling messages as distinct classes).
enum class TrafficClass : std::uint8_t {
  Control = 0,
  SmallEager = 1,
  Bulk = 2,
  PutGet = 3,
};
constexpr std::size_t kTrafficClassCount = 4;

/// Health of one rail (NIC) toward a peer, as tracked by the engine.
enum class RailState : std::uint8_t {
  /// Healthy: scheduled normally.
  Up = 0,
  /// Lossy: at least one retransmit timeout is outstanding. Still
  /// scheduled, but a candidate for load shedding.
  Degraded = 1,
  /// Dead: link-down reported or retry budget exhausted. Never scheduled;
  /// its un-acked traffic has been drained to surviving rails.
  Down = 2,
};

inline const char* to_string(RailState s) {
  switch (s) {
    case RailState::Up: return "up";
    case RailState::Degraded: return "degraded";
    case RailState::Down: return "down";
  }
  return "?";
}

/// How rendezvous bulk data is spread over multiple rails.
enum class MultirailPolicy : std::uint8_t {
  /// All bulk chunks use the Bulk class's rail.
  SingleRail,
  /// Chunks sit in one shared queue; each idle bulk track pulls the next
  /// (self-balancing across heterogeneous rails).
  DynamicSplit,
  /// Cost-model striping: the optimizer splits the transfer into per-rail
  /// contiguous byte ranges sized so every rail's *predicted completion
  /// time* (NicModel PIO/DMA thresholds + per-rail backlog) is equal, then
  /// cuts each range into chunks on that rail's queue. Idle rails steal
  /// queued chunks from loaded ones (the paper's "NIC becomes idle"
  /// activation, generalized across rails), so prediction error and
  /// mid-transfer load shifts self-correct. Tuned by StripePolicy.
  Stripe,
};

}  // namespace mado::core
