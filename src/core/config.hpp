// Engine configuration. Every knob the paper discusses (strategy selection,
// lookahead window, Nagle-style delay, rearrangement evaluation budget,
// multirail policy) is a field here so benchmarks can sweep them. Values no
// workload varies are the constants below; the progress threads' idle
// backoff lives beside its loop in engine.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "core/types.hpp"
#include "util/clock.hpp"

namespace mado::core {

// Fixed engine values that no workload or study varies. The per-peer
// payload slab and token tables use their own types' defaults
// (PayloadSlab::kDefaultLimits, TokenTableOpts).

/// SendMode::Cheaper copies fragments up to this size (larger ones are
/// referenced in place, as SendMode::Later).
inline constexpr std::size_t kCheaperCopyBound = 4096;

/// Reliability: consecutive timeout rounds (backoffs without forward
/// progress) before a rail is declared Down and its traffic fails over.
inline constexpr std::size_t kRelMaxRetries = 10;

/// Reliability: how many recently-completed rendezvous tokens each peer
/// remembers for cross-rail replay dedup. Older tokens are evicted FIFO
/// (counted as cap.rdv_done_evictions).
inline constexpr std::size_t kRdvDoneWindow = 1024;

/// Tuning for MultirailPolicy::Stripe (heterogeneous multi-rail bulk
/// striping with cost-model placement and rail work-stealing).
struct StripePolicy {
  /// Smallest chunk the splitter will cut. A rail whose cost-model share
  /// comes out below this is dropped from the stripe and its bytes folded
  /// into the fastest rail — a 100:1 rail pair should not pay a rendezvous
  /// round just to move a handful of bytes on the slow NIC.
  std::size_t min_chunk = 8 * 1024;

  /// Idle rails steal queued chunks from the most-loaded rail toward the
  /// same peer (from the tail of its queue, so the victim keeps streaming
  /// its head undisturbed). Any non-empty queue may be robbed.
  bool steal = true;
};

struct EngineConfig {
  /// Name of the optimization strategy, resolved via the StrategyRegistry
  /// ("the database of predefined strategies can be easily extended").
  std::string strategy = "aggreg";

  /// Lookahead window: the maximum number of backlog fragments the strategy
  /// may examine/combine per packet decision. 0 means unbounded. The
  /// paper's future work #1 is experimenting with this value (bench E4).
  std::size_t lookahead_window = 16;

  /// Evaluation budget for search-based strategies: the maximum number of
  /// candidate rearrangements scored per decision. The paper's future work
  /// #2 is bounding this value (bench E5).
  std::size_t eval_budget = 64;

  /// Artificial submission delay for the "nagle" strategy: a lone small
  /// fragment is held up to this long in the hope of aggregation (paper §3,
  /// "in a TCP Nagle's algorithm fashion"). Ignored by other strategies.
  Nanos nagle_delay = 0;

  /// Fragments at least this large use rendezvous regardless of driver
  /// capabilities; 0 defers entirely to Capabilities::rdv_threshold.
  std::size_t rdv_threshold_override = 0;

  /// Bulk data is cut into chunks of this size for multirail distribution.
  std::size_t rdv_chunk = 64 * 1024;

  MultirailPolicy multirail = MultirailPolicy::DynamicSplit;

  /// Tuning for MultirailPolicy::Stripe (ignored by the other policies).
  StripePolicy stripe;

  /// Initial traffic-class → rail assignment (index = TrafficClass value).
  /// Rails beyond the actual rail count wrap modulo rail count.
  std::array<RailId, kTrafficClassCount> class_rail = {0, 0, 0, 0};

  // --- Reliability layer (off by default: lossless fabrics pay nothing) ---

  /// Per-rail ack/retransmit: reliable sequence numbers on every packet,
  /// cumulative (piggybacked + standalone) acks, retransmit timers with
  /// exponential backoff, duplicate/out-of-order suppression on RX, and
  /// failover of un-acked traffic when a rail dies.
  bool reliability = false;

  /// Additionally protect packet *payloads* with CRC-32 (headers always
  /// are). A payload CRC mismatch drops the packet (`rel.payload_crc_drops`)
  /// and lets retransmission repair it. Requires `reliability`.
  bool payload_crc = false;

  /// Go-back-N send window per (rail, stream): packets sent but not yet
  /// cumulatively acked. Bounds both the retransmit burst after a loss (a
  /// drop resends at most this many packets) and the retained-payload
  /// memory. Standalone acks are unsequenced and never count against it.
  std::size_t rel_window = 64;

  /// Initial retransmit timeout for un-acked packets. The armed deadline
  /// additionally includes the cost model's estimate of draining all
  /// un-acked bytes, so a slow fat chunk does not trip a spurious timeout.
  Nanos rel_rto_initial = 200 * kNanosPerMicro;

  /// Ceiling for the exponential RTO backoff.
  Nanos rel_rto_max = 10 * kNanosPerMilli;

  // --- Threading: submit ring + progress threads ---------------------------

  /// Number of progress threads started by start_progress_thread(). Peer
  /// shards are statically assigned to threads (insertion order modulo
  /// this count) with rail affinity: every rail of a peer is pumped by the
  /// shard's single owner, keeping per-lap hot structures cache-resident.
  /// Idle threads steal un-pumped shards from busy owners. 1 (the default)
  /// preserves the single-pump behavior exactly.
  std::size_t progress_threads = 1;

  /// Capacity (rounded up to a power of two) of the per-peer lock-free
  /// submit ring. Uncontended posts take the peer lock and submit inline
  /// (no ring traffic); when the shard is busy, application threads
  /// enqueue here and return immediately — whoever holds the peer lock
  /// (progressor or a flat-combining submitter) drains it. Contention thus
  /// widens the optimizer's lookahead window exactly as the paper intends:
  /// submissions batch up between NIC-idle instants. 0 disables the ring:
  /// every submit blocks on the peer lock (useful for A/B tests).
  std::size_t submit_ring = 256;
};

}  // namespace mado::core
