// Optimization strategies — the paper's "extendable packet optimization
// engine" with its "database of predefined strategies".
//
// A Strategy is consulted whenever an eager track is idle and the backlog is
// non-empty. It examines the backlog (bounded by the lookahead window) and
// decides the next packet: which fragments to combine, or to wait a little
// longer (Nagle-style), or that nothing should be sent now.
//
// Constraints every strategy MUST honor (checked by tests):
//   * control fragments (rendezvous CTS, …) are included before data;
//   * fragments are consumed from each flow's head only (per-flow FIFO),
//     which preserves intra-message ordering;
//   * the packet payload never exceeds Capabilities::max_eager.
//
// New strategies are added by registering a factory under a name; the
// engine resolves EngineConfig::strategy through this registry, so a
// downstream user extends the database without touching engine code.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/backlog.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "drivers/capabilities.hpp"
#include "util/small_vector.hpp"

namespace mado::core {

/// Fragments selected for one packet. Inline capacity covers the default
/// lookahead window (16), so building a packet decision performs no heap
/// allocation on the steady-state optimizer path.
using FragList = mado::SmallVector<TxFrag, 16>;

/// Everything a strategy may consult when deciding the next packet.
struct StrategyEnv {
  const drv::Capabilities& caps;
  Nanos now = 0;
  std::size_t lookahead_window = 0;  ///< 0 = unbounded
  std::size_t eval_budget = 0;       ///< 0 = unbounded
  Nanos nagle_delay = 0;
  EngineStats* stats = nullptr;      ///< may be null
};

struct PacketDecision {
  enum class Action : std::uint8_t {
    Send,  ///< transmit `frags` as one packet now
    Wait,  ///< hold off until `wait_until` hoping for aggregation
    Idle,  ///< nothing to do (backlog empty or unsendable)
  };
  Action action = Action::Idle;
  FragList frags;
  Nanos wait_until = 0;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Decide the next packet for an idle eager track. May pop fragments from
  /// `backlog` only if it returns Action::Send (and exactly the popped
  /// fragments must appear in `frags`, in packet order).
  virtual PacketDecision next_packet(TxBacklog& backlog,
                                     const StrategyEnv& env) = 0;
};

/// Name → factory database. Built-in strategies ("fifo", "aggreg",
/// "aggreg_exhaustive", "nagle", "adaptive", "priority") are registered on
/// first access; users add their own with register_strategy (replacing is
/// allowed, so a user can even override a built-in). Thread-safe: engines
/// may be constructed concurrently with registrations.
class StrategyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Strategy>()>;

  static StrategyRegistry& instance();

  void register_strategy(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  std::unique_ptr<Strategy> create(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  StrategyRegistry();  // registers the built-ins
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// Helpers shared by built-in strategies (exposed for custom strategies and
/// tests).
namespace strategy_detail {

/// Pop as many control fragments as fit into `out` within `budget` bytes.
/// Returns bytes consumed.
std::size_t take_controls(TxBacklog& backlog, std::size_t budget,
                          FragList& out);

/// Estimated NIC busy time for a packet of `payload_bytes` over
/// `payload_segs` payload segments (plus the header block) under `caps`.
Nanos packet_cost(const drv::Capabilities& caps, std::size_t payload_bytes,
                  std::size_t payload_segs, std::size_t header_bytes);

// ---- stripe hook (MultirailPolicy::Stripe) ---------------------------------
//
// The optimizer-side half of heterogeneous bulk striping: given every Up
// rail's capabilities and current backlog, split a transfer into per-rail
// byte shares such that all rails are *predicted* to finish simultaneously.
// Pure functions of the cost model — exercised directly by the model-based
// striping tests, and by the engine at CTS time.

/// One candidate rail as seen by the stripe planner.
struct StripeRail {
  const drv::Capabilities* caps = nullptr;
  /// Bytes already queued/in flight on the rail (bulk queue + eager backlog
  /// + un-acked wire bytes) that must drain before new chunks move.
  std::size_t backlog_bytes = 0;
  bool up = true;  ///< Down rails must receive a zero share.
};

/// Predicted effective bulk throughput of `caps` in bytes/ns when streaming
/// `chunk`-byte rendezvous chunks back to back: per-chunk injection setup
/// (PIO below the threshold, DMA above — the classic tradeoff the paper
/// says optimizations must be parameterized by), wire occupancy at the
/// effective bandwidth (honors Capabilities::bandwidth_hint_bytes_per_us),
/// and the inter-injection gap.
double stripe_rail_rate(const drv::Capabilities& caps, std::size_t chunk);

/// Split `total` bytes over `rails` proportionally to predicted completion
/// time: rail i receives share_i such that
///   backlog_i/rate_i + share_i/rate_i  is equal across participating rails
/// (classic water-filling; a rail whose backlog already exceeds the common
/// finish time gets 0). Shares below `min_chunk` are folded into the
/// fastest rail. Down rails always get 0. Guarantees sum(shares) == total
/// and shares.size() == rails.size(). Returns the predicted completion-time
/// imbalance in percent (spread between the earliest- and latest-finishing
/// participating rail after integer rounding; 0 when one rail carries all).
double stripe_shares(const std::vector<StripeRail>& rails,
                     std::uint64_t total, std::size_t chunk,
                     std::size_t min_chunk,
                     std::vector<std::uint64_t>& shares);

// ---- rate pricing (collective planner hook) --------------------------------
//
// The same per-chunk cost model stripe_rail_rate prices rails with, exposed
// as span predictions so schedule planners (mw::CollectivePlanner) can price
// candidate schedules and pick pipeline chunk sizes without re-deriving the
// NIC arithmetic.

/// Predicted span (ns) to push `bytes` through `caps` as back-to-back
/// `chunk`-byte units, each priced like a stripe chunk (injection setup,
/// wire occupancy at the effective bandwidth, inter-injection gap). The
/// tail unit is priced at its actual size.
Nanos chunked_span(const drv::Capabilities& caps, std::uint64_t bytes,
                   std::size_t chunk);

/// Aggregate span (ns) when `bytes` are water-filled across `rails` via
/// stripe_shares: the slowest participating rail's drain+share time. Down
/// rails receive no share; returns 0 when nothing can carry the bytes.
Nanos striped_span(const std::vector<StripeRail>& rails, std::uint64_t bytes,
                   std::size_t chunk, std::size_t min_chunk);

/// Chunk size minimizing the classic pipeline bound
///   (depth - 1 + ceil(bytes/c)) * per_chunk_time(c)
/// over power-of-two candidates in [min_chunk, bytes], where per-chunk time
/// comes from stripe_rail_rate pricing. `depth` is the number of pipeline
/// hops (tree depth or chain length); returns `bytes` (no chunking) when
/// bytes <= min_chunk or depth <= 1 leaves nothing to overlap.
std::size_t pipeline_chunk(const drv::Capabilities& caps, std::uint64_t bytes,
                           std::size_t depth, std::size_t min_chunk);

}  // namespace strategy_detail

}  // namespace mado::core
