// Topology-aware collective planner.
//
// The paper optimizes point-to-point packet schedules against a NIC cost
// model; this module applies the same idea one level up. Given the set of
// participating nodes and their per-rail Capabilities / NicModel costs, the
// planner emits an *executable schedule* — per-rank Send/Recv/RecvReduce/
// Copy steps in local program order — for barrier, bcast, reduce, allreduce
// and alltoall, choosing between binomial-tree, ring (pipelined chain),
// bucket (reduce-scatter + allgather / Bruck) and the old linear fan-out by
// pricing each candidate with a virtual-time simulation over the same
// strategy_detail::stripe_rail_rate arithmetic the stripe planner uses
// (PR 4). Large vectors are chunked so tree and chain schedules pipeline:
// the chunk size minimizes the classic (depth - 1 + ceil(bytes/chunk))
// pipeline bound via strategy_detail::pipeline_chunk.
//
// The planner is pure: no engine, no sockets, no clock. mw::Collectives
// executes its schedules over a live engine; tests validate them
// symbolically (tests/mw/test_collective_planner.cpp) and against the
// alpha-beta optimality oracle (tests/mw/collective_oracle.hpp) without
// ever touching a transport.
//
// Cross-rank ordering needs no step identifiers: steps execute strictly in
// local order and every ordered rank pair shares one FIFO channel, so the
// k-th Send a->b always pairs with the k-th Recv b<-a. A schedule is valid
// iff that matching is deadlock-free and moves the right bytes — exactly
// what the property suite proves per (algorithm, size, topology, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "drivers/capabilities.hpp"
#include "util/clock.hpp"

namespace mado::mw {

using core::RailId;

using CollRank = std::uint32_t;

enum class CollKind : std::uint8_t {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Alltoall,
};

enum class CollAlgo : std::uint8_t {
  Auto,    ///< planner picks the cheapest candidate by predicted time
  Linear,  ///< the old star fan-out (baseline; O(n) at the root)
  Tree,    ///< binomial tree (alltoall: Bruck; barrier: dissemination)
  Ring,    ///< pipelined chain (alltoall: rotation exchange)
  Bucket,  ///< reduce-scatter + allgather (bcast: scatter + ring allgather)
};

const char* to_string(CollKind k);
const char* to_string(CollAlgo a);

/// One rail of one node as the planner sees it.
struct CollRail {
  drv::Capabilities caps;
  bool up = true;
};

struct CollNode {
  std::vector<CollRail> rails;
};

/// The planner's model of the participating fabric: per-node, per-rail
/// capabilities and health. Pure data — Collectives builds one lazily from
/// a live Engine; tests and benches synthesize arbitrary ones.
struct CollTopology {
  std::vector<CollNode> nodes;

  /// n identical nodes with `rails` copies of `caps` each.
  static CollTopology uniform(CollRank n, const drv::Capabilities& caps,
                              std::size_t rails = 1);

  CollRank size() const { return static_cast<CollRank>(nodes.size()); }

  /// Rail `r` usable between `a` and `b` (exists and Up on both ends).
  bool rail_up(CollRank a, CollRank b, RailId r) const;
  /// Best usable rail a->b by predicted `chunk`-byte rate (sender side).
  /// CHECK-fails when no rail is up between the pair — the planner refuses
  /// to schedule over a dead pair rather than emit an unrunnable step.
  RailId best_rail(CollRank a, CollRank b, std::size_t chunk) const;

  /// Per-hop overhead floor for a minimal message a->b on `rail` (ns).
  Nanos alpha(CollRank a, CollRank b, RailId rail) const;
  /// Predicted sender throughput a->b on `rail` in bytes/ns for
  /// `chunk`-byte units (stripe_rail_rate pricing).
  double rate(CollRank a, CollRank b, RailId rail, std::size_t chunk) const;
};

/// One executable step. Steps run strictly in local (vector) order.
struct CollStep {
  enum class Kind : std::uint8_t {
    Send,        ///< post buf[offset, offset+len) to peer
    Recv,        ///< receive len bytes from peer into buf[offset, ...)
    RecvReduce,  ///< receive len bytes from peer, sum (doubles) into buf
    Copy,        ///< local move: src_buf[src_offset, +len) -> buf[offset,..)
  };
  /// Which logical buffer a step touches. In is the caller's read-only
  /// input (contribution / alltoall send blocks), Out the result buffer,
  /// Scratch planner-sized staging (schedule.scratch_bytes, zero-filled).
  enum class Buf : std::uint8_t { In, Out, Scratch };

  Kind kind = Kind::Copy;
  CollRank peer = 0;  // Send/Recv/RecvReduce
  RailId rail = 0;    // Send/Recv/RecvReduce
  Buf buf = Buf::Out;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  Buf src_buf = Buf::In;  // Copy only
  std::uint64_t src_offset = 0;
};

struct RankPlan {
  std::vector<CollStep> steps;
};

/// A complete schedule: one plan per rank plus the parameters it encodes.
/// Shared immutably — every rank of a job can execute the same instance.
struct CollSchedule {
  CollKind kind = CollKind::Barrier;
  CollAlgo algo = CollAlgo::Linear;  // the algorithm actually emitted
  CollRank size = 0;
  CollRank root = 0;
  /// Vector bytes (bcast/reduce/allreduce); per-(src,dst) block bytes for
  /// alltoall; 0 for barrier.
  std::uint64_t bytes = 0;
  std::size_t elem = 1;          ///< reduction element size (8 = double)
  std::size_t chunk = 0;         ///< pipeline chunk, 0 = unchunked
  std::uint64_t scratch_bytes = 0;
  Nanos predicted = 0;           ///< planner's virtual-time estimate
  std::vector<RankPlan> ranks;
};

class CollectivePlanner {
 public:
  explicit CollectivePlanner(CollTopology topo);

  const CollTopology& topology() const { return topo_; }

  /// Plan `kind` over the topology. `bytes` is the vector size in bytes
  /// (multiple of `elem` for reductions); for Alltoall it is the
  /// per-(src,dst) block size. Auto prices every applicable candidate via
  /// simulate() and keeps the cheapest. Algorithms that do not apply
  /// degrade to their nearest family (Bucket reduce -> Tree, Bucket
  /// alltoall -> Ring); schedule.algo records what was actually emitted.
  std::shared_ptr<const CollSchedule> plan(CollKind kind, std::uint64_t bytes,
                                           CollRank root = 0,
                                           CollAlgo algo = CollAlgo::Auto,
                                           std::size_t elem = 1) const;

  /// Virtual-time execution of `s` over the topology: per-rank cursors,
  /// FIFO per-pair channel matching, sends charge the sender's injection
  /// span (chunked_span) and land after the rail's propagation latency.
  /// Returns the completion time of the slowest rank. CHECK-fails if the
  /// schedule deadlocks (a planner bug by definition).
  Nanos simulate(const CollSchedule& s) const;

 private:
  CollTopology topo_;
};

}  // namespace mado::mw
