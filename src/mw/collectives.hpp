// Collective operations over the engine: barrier, broadcast, reduce /
// allreduce (sum of doubles) and alltoall — the regular SPMD communication
// patterns an MPI-like middleware layers on top of Madeleine (paper §2).
//
// With the collective planner these are no longer hard-coded linear fan-outs:
// every operation asks the topology-aware CollectivePlanner for a schedule
// (binomial tree / pipelined ring / bucket / linear, chosen per size and
// node count against the NicModel cost model) and executes the local rank's
// steps over the engine. The planner is pure, so the same schedules the
// engine executes are the ones the property suite and the alpha-beta
// optimality oracle validate offline.
//
// Every operation is a NON-BLOCKING state machine: step() makes progress
// when it can (posting sends immediately; consuming a receive only once
// probe() shows the peer's message has arrived) and returns whether any
// progress was made. This lets all ranks be driven cooperatively from one
// thread in the simulated world — see drive_all() — while threaded
// (socket/UDP-world) applications simply loop step() per rank thread.
//
// Connectivity: the underlying engines need a rail between every pair of
// ranks that exchange messages (fully connecting the SimWorld is the easy
// default). Each ordered pair lazily opens one dedicated channel; steps
// are disambiguated purely by channel FIFO order, so no tags are needed.
// All ranks must derive identical schedules: either every rank sees the
// same engine-local topology (uniform worlds — the default), or the
// application installs one consistent CollTopology on every rank via
// set_topology().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/api.hpp"
#include "core/engine.hpp"
#include "mw/collective_planner.hpp"

namespace mado::mw {

class Collectives {
 public:
  using Rank = CollRank;

  /// `rank_to_node` maps collective ranks to engine NodeIds; identity is
  /// the common case (rank i == node i).
  Collectives(core::Engine& engine, Rank rank, Rank size,
              core::ChannelId channel = 0x7c00,
              std::function<core::NodeId(Rank)> rank_to_node = {});

  class Op {
   public:
    virtual ~Op() = default;
    /// Advance as far as possible without blocking. Returns true if any
    /// progress was made (actions executed).
    virtual bool step() = 0;
    virtual bool done() const = 0;
  };

  /// Barrier (planner default: dissemination, ceil(log2 size) rounds).
  std::unique_ptr<Op> barrier();

  /// Broadcast of `len` bytes from `root`. Non-root buffers are
  /// overwritten; all buffers must stay valid until done().
  std::unique_ptr<Op> bcast(void* buf, std::size_t len, Rank root);

  /// Sum-reduction of `n` doubles into `out` at `root` (out may alias in;
  /// on non-roots out is scratch and may be null for leaf ranks).
  std::unique_ptr<Op> reduce_sum(const double* in, double* out,
                                 std::size_t n, Rank root);

  /// Every rank ends with the global sum in `out`.
  std::unique_ptr<Op> allreduce_sum(const double* in, double* out,
                                    std::size_t n);

  /// Personalized exchange: `send` and `recv` are size*block bytes; rank r
  /// ends with recv[s*block ... ] = sender s's send[r*block ...].
  std::unique_ptr<Op> alltoall(const void* send, void* recv,
                               std::size_t block);

  /// Execute an externally planned schedule for this rank. `in`/`out`
  /// follow the schedule kind's buffer convention (see CollStep::Buf).
  /// Benches plan once and share the instance across all ranks.
  std::unique_ptr<Op> run_schedule(std::shared_ptr<const CollSchedule> s,
                                   const void* in, void* out);

  /// Force one algorithm family for subsequent operations (default Auto:
  /// cheapest by the planner's virtual-time pricing). Clears the plan
  /// cache.
  void set_algorithm(CollAlgo algo);

  /// Replace the planner topology (default: derived lazily from this
  /// rank's engine — uniform rails toward the first peer). Must be called
  /// with an identical topology on every rank. Clears the plan cache.
  void set_topology(CollTopology topo);

  /// The planner (building the engine-derived topology on first use).
  const CollectivePlanner& planner();

  /// Schedule behind the most recently created operation (null before the
  /// first one) — benches and tests inspect algo/chunk/predicted.
  std::shared_ptr<const CollSchedule> last_schedule() const { return last_; }

  Rank rank() const { return rank_; }
  Rank size() const { return size_; }

  /// The lazily opened point-to-point channel toward `peer` (exposed for
  /// custom collective algorithms built on the same pairwise channels).
  core::Channel& channel_to(Rank peer);

  core::Engine& engine() { return engine_; }

 private:
  std::shared_ptr<const CollSchedule> plan_cached(CollKind kind,
                                                  std::uint64_t bytes,
                                                  Rank root,
                                                  std::size_t elem);
  void ensure_planner();

  core::Engine& engine_;
  Rank rank_;
  Rank size_;
  core::ChannelId channel_id_;
  std::function<core::NodeId(Rank)> rank_to_node_;
  std::map<Rank, core::Channel> channels_;

  CollAlgo algo_ = CollAlgo::Auto;
  std::unique_ptr<CollectivePlanner> planner_;
  std::shared_ptr<const CollSchedule> last_;
  std::map<std::tuple<int, int, std::uint64_t, Rank>,
           std::shared_ptr<const CollSchedule>>
      plan_cache_;
};

/// Drive several ranks' operations to completion cooperatively: alternates
/// op steps with `progress` (e.g. [&]{ return fabric.step(); }). Returns
/// false if nothing can make progress anymore (deadlock / drained world).
bool drive_all(const std::function<bool()>& progress,
               const std::vector<Collectives::Op*>& ops);

}  // namespace mado::mw
