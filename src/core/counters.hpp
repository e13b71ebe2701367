// The engine's fixed counter and histogram names, listed once, and the
// cell cache that bumps them without a name lookup.
//
// Every name the engine core bumps is one row below, and docs/counters.md
// describes each (the CounterTable tests check both). A bump indexes an
// array of cell pointers by enum. The first bump of a name on a registry
// resolves its pointer with StatsRegistry::handle() — one map lookup under
// the registry's lock — and caches it; every later bump is one acquire
// load and one relaxed add. Cells are still created lazily, so a name that
// is never bumped never appears in a snapshot, and building a registry
// costs nothing per name. Names built at run time (prog.t<i>.*) and the
// middleware's coll.* counters keep the string API.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/types.hpp"
#include "util/stats.hpp"

namespace mado::core {

#define MADO_ENGINE_COUNTERS(X)                         \
  X(TxMsgs, "tx.msgs")                                  \
  X(TxFragsSubmitted, "tx.frags_submitted")             \
  X(TxPackets, "tx.packets")                            \
  X(TxFrags, "tx.frags")                                \
  X(TxBytes, "tx.bytes")                                \
  X(TxBulkChunks, "tx.bulk_chunks")                     \
  X(TxRdvRts, "tx.rdv_rts")                             \
  X(TxRdvCts, "tx.rdv_cts")                             \
  X(TxRdvCompleted, "tx.rdv_completed")                 \
  X(TxMsgsCompleted, "tx.msgs_completed")               \
  X(TxRmaAcks, "tx.rma_acks")                           \
  X(RxPackets, "rx.packets")                            \
  X(RxFrags, "rx.frags")                                \
  X(RxBytes, "rx.bytes")                                \
  X(RxUnexpectedFrags, "rx.unexpected_frags")           \
  X(RxMsgsCompleted, "rx.msgs_completed")               \
  X(RxRdvRts, "rx.rdv_rts")                             \
  X(RxRdvCts, "rx.rdv_cts")                             \
  X(RxBulkChunks, "rx.bulk_chunks")                     \
  X(RxRdvCompleted, "rx.rdv_completed")                 \
  X(RxMalformed, "rx.malformed")                        \
  X(RxRmaPuts, "rx.rma_puts")                           \
  X(RxRmaPutRts, "rx.rma_put_rts")                      \
  X(RxRmaPutsCompleted, "rx.rma_puts_completed")        \
  X(RxRmaGets, "rx.rma_gets")                           \
  X(OptDecisions, "opt.decisions")                      \
  X(OptAggregatedPackets, "opt.aggregated_packets")     \
  X(OptEvals, "opt.evals")                              \
  X(OptNagleWaits, "opt.nagle_waits")                   \
  X(OptAdaptiveHolds, "opt.adaptive_holds")             \
  X(OptFlowIndexOps, "opt.flow_index_ops")              \
  X(OptSlabHits, "opt.slab_hits")                       \
  X(OptSlabMisses, "opt.slab_misses")                   \
  X(OptAllocBytes, "opt.alloc_bytes")                   \
  X(OptLockAcquisitions, "opt.lock_acquisitions")       \
  X(OptLockWaitNs, "opt.lock_wait_ns")                  \
  X(SchedRebalances, "sched.rebalances")                \
  X(SubmitRingOps, "submit.ring_ops")                   \
  X(SubmitRingFull, "submit.ring_full")                 \
  X(ProgShardLaps, "prog.shard_laps")                   \
  X(ProgSteals, "prog.steals")                          \
  X(ProgWakeups, "prog.wakeups")                        \
  X(ProgIdleSleeps, "prog.idle_sleeps")                 \
  X(ProgSelfPumps, "prog.self_pumps")                   \
  X(TimerArms, "timer.arms")                            \
  X(TimerCancelled, "timer.cancelled")                  \
  X(TimerStaleFires, "timer.stale_fires")               \
  X(CapTableGrowths, "cap.table_growths")               \
  X(CapTableShrinks, "cap.table_shrinks")               \
  X(CapSlabSheds, "cap.slab_sheds")                     \
  X(CapRdvDoneEvictions, "cap.rdv_done_evictions")      \
  X(RelRetransmits, "rel.retransmits")                  \
  X(RelRtoBackoffs, "rel.rto_backoffs")                 \
  X(RelDupDrops, "rel.dup_drops")                       \
  X(RelOooDrops, "rel.ooo_drops")                       \
  X(RelPayloadCrcDrops, "rel.payload_crc_drops")        \
  X(RelAcksTx, "rel.acks_tx")                           \
  X(RelAcksRx, "rel.acks_rx")                           \
  X(RelRailFailovers, "rel.rail_failovers")             \
  X(RelReplayedFrags, "rel.replayed_frags")             \
  X(RelReplayedChunks, "rel.replayed_chunks")           \
  X(RelFailedSends, "rel.failed_sends")                 \
  X(StripeTransfers, "stripe.transfers")                \
  X(StripeChunks, "stripe.chunks")                      \
  X(StripeSteals, "stripe.steals")                      \
  X(StripeStealBytes, "stripe.steal_bytes")             \
  X(StripeReassemblyOoo, "stripe.reassembly_ooo")       \
  X(RmaPuts, "rma.puts")                                \
  X(RmaGets, "rma.gets")                                \
  X(RmaPutsCompleted, "rma.puts_completed")             \
  X(RmaGetsCompleted, "rma.gets_completed")

// The lat.hold.* and lat.complete.* rows follow TrafficClass order.
#define MADO_ENGINE_HISTOGRAMS(X)                       \
  X(TxPktFrags, "tx.pkt_frags")                         \
  X(TxPktBytes, "tx.pkt_bytes")                         \
  X(LatHoldControl, "lat.hold.control")                 \
  X(LatHoldSmallEager, "lat.hold.small_eager")          \
  X(LatHoldBulk, "lat.hold.bulk")                       \
  X(LatHoldPutGet, "lat.hold.putget")                   \
  X(LatCompleteControl, "lat.complete.control")         \
  X(LatCompleteSmallEager, "lat.complete.small_eager")  \
  X(LatCompleteBulk, "lat.complete.bulk")               \
  X(LatCompletePutGet, "lat.complete.putget")           \
  X(LatRdvHandshake, "lat.rdv_handshake")               \
  X(LatRdvComplete, "lat.rdv_complete")                 \
  X(StripeImbalancePct, "stripe.imbalance_pct")

#define MADO_STATS_ID(id, name) id,
#define MADO_STATS_NAME(id, name) name,

enum class Ctr : std::uint8_t { MADO_ENGINE_COUNTERS(MADO_STATS_ID) kCount };
enum class Hist : std::uint8_t { MADO_ENGINE_HISTOGRAMS(MADO_STATS_ID) kCount };

inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(Ctr::kCount)>
    kCounterNames = {MADO_ENGINE_COUNTERS(MADO_STATS_NAME)};
inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(Hist::kCount)>
    kHistogramNames = {MADO_ENGINE_HISTOGRAMS(MADO_STATS_NAME)};

#undef MADO_STATS_ID
#undef MADO_STATS_NAME

/// Per-class latency families: submit → first transmit, submit → complete.
inline Hist lat_hold(TrafficClass c) {
  return static_cast<Hist>(static_cast<std::size_t>(Hist::LatHoldControl) +
                           static_cast<std::size_t>(c));
}
inline Hist lat_complete(TrafficClass c) {
  return static_cast<Hist>(
      static_cast<std::size_t>(Hist::LatCompleteControl) +
      static_cast<std::size_t>(c));
}

/// Lookup-free bumps of the table above into one registry. Thread-safe:
/// threads racing on a name's first bump resolve the same stable cell.
class EngineStats {
 public:
  explicit EngineStats(StatsRegistry& registry) : registry_(registry) {}
  EngineStats(const EngineStats&) = delete;
  EngineStats& operator=(const EngineStats&) = delete;

  void inc(Ctr c, std::uint64_t by = 1) {
    auto& slot = counters_[static_cast<std::size_t>(c)];
    std::atomic<std::uint64_t>* cell = slot.load(std::memory_order_acquire);
    if (cell == nullptr) [[unlikely]] {
      cell = &registry_.handle(kCounterNames[static_cast<std::size_t>(c)]);
      slot.store(cell, std::memory_order_release);
    }
    cell->fetch_add(by, std::memory_order_relaxed);
  }

  void observe(Hist h, std::uint64_t v) {
    auto& slot = histograms_[static_cast<std::size_t>(h)];
    Log2Histogram* hist = slot.load(std::memory_order_acquire);
    if (hist == nullptr) [[unlikely]] {
      hist = &registry_.histogram_handle(
          kHistogramNames[static_cast<std::size_t>(h)]);
      slot.store(hist, std::memory_order_release);
    }
    hist->add(v);
  }

 private:
  StatsRegistry& registry_;
  std::array<std::atomic<std::atomic<std::uint64_t>*>, kCounterNames.size()>
      counters_{};
  std::array<std::atomic<Log2Histogram*>, kHistogramNames.size()>
      histograms_{};
};

}  // namespace mado::core
