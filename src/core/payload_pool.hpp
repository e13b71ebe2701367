// Payload slab: a free list of byte buffers for small-eager payload copies,
// engine-generated control bodies, and packet header blocks.
//
// Every eager submit in Safe/Cheaper-copy mode used to heap-allocate a
// fresh Bytes for the payload copy, and every packet allocated a header
// block — both freed when the packet completed. Under steady-state traffic
// the engine cycles through similarly-sized buffers, so those allocations
// are pure churn on the submit/decision path. The slab retains completed
// buffers (depth- and capacity-capped) and hands them back to the next
// taker: steady state performs zero heap allocations for payload copies or
// header blocks.
//
// Counters (when an EngineStats is attached):
//   opt.slab_hits    — takes satisfied from the free list
//   opt.slab_misses  — takes that had to allocate a fresh buffer
//   opt.alloc_bytes  — bytes heap-reserved by takes (misses + regrows)
//
// Not thread-safe by design: owned by one engine, used under its lock.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/counters.hpp"
#include "util/wire.hpp"

namespace mado::core {

class PayloadSlab {
 public:
  struct Limits {
    std::size_t max_buffers;   ///< free-list depth
    std::size_t max_capacity;  ///< larger buffers are not retained
  };
  static constexpr Limits kDefaultLimits{64, 64 * 1024};

  explicit PayloadSlab(EngineStats* stats = nullptr,
                       Limits limits = kDefaultLimits)
      : stats_(stats), limits_(limits) {
    free_.reserve(limits_.max_buffers);
  }

  /// An empty buffer with capacity >= `reserve_hint`. Reuses a retained
  /// buffer when possible; otherwise allocates and accounts the bytes
  /// under opt.alloc_bytes.
  Bytes take(std::size_t reserve_hint) {
    if (!free_.empty()) {
      Bytes b = std::move(free_.back());
      free_.pop_back();
      if (stats_) stats_->inc(Ctr::OptSlabHits);
      if (b.capacity() < reserve_hint) {
        if (stats_) stats_->inc(Ctr::OptAllocBytes, reserve_hint);
        b.reserve(reserve_hint);
      }
      return b;
    }
    if (stats_) {
      stats_->inc(Ctr::OptSlabMisses);
      stats_->inc(Ctr::OptAllocBytes, reserve_hint);
    }
    Bytes b;
    b.reserve(reserve_hint);
    return b;
  }

  /// Return a completed buffer for reuse. Empty buffers are ignored;
  /// buffers above the capacity cap and overflow beyond the depth cap are
  /// freed immediately (retaining them would pin memory) and counted as
  /// cap.slab_sheds — the budget enforcement working as intended, but a
  /// high rate means the limits are too tight for the workload.
  void recycle(Bytes&& b) {
    if (b.capacity() == 0) return;
    if (b.capacity() > limits_.max_capacity ||
        free_.size() >= limits_.max_buffers) {
      if (stats_) stats_->inc(Ctr::CapSlabSheds);
      Bytes{}.swap(b);  // release now
      return;
    }
    b.clear();
    free_.push_back(std::move(b));
  }

  std::size_t retained() const { return free_.size(); }
  const Limits& limits() const { return limits_; }

 private:
  EngineStats* stats_ = nullptr;
  Limits limits_;
  std::vector<Bytes> free_;
};

}  // namespace mado::core
