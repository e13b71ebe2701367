// Collect layer: the per-(peer, rail) transmit backlog.
//
// The application enqueues fragments here and "immediately returns to
// computing" (paper §3, Figure 1). The optimizer consumes the backlog when
// a NIC track becomes idle. While a track is busy, fragments accumulate —
// that accumulation IS the lookahead pool the optimizer exploits.
//
// Structure: one high-priority control queue (rendezvous CTS and similar
// engine-generated fragments) plus one FIFO queue per flow. Strategies may
// interleave *across* flows arbitrarily but only consume each flow's queue
// from the head, which enforces the intra-message ordering constraint.
//
// Hot-path contract: the optimizer consults the backlog on EVERY NIC
// idle→backlog transition, so lookups must be allocation-free. Instead of
// rebuilding and sorting a flow list per decision, an oldest-head-first
// flow index is maintained incrementally on push/pop: a small sorted array
// of (head order, channel) entries (cache-resident for realistic flow
// counts; O(log F) search + O(F) contiguous shift per update, no heap
// traffic once the inline/retained capacity is warm). `flow_index()`
// exposes it as a zero-allocation iteration range, `oldest_flow()` /
// `oldest_submit_time()` are O(1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/packet.hpp"
#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"
#include "util/small_vector.hpp"
#include "util/wire.hpp"

namespace mado::core {

/// Completion state shared between the engine and SendHandle.
///
/// `pending`/`failed` are atomics so send_done()/send_failed() are lock-free
/// reads from any thread: the sharded engine completes fragments under a
/// *per-peer* lock, and application threads polling a handle must not have
/// to take it. The remaining fields are written once at submit (before the
/// handle escapes to the application) and read-only afterwards.
struct SendState {
  std::atomic<std::uint32_t> pending{0};  ///< fragments not yet fully sent
  std::atomic<bool> failed{false};
  // Latency instrumentation (set at submit; read when pending hits 0 to
  // feed the lat.complete.* histograms, split by traffic class).
  Nanos submit_time = 0;
  TrafficClass cls = TrafficClass::SmallEager;
  NodeId peer = 0;  ///< destination; routes wait_send() to the peer's cv
};
using SendStateRef = std::shared_ptr<SendState>;

/// One fragment queued for transmission.
struct TxFrag {
  ChannelId channel = 0;
  MsgSeq msg_seq = 0;
  FragIdx idx = 0;
  std::uint16_t nfrags_total = 0;
  FragKind kind = FragKind::Data;
  TrafficClass cls = TrafficClass::SmallEager;
  bool last = false;

  Bytes owned;                 ///< payload when copied / engine-generated
  const Byte* ext = nullptr;   ///< payload when referenced (Later mode)
  std::size_t len = 0;

  SendStateRef state;            ///< null for engine-internal fragments

  Nanos submit_time = 0;
  std::uint64_t order = 0;  ///< global submit order (for FIFO fairness)

  const Byte* data() const { return owned.empty() ? ext : owned.data(); }

  FragHeader header() const {
    FragHeader fh;
    fh.channel = channel;
    fh.msg_seq = msg_seq;
    fh.frag_idx = idx;
    fh.nfrags_total = nfrags_total;
    fh.kind = kind;
    fh.flags = last ? kFlagLastFrag : std::uint8_t{0};
    fh.len = static_cast<std::uint32_t>(len);
    return fh;
  }
};

class TxBacklog {
 public:
  /// Inline-capacity flow scratch shared by strategies: holds the typical
  /// active-flow count without heap traffic.
  using FlowList = mado::SmallVector<ChannelId, 16>;

  /// One flow-index slot: the flow and its head fragment's submit order.
  struct IndexEntry {
    std::uint64_t order = 0;  ///< head fragment's global submit order
    ChannelId channel = 0;
  };

  /// Zero-allocation iteration over active flows, oldest head first.
  /// Invalidated by push/pop (like any container iteration).
  class FlowIndexView {
   public:
    struct iterator {
      const IndexEntry* entry = nullptr;
      ChannelId operator*() const { return entry->channel; }
      iterator& operator++() {
        ++entry;
        return *this;
      }
      bool operator!=(const iterator& o) const { return entry != o.entry; }
      bool operator==(const iterator& o) const { return entry == o.entry; }
    };
    iterator begin() const { return {first_}; }
    iterator end() const { return {last_}; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }

   private:
    friend class TxBacklog;
    const IndexEntry* first_ = nullptr;
    const IndexEntry* last_ = nullptr;
  };

  void push(TxFrag f) {
    total_bytes_ += f.len;
    ++total_frags_;
    auto& q = flows_[f.channel];
    if (q.empty()) index_insert(f.order, f.channel);
    q.push_back(std::move(f));
  }

  void push_control(TxFrag f) {
    total_bytes_ += f.len;
    ++total_frags_;
    control_.push_back(std::move(f));
  }

  bool empty() const { return total_frags_ == 0; }
  std::size_t frag_count() const { return total_frags_; }
  std::size_t byte_count() const { return total_bytes_; }

  bool has_control() const { return !control_.empty(); }
  const TxFrag& peek_control() const { return control_.front(); }
  TxFrag pop_control() {
    MADO_ASSERT(!control_.empty());
    TxFrag f = std::move(control_.front());
    control_.pop_front();
    account_pop(f);
    return f;
  }

  /// Active flows ordered by their head fragment's global submit order
  /// (oldest first) — the fair scan order for strategies. Allocation-free;
  /// invalidated by the next push/pop.
  FlowIndexView flow_index() const {
    FlowIndexView v;
    v.first_ = index_.data();
    v.last_ = index_.data() + index_.size();
    return v;
  }

  std::size_t active_flow_count() const { return index_.size(); }

  /// The flow whose head fragment is globally oldest (O(1)).
  /// Precondition: at least one data fragment is queued.
  ChannelId oldest_flow() const {
    MADO_ASSERT(!index_.empty());
    return index_.front().channel;
  }

  /// Compatibility/testing helper: materialize flow_index() into a vector.
  /// Strategies on the decision path should iterate flow_index() instead.
  std::vector<ChannelId> active_flows() const {
    std::vector<ChannelId> out;
    out.reserve(index_.size());
    for (const IndexEntry& e : index_) out.push_back(e.channel);
    return out;
  }

  std::size_t flow_depth(ChannelId ch) const {
    auto it = flows_.find(ch);
    return it == flows_.end() ? 0 : it->second.size();
  }

  const TxFrag& peek(ChannelId ch, std::size_t depth = 0) const {
    auto it = flows_.find(ch);
    MADO_ASSERT(it != flows_.end() && depth < it->second.size());
    return it->second[depth];
  }

  /// Direct read view of one flow's queue, so a strategy scanning several
  /// fragments of the same flow pays ONE hash lookup instead of one per
  /// peek. Precondition: the flow exists (i.e. `ch` came from flow_index()
  /// or flow_depth(ch) > 0). Invalidated by push/pop on that flow.
  const std::deque<TxFrag>& flow(ChannelId ch) const {
    auto it = flows_.find(ch);
    MADO_ASSERT(it != flows_.end());
    return it->second;
  }

  /// Pop the first `n` fragments of `ch` into `out` (appending, in order).
  /// Equivalent to n single pop() calls but with one hash lookup and one
  /// flow-index erase/insert pair — the fast path for strategies that
  /// consume a planned per-flow prefix.
  template <typename OutVec>
  void pop_n(ChannelId ch, std::size_t n, OutVec& out) {
    if (n == 0) return;
    auto it = flows_.find(ch);
    MADO_ASSERT(it != flows_.end() && n <= it->second.size());
    auto& q = it->second;
    const std::uint64_t head_order = q.front().order;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(q.front()));
      account_pop(out.back());
      q.pop_front();
    }
    index_erase(head_order);
    if (!q.empty()) index_insert(q.front().order, ch);
  }

  TxFrag pop(ChannelId ch) {
    auto it = flows_.find(ch);
    MADO_ASSERT(it != flows_.end() && !it->second.empty());
    TxFrag f = std::move(it->second.front());
    it->second.pop_front();
    // Drained flow entries are retained (empty) so a flow that reactivates
    // does not pay a hash-map insert; only the index entry is maintained.
    index_erase(f.order);
    if (!it->second.empty()) index_insert(it->second.front().order, ch);
    account_pop(f);
    return f;
  }

  /// Submit time of the oldest fragment (control or data); 0 if empty.
  /// Uses the flow index: requires submit_time to be non-decreasing in
  /// `order`, which the engine guarantees (both are assigned together,
  /// under the engine lock, at submit time).
  Nanos oldest_submit_time() const {
    bool found = false;
    Nanos best = 0;
    if (!control_.empty()) {
      best = control_.front().submit_time;
      found = true;
    }
    if (!index_.empty()) {
      const Nanos t = peek(index_.front().channel).submit_time;
      if (!found || t < best) best = t;
      found = true;
    }
    return found ? best : 0;
  }

  /// Cumulative count of flow-index maintenance operations (inserts +
  /// erases). The engine surfaces deltas as the `opt.flow_index_ops`
  /// counter so index cost stays observable.
  std::uint64_t flow_index_ops() const { return index_ops_; }

 private:
  void index_insert(std::uint64_t order, ChannelId ch) {
    ++index_ops_;
    auto it = std::lower_bound(
        index_.begin(), index_.end(), order,
        [](const IndexEntry& e, std::uint64_t o) { return e.order < o; });
    index_.insert(it, IndexEntry{order, ch});
  }

  void index_erase(std::uint64_t order) {
    ++index_ops_;
    auto it = std::lower_bound(
        index_.begin(), index_.end(), order,
        [](const IndexEntry& e, std::uint64_t o) { return e.order < o; });
    MADO_ASSERT(it != index_.end() && it->order == order);
    index_.erase(it);
  }

  void account_pop(const TxFrag& f) {
    MADO_ASSERT(total_frags_ > 0 && total_bytes_ >= f.len);
    total_bytes_ -= f.len;
    --total_frags_;
  }

  std::deque<TxFrag> control_;
  std::unordered_map<ChannelId, std::deque<TxFrag>> flows_;
  mado::SmallVector<IndexEntry, 16> index_;  ///< sorted by order, ascending
  std::uint64_t index_ops_ = 0;
  std::size_t total_frags_ = 0;
  std::size_t total_bytes_ = 0;
};

}  // namespace mado::core
