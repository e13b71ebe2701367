// Statistics primitives: counters, log2-bucketed histograms, Welford
// mean/variance accumulation, and a named-stats registry that the engine
// exposes so benchmarks can report aggregation ratios, transaction counts,
// latency distributions, etc.
//
// Since the engine-lock sharding, StatsRegistry is thread-safe and
// composable: each peer shard owns a registry and the engine's root registry
// aggregates them on read (counters()/histograms()/counter() sum own values
// plus all registered children). Mutation is wait-free after the first bump
// of a name: values live in std::atomic cells behind map nodes whose
// addresses are stable, so hot paths can cache a handle() /
// histogram_handle() reference and bump it without any lookup or lock at
// all.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"

namespace mado {

/// Online mean/variance (Welford). Not thread-safe (single-writer use only).
class Welford {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }
  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  /// NaN when no samples have been added — 0 would masquerade as a real
  /// observation and silently poison "min latency" style reports.
  double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0, m2_ = 0, min_ = 0, max_ = 0;
};

/// Histogram with log2 buckets: bucket i counts values in [2^i, 2^(i+1)).
/// Value 0 lands in bucket 0. Suited to latency (ns) and size distributions.
///
/// add() is thread-safe (relaxed atomics: per-bucket counts, total count and
/// sum are each independently exact; a reader racing a writer may see a sum
/// from one more/fewer sample than the count — harmless for monitoring).
/// Copying takes a relaxed snapshot, so value-semantics users keep working.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  Log2Histogram() = default;
  Log2Histogram(const Log2Histogram& o) { copy_from(o); }
  Log2Histogram& operator=(const Log2Histogram& o) {
    if (this != &o) copy_from(o);
    return *this;
  }

  void add(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Fold another histogram's (snapshot of) contents into this one; used by
  /// the registry's cross-shard aggregation.
  void merge_from(const Log2Histogram& o) {
    for (int i = 0; i < kBuckets; ++i)
      buckets_[static_cast<std::size_t>(i)].fetch_add(
          o.bucket(i), std::memory_order_relaxed);
    count_.fetch_add(o.count(), std::memory_order_relaxed);
    sum_.fetch_add(o.sum(), std::memory_order_relaxed);
  }

  static int bucket_of(std::uint64_t v) {
    if (v <= 1) return 0;
    return 63 - static_cast<int>(__builtin_clzll(v));
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0;
  }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0,1]).
  std::uint64_t quantile_upper_bound(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (target >= n) target = n - 1;  // q = 1.0 → last sample
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += bucket(i);
      if (seen > target) return i >= 63 ? ~0ull : (1ull << (i + 1)) - 1;
    }
    return ~0ull;
  }

  /// Zero all cells, keeping the object in place (registry reset()).
  void clear() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  void copy_from(const Log2Histogram& o) {
    for (int i = 0; i < kBuckets; ++i)
      buckets_[static_cast<std::size_t>(i)].store(o.bucket(i),
                                                  std::memory_order_relaxed);
    count_.store(o.count(), std::memory_order_relaxed);
    sum_.store(o.sum(), std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named counters + histograms. Thread-safe: the maps' *structure* is
/// guarded by a shared_mutex (unique only on the first bump of a new name);
/// the *values* are atomics behind stable map nodes, so concurrent inc() /
/// observe() after creation are lock-free writes under a shared lock.
///
/// Lookups are transparent (string_view keys, std::less<>): bumping an
/// existing counter performs no heap allocation. Only the FIRST bump of a
/// new name allocates (the map node + key copy). Every inc()/observe()
/// still takes the shared lock and walks the map, so hot paths cache
/// handle(name) / histogram_handle(name) — stable references that skip
/// the lookup and the lock.
///
/// Aggregation: add_child() registers shard registries (the engine's
/// per-peer stats). Readers — counter(), counters(), histogram(),
/// histograms(), to_string() — return own values plus the sum over all
/// children, so monitoring sees one engine-wide view while writers on
/// different peers never share a cacheline. counters()/histograms() return
/// snapshots BY VALUE; histogram() serves merged children data from an
/// internal cache whose node addresses are stable for the registry's
/// lifetime.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void inc(std::string_view name, std::uint64_t by = 1) {
    handle(name).fetch_add(by, std::memory_order_relaxed);
  }

  /// Stable reference to the counter cell for `name` (created on first use).
  /// Valid for the registry's lifetime; survives reset().
  std::atomic<std::uint64_t>& handle(std::string_view name) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      auto it = counters_.find(name);
      if (it != counters_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lk(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
      it = counters_
               .emplace(std::piecewise_construct,
                        std::forward_as_tuple(name), std::forward_as_tuple(0))
               .first;
    return it->second;
  }

  /// Own value plus the sum over all children.
  std::uint64_t counter(std::string_view name) const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    std::uint64_t v = 0;
    auto it = counters_.find(name);
    if (it != counters_.end()) v = it->second.load(std::memory_order_relaxed);
    for (const StatsRegistry* c : children_) v += c->counter(name);
    return v;
  }

  void observe(std::string_view name, std::uint64_t v) {
    histogram_handle(name).add(v);
  }

  /// Stable reference to the histogram for `name` (created on first use).
  /// Valid for the registry's lifetime; survives reset().
  Log2Histogram& histogram_handle(std::string_view name) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      auto it = histograms_.find(name);
      if (it != histograms_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lk(mu_);
    return histograms_[std::string(name)];
  }

  /// Histogram for `name`, aggregated across children; nullptr when no shard
  /// has observed it. The pointer stays valid for the registry's lifetime,
  /// but with children attached its *contents* are a snapshot taken at this
  /// call (refreshed on the next call).
  const Log2Histogram* histogram(std::string_view name) const;

  /// Snapshot by value, own + children.
  std::map<std::string, std::uint64_t, std::less<>> counters() const;
  std::map<std::string, Log2Histogram, std::less<>> histograms() const;

  /// Register a shard whose values aggregate into this registry's reads.
  /// The child must outlive this registry (the engine owns both). reset()
  /// cascades to children.
  void add_child(StatsRegistry* child) {
    std::unique_lock<std::shared_mutex> lk(mu_);
    children_.push_back(child);
  }

  /// Zero every value (cells stay allocated, handle() refs stay valid) and
  /// cascade to children.
  void reset() {
    std::shared_lock<std::shared_mutex> lk(mu_);
    for (auto& [name, v] : counters_) v.store(0, std::memory_order_relaxed);
    for (auto& [name, h] : histograms_) h.clear();
    for (StatsRegistry* c : children_) c->reset();
  }

  /// Render "name=value" lines, sorted by name (for logs and debugging),
  /// aggregated across children.
  std::string to_string() const;

 private:
  void accumulate_counters(
      std::map<std::string, std::uint64_t, std::less<>>& out) const;
  void accumulate_histograms(
      std::map<std::string, Log2Histogram, std::less<>>& out) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::atomic<std::uint64_t>, std::less<>> counters_;
  std::map<std::string, Log2Histogram, std::less<>> histograms_;
  std::vector<StatsRegistry*> children_;

  // histogram() needs to hand out a pointer to *merged* data when children
  // exist; merged snapshots live here so the pointer outlives the call.
  mutable std::mutex merge_mu_;
  mutable std::map<std::string, Log2Histogram, std::less<>> merge_cache_;
};

}  // namespace mado
