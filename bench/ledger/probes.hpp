// Outside-in instrumentation for the ledger benchmark. Nothing here touches
// the library: layers are timed around the calls the harness makes into
// them (post, receive), through a decorator around each driver endpoint
// (send, progress, handler callbacks) and through a wrapper strategy that
// delegates to "aggreg" (packet decisions).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "drivers/driver.hpp"
#include "util/clock.hpp"

namespace ledger {

using mado::Nanos;

inline Nanos now_ns() {
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram of nanosecond values: 128 linear sub-buckets per
/// power of two (bucket width under 0.8%), fixed memory, so recording never
/// allocates and the harness's own footprint does not grow with
/// throughput. Quantiles interpolate linearly inside their bucket.
class LatHist {
 public:
  void add(Nanos v) {
    ++n_[index(v)];
    ++count_;
    sum_ += static_cast<double>(v);
  }
  void merge(const LatHist& o);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Value at quantile q in (0, 1), in ns; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 40;  // larger values clamp (~36 min)
  static constexpr std::size_t kBuckets =
      kSub + (kMaxExp - kSubBits + 1) * kSub;
  static std::size_t index(Nanos v);

  std::array<std::uint64_t, kBuckets> n_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Stack spans: properly nested calls on one thread.
enum class Span : std::uint8_t { Post, Recv, Decide, Send, Poll, Callback };
constexpr std::size_t kSpans = 6;
/// Intervals that cross calls or threads (begin_recv → finish, driver
/// send → its completion callback).
enum class Interval : std::uint8_t { RecvWait, SendToComplete };
constexpr std::size_t kIntervals = 2;

/// Per-layer totals merged over every thread.
struct LayerTotals {
  std::array<LatHist, kSpans> dur;
  std::array<LatHist, kIntervals> interval;
  std::array<Nanos, kSpans> self_ns{};  ///< span time minus child spans
  std::array<std::uint64_t, kSpans> leaves{};  ///< spans with no child
};

/// Span recorder. Each thread writes only its own log, found through a
/// thread-local cache, so recording takes no lock after a thread's first
/// span. Totals are exact; the Chrome-trace buffer keeps the first
/// kTraceCap spans per thread. Construct at most one per process.
class Probes {
 public:
  static constexpr std::size_t kTraceCap = 2048;

  Probes();
  ~Probes();
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  void begin(Span s, std::uint64_t msg);
  void end();
  void interval(Interval k, Nanos start, Nanos end, std::uint64_t msg);

  /// Only spans that end while recording is on count (warm-up is skipped).
  void set_recording(bool on) { on_.store(on, std::memory_order_release); }

  /// Call only once every recording thread has been joined.
  LayerTotals totals() const;
  /// Chrome-trace JSON (Perfetto opens it); false if the file can't be
  /// written.
  bool write_chrome(const std::string& path) const;

 private:
  struct ThreadLog;
  ThreadLog& log();

  const Nanos origin_;
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

/// RAII span; a null recorder makes it a no-op (the untraced runs).
class SpanScope {
 public:
  SpanScope(Probes* p, Span s, std::uint64_t msg = 0) : p_(p) {
    if (p_) p_->begin(s, msg);
  }
  ~SpanScope() {
    if (p_) p_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Probes* p_;
};

/// Driver decorator: times send() and progress(), matches each send to its
/// completion by token, and times the handler callbacks it forwards.
class TimedEndpoint final : public mado::drv::DriverEndpoint,
                            private mado::drv::EndpointHandler {
 public:
  TimedEndpoint(std::unique_ptr<mado::drv::DriverEndpoint> inner,
                Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  const mado::drv::Capabilities& caps() const override {
    return inner_->caps();
  }
  void set_handler(mado::drv::EndpointHandler* handler) override {
    outer_ = handler;
    inner_->set_handler(this);
  }
  void send(mado::drv::TrackId track, const mado::GatherList& gl,
            std::uint64_t token) override;
  void progress() override {
    SpanScope s(&probes_, Span::Poll);
    inner_->progress();
  }
  void close() override { inner_->close(); }
  bool link_up() const override { return inner_->link_up(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  void on_send_complete(mado::drv::TrackId track,
                        std::uint64_t token) override;
  void on_packet(mado::drv::TrackId track, mado::Bytes payload) override {
    SpanScope s(&probes_, Span::Callback);
    outer_->on_packet(track, std::move(payload));
  }
  void on_send_failed(mado::drv::TrackId track,
                      std::uint64_t token) override {
    outer_->on_send_failed(track, token);
  }
  void on_link_down() override { outer_->on_link_down(); }

  std::unique_ptr<mado::drv::DriverEndpoint> inner_;
  Probes& probes_;
  mado::drv::EndpointHandler* outer_ = nullptr;
  // send() runs under the engine's peer lock while completions arrive from
  // whichever thread progresses the endpoint, so the map has its own lock.
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Nanos> sent_at_;  // guarded by mu_
};

/// Strategy name under which register_timed_strategy() installs the
/// wrapper around "aggreg".
inline constexpr const char* kTimedStrategy = "ledger_timed";

/// Register the wrapper strategy; `probes` must outlive every engine
/// created with it.
void register_timed_strategy(Probes& probes);

}  // namespace ledger
