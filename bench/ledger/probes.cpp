#include "probes.hpp"

#include <bit>
#include <cstdio>

#include "core/strategy.hpp"

namespace ledger {

// ---- LatHist ------------------------------------------------------------------

std::size_t LatHist::index(Nanos v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
  if (e > kMaxExp) {
    e = kMaxExp;
    v = (Nanos{1} << (kMaxExp + 1)) - 1;
  }
  const unsigned shift = e - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(v >> shift) - kSub;
  return kSub + (e - kSubBits) * kSub + sub;
}

void LatHist::merge(const LatHist& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) n_[i] += o.n_[i];
  count_ += o.count_;
  sum_ += o.sum_;
}

double LatHist::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (n_[i] == 0) continue;
    const double n = static_cast<double>(n_[i]);
    if (cum + n >= rank) {
      double lo = static_cast<double>(i), width = 1;
      if (i >= kSub) {
        const std::size_t j = i - kSub;
        const unsigned shift = static_cast<unsigned>(j / kSub);
        lo = static_cast<double>((kSub + j % kSub) << shift);
        width = static_cast<double>(Nanos{1} << shift);
      }
      return lo + width * (rank - cum) / n;
    }
    cum += n;
  }
  return 0;  // unreachable: rank <= count_
}

// ---- names --------------------------------------------------------------------

namespace {

const char* span_name(Span s) {
  switch (s) {
    case Span::Post: return "collect.post";
    case Span::Recv: return "receive.call";
    case Span::Decide: return "optimize.decide";
    case Span::Send: return "transfer.send";
    case Span::Poll: return "transfer.poll";
    case Span::Callback: return "receive.callback";
  }
  return "?";
}

const char* interval_name(Interval k) {
  switch (k) {
    case Interval::RecvWait: return "receive.wait";
    case Interval::SendToComplete: return "transfer.send_to_complete";
  }
  return "?";
}

}  // namespace

// ---- Probes -------------------------------------------------------------------

struct Probes::ThreadLog {
  struct Frame {
    Span kind;
    Nanos start;
    Nanos child_ns;
    bool has_child;
    std::int64_t rec;  ///< index in recs, or -1 when not kept for the trace
  };
  struct Rec {
    Span kind;
    Nanos start, end;
    std::int64_t parent;
    std::uint64_t msg;
  };
  struct IvRec {
    Interval kind;
    Nanos start, end;
    std::uint64_t msg;
  };

  LayerTotals t;
  std::vector<Frame> stack;
  std::vector<Rec> recs;
  std::vector<IvRec> ivs;
};

Probes::Probes() : origin_(now_ns()) {}

Probes::~Probes() = default;

Probes::ThreadLog& Probes::log() {
  // A process has one Probes (see run()), so one cached log per thread.
  thread_local ThreadLog* cached = nullptr;
  if (!cached) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->stack.reserve(16);
    fresh->recs.reserve(kTraceCap);
    fresh->ivs.reserve(kTraceCap);
    cached = fresh.get();
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(std::move(fresh));
  }
  return *cached;
}

void Probes::begin(Span s, std::uint64_t msg) {
  ThreadLog& l = log();
  const Nanos t = now_ns();
  std::int64_t rec = -1;
  if (on_.load(std::memory_order_acquire) && l.recs.size() < kTraceCap) {
    const std::int64_t parent = l.stack.empty() ? -1 : l.stack.back().rec;
    rec = static_cast<std::int64_t>(l.recs.size());
    l.recs.push_back({s, t, 0, parent, msg});
  }
  l.stack.push_back({s, t, 0, false, rec});
}

void Probes::end() {
  const Nanos t = now_ns();
  ThreadLog& l = log();
  const ThreadLog::Frame f = l.stack.back();
  l.stack.pop_back();
  const Nanos dur = t - f.start;
  if (!l.stack.empty()) {
    l.stack.back().child_ns += dur;
    l.stack.back().has_child = true;
  }
  if (f.rec >= 0) {
    // An empty poll is the progress loop spinning; keep it out of the trace
    // (it is still counted below) so the buffer holds the spans that work.
    if (f.kind == Span::Poll && !f.has_child &&
        f.rec + 1 == static_cast<std::int64_t>(l.recs.size()))
      l.recs.pop_back();
    else
      l.recs[static_cast<std::size_t>(f.rec)].end = t;
  }
  if (!on_.load(std::memory_order_acquire)) return;
  const auto k = static_cast<std::size_t>(f.kind);
  l.t.dur[k].add(dur);
  l.t.self_ns[k] += dur - f.child_ns;
  if (!f.has_child) ++l.t.leaves[k];
}

void Probes::interval(Interval k, Nanos start, Nanos end, std::uint64_t msg) {
  if (!on_.load(std::memory_order_acquire)) return;
  ThreadLog& l = log();
  l.t.interval[static_cast<std::size_t>(k)].add(end - start);
  if (l.ivs.size() < kTraceCap) l.ivs.push_back({k, start, end, msg});
}

LayerTotals Probes::totals() const {
  LayerTotals out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& l : logs_) {
    for (std::size_t i = 0; i < kSpans; ++i) {
      out.dur[i].merge(l->t.dur[i]);
      out.self_ns[i] += l->t.self_ns[i];
      out.leaves[i] += l->t.leaves[i];
    }
    for (std::size_t i = 0; i < kIntervals; ++i)
      out.interval[i].merge(l->t.interval[i]);
  }
  return out;
}

bool Probes::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const auto us = [this](Nanos t) {
    return static_cast<double>(t - origin_) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  std::uint64_t async_id = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t tid = 0; tid < logs_.size(); ++tid) {
    const ThreadLog& l = *logs_[tid];
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"thread %zu\"}}",
                 tid + 1, tid + 1);
    for (const auto& r : l.recs) {
      if (r.end == 0) continue;  // still open when the run ended
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"msg\":%llu,"
                   "\"parent\":%lld}}",
                   span_name(r.kind), tid + 1, us(r.start),
                   static_cast<double>(r.end - r.start) / 1e3,
                   static_cast<unsigned long long>(r.msg),
                   static_cast<long long>(r.parent));
    }
    for (const auto& iv : l.ivs) {
      ++async_id;
      for (const char* ph : {"b", "e"}) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"interval\",\"ph\":\"%s\","
                     "\"id\":%llu,\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                     "\"args\":{\"msg\":%llu}}",
                     interval_name(iv.kind), ph,
                     static_cast<unsigned long long>(async_id), tid + 1,
                     us(ph[0] == 'b' ? iv.start : iv.end),
                     static_cast<unsigned long long>(iv.msg));
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---- TimedEndpoint --------------------------------------------------------------

void TimedEndpoint::send(mado::drv::TrackId track, const mado::GatherList& gl,
                         std::uint64_t token) {
  SpanScope s(&probes_, Span::Send, token);
  {
    // Stamped before the send: another thread may progress the endpoint
    // and see the completion before send() returns here.
    std::lock_guard<std::mutex> lk(mu_);
    sent_at_[token] = now_ns();
  }
  inner_->send(track, gl, token);
}

void TimedEndpoint::on_send_complete(mado::drv::TrackId track,
                                     std::uint64_t token) {
  SpanScope s(&probes_, Span::Callback, token);
  Nanos sent = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sent_at_.find(token);
    if (it != sent_at_.end()) {
      sent = it->second;
      sent_at_.erase(it);
    }
  }
  if (sent != 0)
    probes_.interval(Interval::SendToComplete, sent, now_ns(), token);
  outer_->on_send_complete(track, token);
}

// ---- wrapper strategy ------------------------------------------------------------

namespace {
class TimedStrategy final : public mado::core::Strategy {
 public:
  explicit TimedStrategy(Probes& probes)
      : probes_(probes),
        inner_(mado::core::StrategyRegistry::instance().create("aggreg")) {}
  std::string name() const override { return kTimedStrategy; }
  mado::core::PacketDecision next_packet(
      mado::core::TxBacklog& backlog,
      const mado::core::StrategyEnv& env) override {
    SpanScope s(&probes_, Span::Decide);
    return inner_->next_packet(backlog, env);
  }

 private:
  Probes& probes_;
  std::unique_ptr<mado::core::Strategy> inner_;
};
}  // namespace

void register_timed_strategy(Probes& probes) {
  mado::core::StrategyRegistry::instance().register_strategy(
      kTimedStrategy, [&probes] { return std::make_unique<TimedStrategy>(probes); });
}

}  // namespace ledger
