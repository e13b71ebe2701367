#include "core/rendezvous.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mado::core {

// ---- sender ------------------------------------------------------------------

void RdvSender::push(std::size_t rail, const Chunk& c) {
  if (policy_ == MultirailPolicy::DynamicSplit) {
    pool_.push_back(c);
    return;
  }
  rails_[rail].q.push_back(c);
  rails_[rail].bytes += c.len;
}

void RdvSender::place(std::uint64_t token, std::uint64_t total,
                      std::size_t chunk, std::size_t rail) {
  MADO_ASSERT(policy_ != MultirailPolicy::Stripe);
  for (std::uint64_t off = 0; off < total; off += chunk)
    push(rail, Chunk{token, off,
                     static_cast<std::uint32_t>(
                         std::min<std::uint64_t>(chunk, total - off)),
                     0});
}

std::size_t RdvSender::place_striped(
    std::uint64_t token, std::size_t chunk,
    const std::vector<std::uint64_t>& shares) {
  MADO_ASSERT(policy_ == MultirailPolicy::Stripe);
  std::uint64_t off = 0;
  std::uint32_t stripe = 0;
  for (std::size_t r = 0; r < shares.size(); ++r) {
    for (std::uint64_t left = shares[r]; left > 0;) {
      const auto len =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(chunk, left));
      push(r, Chunk{token, off, len, stripe++});
      off += len;
      left -= len;
    }
  }
  return stripe;
}

bool RdvSender::pop(std::size_t rail, Chunk& out, std::size_t& victim) {
  victim = kNoRail;
  Fifo& own = rails_[rail];
  if (!own.q.empty()) {
    out = own.q.front();
    own.q.pop_front();
    own.bytes -= out.len;
    return true;
  }
  if (!pool_.empty()) {
    out = pool_.front();
    pool_.pop_front();
    return true;
  }
  if (policy_ != MultirailPolicy::Stripe || !steal_) return false;
  // Work stealing, the paper's "NIC becomes idle" trigger across rails:
  // rob the tail of the most-loaded live FIFO, whose head keeps streaming.
  std::size_t from = kNoRail;
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    const Fifo& f = rails_[r];
    if (r == rail || f.dead || f.q.empty()) continue;
    if (from == kNoRail || f.bytes > rails_[from].bytes) from = r;
  }
  if (from == kNoRail) return false;
  Fifo& v = rails_[from];
  out = v.q.back();
  v.q.pop_back();
  v.bytes -= out.len;
  victim = from;
  return true;
}

std::size_t RdvSender::fail_rail(std::size_t dead, std::size_t survivor,
                                 const std::vector<Chunk>& unacked) {
  Fifo& f = rails_[dead];
  f.dead = true;
  std::deque<Chunk> queued = std::move(f.q);
  f.q.clear();
  f.bytes = 0;
  if (survivor == kNoRail) {
    pool_.clear();
    return 0;
  }
  for (const Chunk& c : unacked) push(survivor, c);
  for (const Chunk& c : queued) push(survivor, c);
  return unacked.size() + queued.size();
}

std::size_t RdvSender::chunks() const {
  std::size_t n = pool_.size();
  for (const Fifo& f : rails_) n += f.q.size();
  return n;
}

// ---- receiver ----------------------------------------------------------------

void RdvReceiver::finish(std::uint64_t token) {
  if (!replays_ || !done_.insert(token)) return;
  fifo_.push_back(token);
  for (; fifo_.size() > window_; fifo_.pop_front()) {
    done_.erase(fifo_.front());
    if (stats_) stats_->inc(Ctr::CapRdvDoneEvictions);
  }
}

bool RdvReceiver::serve(std::uint64_t token) {
  if (finished(token)) return false;
  finish(token);
  return true;
}

RdvReceiver::Chunk RdvReceiver::land(Landing& l, std::uint64_t offset,
                                     std::uint32_t len) {
  if (replays_ && !l.offsets.insert(offset)) return Chunk::Replay;
  l.received += len;
  MADO_ASSERT(l.received <= l.len);
  if (offset > l.next_contig) return Chunk::OutOfOrder;
  l.next_contig = std::max(l.next_contig, offset + len);
  return Chunk::InOrder;
}

}  // namespace mado::core
