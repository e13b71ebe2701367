#include "core/receive.hpp"

#include <algorithm>
#include <ranges>
#include <utility>

#include "util/assert.hpp"

namespace mado::core {

std::size_t RxChannel::lower_bound(MsgSeq seq) const {
  return *std::ranges::partition_point(
      std::views::iota(std::size_t{0}, size_),
      [&](std::size_t i) { return at(i).seq < seq; });
}

std::size_t RxChannel::find_open(MsgSeq seq) const {
  const std::size_t i = lower_bound(seq);
  return i < size_ && at(i).seq == seq && !at(i).finished ? i : size_;
}

RxChannel::Entry& RxChannel::open(MsgSeq seq) {
  MADO_ASSERT(seq >= floor_);
  const std::size_t i = lower_bound(seq);
  if (i < size_ && at(i).seq == seq) return at(i);
  if (size_ == ring_.size()) {
    std::vector<Entry> ring(std::max<std::size_t>(2, ring_.size() * 2));
    for (std::size_t k = 0; k < size_; ++k) ring[k] = std::move(at(k));
    ring_.swap(ring);
    head_ = 0;
  }
  // Shift the later entries up by one: none when the message is the newest.
  for (std::size_t k = size_++; k > i; --k) at(k) = std::move(at(k - 1));
  return at(i) = Entry{seq, 0, 0, false, {}};
}

RxChannel::Frag RxChannel::arrive(MsgSeq seq, FragIdx idx,
                                  std::uint16_t nfrags, std::uint64_t len,
                                  bool rdv) {
  MADO_CHECK_MSG(nfrags > 0, "fragment with zero message size");
  MADO_CHECK_MSG(idx < nfrags, "fragment index out of range");
  if (seq < floor_) return Frag::Finished;
  if (const std::size_t i = lower_bound(seq); i < size_ && at(i).seq == seq) {
    const Entry& e = at(i);
    if (e.finished) return Frag::Finished;
    MADO_CHECK_MSG(e.nfrags == 0 || e.nfrags == nfrags,
                   "inconsistent message fragment count");
    if (idx < e.slots.size()) {
      const Slot& s = e.slots[idx];
      if (s.arrived) return Frag::Duplicate;
      MADO_CHECK_MSG(!s.posted || s.len == len,
                     "unpack size " << s.len << " != fragment size " << len);
    }
  }
  Entry& e = open(seq);
  e.nfrags = nfrags;
  if (e.slots.size() <= idx) e.slots.resize(idx + std::size_t{1});
  Slot& s = e.slots[idx];
  s.arrived = true;
  s.rdv = rdv;
  s.len = len;
  return Frag::Fill;
}

RxChannel::Slot& RxChannel::post(MsgSeq seq, FragIdx idx, Byte* dest,
                                 std::uint64_t len) {
  if (const Slot* s = slot(seq, idx)) {
    MADO_CHECK_MSG(!s->posted, "fragment already unpacked");
    MADO_CHECK_MSG(!s->arrived || s->len == len,
                   "unpack size " << len << " != fragment size " << s->len);
  }
  Entry& e = open(seq);
  MADO_ASSERT(!e.finished);
  if (e.slots.size() <= idx) e.slots.resize(idx + std::size_t{1});
  Slot& s = e.slots[idx];
  s.posted = true;
  s.dest = dest;
  s.len = len;
  return s;
}

void RxChannel::land(MsgSeq seq, FragIdx idx) {
  const std::size_t i = find_open(seq);
  MADO_ASSERT(i < size_);
  Entry& e = at(i);
  Slot& s = e.slots[idx];
  MADO_ASSERT(s.arrived && s.posted && !s.done);
  s.done = true;
  s.early = Bytes();
  ++e.landed;
}

bool RxChannel::retire(MsgSeq seq) {
  if (!complete(seq)) return false;
  if (seq != floor_) {
    // Finished before an earlier message: a mark until the floor gets here.
    Entry& e = at(find_open(seq));
    e.finished = true;
    e.slots.clear();
    return true;
  }
  // The front entry: the floor moves past it and past the marks after it.
  do {
    at(0).slots.clear();
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    ++floor_;
  } while (size_ > 0 && at(0).finished && at(0).seq == floor_);
  return true;
}

const RxChannel::Slot* RxChannel::slot(MsgSeq seq, FragIdx idx) const {
  const std::size_t i = find_open(seq);
  if (i == size_ || idx >= at(i).slots.size()) return nullptr;
  return &at(i).slots[idx];
}

RxChannel::Slot* RxChannel::slot(MsgSeq seq, FragIdx idx) {
  return const_cast<Slot*>(std::as_const(*this).slot(seq, idx));
}

std::uint16_t RxChannel::nfrags(MsgSeq seq) const {
  const std::size_t i = find_open(seq);
  return i == size_ ? std::uint16_t{0} : at(i).nfrags;
}

bool RxChannel::complete(MsgSeq seq) const {
  const std::size_t i = find_open(seq);
  return i < size_ && at(i).nfrags != 0 && at(i).landed == at(i).nfrags;
}

}  // namespace mado::core
