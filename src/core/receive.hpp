// The eager receive side of one channel, Madeleine's unpack: every verdict
// that is not I/O, with no locks, timers or engine types, so that it can be
// checked exhaustively on its own (tests/core/test_receive_model.cpp). The
// engine executes them: copies, the CTS of a rendezvous fragment, waits,
// stats and trace.
//
// Fragments are addressed by (channel, seq, index), so a message is rebuilt
// whatever rail or order its fragments came by. Above the floor, the lowest
// seq not finished here, each message that is open or finished before an
// earlier one has an entry, in seq order, in one ring that doubles when
// full. A fragment below the floor or of a finished entry is a replay that
// a failover resent after it landed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/small_vector.hpp"
#include "util/wire.hpp"

namespace mado::core {

class RxChannel {
 public:
  struct Slot {
    Bytes early;           ///< eager payload that arrived before its unpack
    Byte* dest = nullptr;  ///< the unpack's buffer
    /// The fragment's bytes (a rendezvous one's: its transfer's), set by
    /// the first of its arrival and its unpack and checked by the other.
    std::uint64_t len = 0;
    std::uint64_t token = 0;  ///< rendezvous: the transfer
    bool arrived = false;     ///< its eager payload or its RTS is here
    bool rdv = false;         ///< it travels by rendezvous
    bool posted = false;      ///< the application unpacked it
    bool done = false;        ///< its bytes are in `dest`
  };
  /// A fragment fills its slot, is a second copy, or is of a finished
  /// message; the engine drops the last two.
  enum class Frag : std::uint8_t { Fill, Duplicate, Finished };

  /// Begin the next receive: its seq.
  MsgSeq attach() { return attach_++; }
  /// Whether a fragment of the message the next attach() returns arrived.
  bool announced() const { return nfrags(attach_) != 0; }

  /// Fragment `idx` of message `seq`, one of `nfrags`, arrived: `len` eager
  /// bytes, or (`rdv`) the RTS of a `len`-byte transfer. Fill marks the slot
  /// arrived; the engine lands the bytes if it is posted, else keeps them in
  /// `early`. CHECKs a malformed header and a size that is not the unpack's
  /// before it changes anything.
  Frag arrive(MsgSeq seq, FragIdx idx, std::uint16_t nfrags, std::uint64_t len,
              bool rdv);
  /// The application unpacks fragment `idx` of message `seq`, attached and
  /// not finished, into `len` bytes at `dest`. CHECKs a second unpack and a
  /// size that is not the arrived fragment's.
  Slot& post(MsgSeq seq, FragIdx idx, Byte* dest, std::uint64_t len);
  /// The bytes of fragment `idx` of `seq` are in `dest`; `early` is freed.
  void land(MsgSeq seq, FragIdx idx);
  /// Retire message `seq` if every fragment landed; false, changing
  /// nothing, while one has not. A copy of it is Finished from then on.
  bool retire(MsgSeq seq);

  /// Fragment `idx` of open message `seq`, or null if nothing touched it.
  Slot* slot(MsgSeq seq, FragIdx idx);
  const Slot* slot(MsgSeq seq, FragIdx idx) const;
  /// Fragments of open message `seq`; 0 until one of them arrived.
  std::uint16_t nfrags(MsgSeq seq) const;
  bool complete(MsgSeq seq) const;
  MsgSeq floor() const { return floor_; }
  /// Open messages and finished marks above the floor.
  std::size_t entries() const { return size_; }

 private:
  struct Entry {
    MsgSeq seq = 0;
    std::uint16_t nfrags = 0;  ///< 0 while no fragment arrived
    std::uint16_t landed = 0;  ///< slots done
    bool finished = false;     ///< finished above the floor; no slots
    SmallVector<Slot, 2> slots;
  };

  /// The i-th entry in seq order.
  Entry& at(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  const Entry& at(std::size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  /// Position of the first entry whose seq is not below `seq`.
  std::size_t lower_bound(MsgSeq seq) const;
  /// Position of the open entry of `seq`, or size_ if it has none.
  std::size_t find_open(MsgSeq seq) const;
  /// The entry of `seq` (not below the floor), inserted in place if absent.
  Entry& open(MsgSeq seq);

  std::vector<Entry> ring_;  ///< a power of two long, or empty
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  MsgSeq attach_ = 0;
  MsgSeq floor_ = 0;
};

}  // namespace mado::core
