// Rendezvous toward one peer: every decision of the bulk protocol that is
// not I/O, with no locks, timers or engine types, so that it can be checked
// exhaustively on its own (tests/core/test_rendezvous_model.cpp). The
// engine executes the verdicts: it owns the transfer records, the RTS/CTS
// and RMA frames, the copies into destinations, timers, sends, stats and
// trace.
//
// RdvSender owns every queued bulk chunk. A transfer whose CTS arrived is
// cut into chunks placed by the MultirailPolicy: on one rail's FIFO
// (SingleRail), in a pool (DynamicSplit), or as per-rail contiguous ranges
// sized by the cost model (Stripe). An idle rail takes its FIFO's head,
// else the pool's head, else (Stripe) the tail of the live FIFO holding
// the most bytes. A dead rail's un-acked, then queued, chunks go to the
// survivor's tail (the pool under DynamicSplit), or are dropped if none.
//
// RdvReceiver gives the one verdict on cross-rail replays: a failover
// resends whatever the dead rail had not seen acked, which may have landed.
// It keeps the offsets each open transfer landed and one bounded window of
// the peer's finished tokens: its completed transfers and the RMA requests
// already served (request tokens come from the same counter). A replay
// arrives only while its sender holds the un-acked copy, which go-back-N
// bounds far below the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/token_table.hpp"
#include "core/types.hpp"

namespace mado::core {

class RdvSender {
 public:
  struct Chunk {
    std::uint64_t token = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t stripe = 0;  ///< id within a Stripe plan, else 0
  };
  static constexpr std::size_t kNoRail = static_cast<std::size_t>(-1);

  RdvSender(MultirailPolicy policy, bool steal)
      : policy_(policy), steal_(steal) {}

  /// One more rail, in attach order.
  void add_rail() { rails_.emplace_back(); }

  /// SingleRail and DynamicSplit: cut `total` bytes of transfer `token`
  /// into `chunk`-byte chunks, onto rail `rail`'s FIFO or into the pool.
  void place(std::uint64_t token, std::uint64_t total, std::size_t chunk,
             std::size_t rail);
  /// Stripe: cut `shares[r]` bytes into `chunk`-byte chunks on rail r's
  /// FIFO. Offsets run low to high across rails in index order, and stripe
  /// ids over the whole plan. Returns the number of chunks placed.
  std::size_t place_striped(std::uint64_t token, std::size_t chunk,
                            const std::vector<std::uint64_t>& shares);

  /// The next chunk for idle rail `rail`, if any. `victim` is the robbed
  /// rail when the chunk was stolen, else kNoRail.
  bool pop(std::size_t rail, Chunk& out, std::size_t& victim);

  /// Rail `dead` failed: `unacked`, its sent chunks not yet acked, then
  /// its queued ones go to `survivor` (kNoRail: none is left, and every
  /// queued chunk is dropped). Returns the number of chunks re-queued.
  std::size_t fail_rail(std::size_t dead, std::size_t survivor,
                        const std::vector<Chunk>& unacked);

  std::size_t queued_bytes(std::size_t rail) const {
    return rails_[rail].bytes;
  }
  const std::deque<Chunk>& queue(std::size_t rail) const {
    return rails_[rail].q;
  }
  const std::deque<Chunk>& pool() const { return pool_; }
  /// Every queued chunk, pool included.
  std::size_t chunks() const;

 private:
  struct Fifo {
    std::deque<Chunk> q;
    std::size_t bytes = 0;
    bool dead = false;
  };
  /// Append to rail `rail`'s FIFO, or to the pool under DynamicSplit.
  void push(std::size_t rail, const Chunk& c);

  MultirailPolicy policy_;
  bool steal_;
  std::vector<Fifo> rails_;
  std::deque<Chunk> pool_;
};

class RdvReceiver {
 public:
  /// How far one open transfer has landed; the engine keeps it in its
  /// record of the transfer, so a chunk costs one lookup.
  struct Landing {
    std::uint64_t len = 0;       ///< bytes the transfer carries
    std::uint64_t received = 0;  ///< bytes landed
    /// Lowest offset not known to be contiguous from 0: a chunk starting
    /// above it ran ahead on another rail.
    std::uint64_t next_contig = 0;
    TokenSet offsets;  ///< offsets landed, kept only if replays can happen

    bool complete() const { return received == len; }
  };
  enum class Chunk : std::uint8_t { Replay, InOrder, OutOfOrder };

  /// `replays`: a failover can deliver a second copy of something that
  /// arrived (reliability on). Without, nothing is remembered. At most
  /// `window` finished tokens are kept, oldest out first; `opts.stats`
  /// counts the evictions and the window's rehashes.
  RdvReceiver(bool replays, std::size_t window, TokenTableOpts opts = {})
      : replays_(replays), window_(window), stats_(opts.stats) {
    done_.set_opts(opts);
  }

  /// True if transfer or request `token` of the peer finished here and is
  /// still remembered.
  bool finished(std::uint64_t token) const { return done_.contains(token); }
  /// Transfer `token` finished.
  void finish(std::uint64_t token);
  /// RMA request `token` arrived: true to serve it, which remembers it as
  /// finished; false if it was served already.
  bool serve(std::uint64_t token);
  /// Verdict on chunk [offset, offset + len) of `l`, whose bytes it counts
  /// unless the chunk is a replay.
  Chunk land(Landing& l, std::uint64_t offset, std::uint32_t len);

  /// The remembered tokens, oldest first.
  const std::deque<std::uint64_t>& window() const { return fifo_; }

 private:
  bool replays_;
  std::size_t window_;
  EngineStats* stats_;
  TokenSet done_;
  std::deque<std::uint64_t> fifo_;  ///< done_ in finishing order
};

}  // namespace mado::core
