// Public user-facing handles: SendHandle, Channel, IncomingMessage.
//
// Quickstart shape (see examples/quickstart.cpp):
//
//   Channel ch = engine.open_channel(peer, /*id=*/7, TrafficClass::SmallEager);
//   Message m;
//   m.pack(&hdr, sizeof hdr, SendMode::Safe);     // header fragment
//   m.pack(body.data(), body.size());             // payload fragment
//   SendHandle h = ch.post(std::move(m));         // enqueue; returns at once
//   ...compute...
//   engine.wait_send(h);
//
//   IncomingMessage im = ch.begin_recv();
//   im.unpack(&hdr, sizeof hdr, RecvMode::Express);   // blocks for header
//   im.unpack(body.data(), body.size(), RecvMode::Cheaper);
//   im.finish();                                      // blocks for the rest
#pragma once

#include <cstddef>

#include "core/backlog.hpp"
#include "core/message.hpp"
#include "core/types.hpp"

namespace mado::core {

class Engine;

/// Completion handle for one posted message (all of its fragments).
class SendHandle {
 public:
  SendHandle() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Engine;
  explicit SendHandle(SendStateRef state) : state_(std::move(state)) {}
  SendStateRef state_;
};

/// Incremental receive handle for one incoming structured message.
/// unpack() consumes fragments in pack order; finish() completes the
/// message and checks that every fragment was consumed.
class IncomingMessage {
 public:
  /// Receive the next fragment into `buf` (which must be exactly the
  /// packed fragment's size — checked). Express blocks until the data is
  /// here; Cheaper registers the buffer and defers to finish().
  void unpack(void* buf, std::size_t len, RecvMode mode = RecvMode::Express);

  /// Size of the next fragment, blocking until it is known (the fragment
  /// header has arrived — for rendezvous fragments this is the RTS, so it
  /// does NOT wait for the bulk data). Lets receivers consume messages
  /// whose fragment sizes are not agreed upon out of band.
  std::size_t next_size();

  /// Convenience: next_size() + allocate + express unpack.
  Bytes unpack_bytes();

  /// Block until the whole message (including Cheaper fragments) is
  /// delivered, then release the message. Throws CheckError if the
  /// application unpacked fewer fragments than the sender packed.
  void finish();

  /// Non-blocking: true once every fragment (including Cheaper-registered
  /// ones) has been fully delivered, i.e. finish() would not wait. Lets
  /// cooperative state machines overlap in-flight receives instead of
  /// blocking inside finish() one at a time.
  bool ready() const;

  FragIdx fragments_unpacked() const { return next_; }
  MsgSeq sequence() const { return seq_; }

 private:
  friend class Channel;
  IncomingMessage(Engine* eng, void* peer_cache, void* chan_cache, MsgSeq seq)
      : eng_(eng), peer_cache_(peer_cache), chan_cache_(chan_cache),
        seq_(seq) {}
  Engine* eng_ = nullptr;
  /// The Channel's cached peer shard and channel state: receive calls
  /// touch neither the peer map nor the channel map.
  void* peer_cache_ = nullptr;
  void* chan_cache_ = nullptr;
  MsgSeq seq_ = 0;
  FragIdx next_ = 0;
  bool finished_ = false;
};

/// A logical communication flow to one peer. Channels are the flows the
/// optimizer mixes: each middleware (or application stream) opens its own.
/// Both sides must open the same channel id. Lightweight, copyable.
class Channel {
 public:
  Channel() = default;

  /// Enqueue a message into the collect layer and return immediately.
  SendHandle post(Message msg);

  /// Attach to the next incoming message on this channel (non-blocking;
  /// data may arrive later — unpack()/finish() wait as needed).
  IncomingMessage begin_recv();

  /// Block until every message posted on this channel has completed.
  void flush();

  /// True if the next incoming message on this channel has (at least
  /// partially) arrived — i.e. begin_recv()+unpack would not block long.
  bool probe() const;

  ChannelId id() const { return id_; }
  NodeId peer() const { return peer_; }
  TrafficClass traffic_class() const { return cls_; }
  bool valid() const { return eng_ != nullptr; }

 private:
  friend class Engine;
  Channel(Engine* eng, NodeId peer, ChannelId id, TrafficClass cls,
          void* peer_cache, void* chan_cache)
      : eng_(eng), peer_(peer), id_(id), cls_(cls), peer_cache_(peer_cache),
        chan_cache_(chan_cache) {}
  Engine* eng_ = nullptr;
  NodeId peer_ = 0;
  ChannelId id_ = 0;
  TrafficClass cls_ = TrafficClass::SmallEager;
  /// Peer shard and channel state resolved once at open_channel (opaque:
  /// both types are private to Engine; neither ever moves). post() and
  /// every receive call hand them back, so neither path touches the peer
  /// map, and receives lock only the channel's own receive state.
  void* peer_cache_ = nullptr;
  void* chan_cache_ = nullptr;
};

}  // namespace mado::core
