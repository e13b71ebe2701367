// Receive side of the engine: packet demultiplexing, the copies of eager
// fragments into unpacked buffers (or early copies until the unpack),
// rendezvous RTS/CTS handling and the receive waits. Every eager-receive
// verdict comes from the channel's RxChannel (core/receive.hpp).
//
// Locking: every handler below runs under exactly one peer lock (ps.mu),
// and takes a channel's rx_mu inside it wherever it touches that channel's
// RxChannel. The application's receive calls (the end of this file) take
// rx_mu alone. on_packet() is the driver entry; during a progress lap
// (pump_shard, on whichever progress thread owns or stole the shard) it
// stages the packet into the lap's event batch instead of locking (see
// progress_lap.hpp), so a pump of N endpoints costs one lock acquisition,
// not N.
#include <algorithm>
#include <cstring>
#include <mutex>

#include "core/engine.hpp"
#include "core/progress_lap.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::core {

// ---- driver entry ------------------------------------------------------------

void Engine::on_packet(NodeId peer, RailId rail_id, drv::TrackId track,
                       Bytes payload) {
  (void)track;  // demux is by magic, so shared-track configs need no branch
  if (detail::ProgressLap* lap = detail::t_progress_lap;
      lap && lap->engine == this && lap->peer == peer) {
    // Batched drain: progress() is pumping this peer's endpoints — stage
    // the arrival and let it apply the batch under ONE lock acquisition.
    auto* evs = static_cast<std::vector<RxEvent>*>(lap->events);
    RxEvent ev;
    ev.kind = RxEvent::Kind::Packet;
    ev.rail = rail_id;
    ev.payload = std::move(payload);
    evs->push_back(std::move(ev));
    return;
  }
  PeerState* ps = find_peer(peer);
  if (!ps) return;  // torn down
  {
    PeerLock lk(*ps);
    apply_packet_locked(*ps, rail_id, payload);
    drain_submit_ring_locked(*ps);
    // Arrivals can enqueue control fragments (CTS) or bulk chunks — pump.
    pump_peer_locked(*ps);
    // If the pump found nothing to piggyback the owed ack on, send it
    // standalone (rail may have gone Down meanwhile; the helper checks).
    if (cfg_.reliability && rail_id < ps->rails.size())
      maybe_send_ack_locked(*ps, *ps->rails[rail_id]);
  }
  wake_peer(*ps);
}

void Engine::apply_packet_locked(PeerState& ps, RailId rail_id,
                                 const Bytes& payload) {
  if (rail_id >= ps.rails.size()) return;
  try {
    const std::uint32_t magic = WireReader(ByteSpan(payload)).u32();
    if (magic == kPacketMagic) {
      handle_eager_packet_locked(ps, rail_id, payload);
    } else if (magic == kBulkMagic) {
      handle_bulk_packet_locked(ps, rail_id, payload);
    } else {
      MADO_CHECK_MSG(false, "unknown packet magic");
    }
  } catch (const PayloadCrcError& err) {
    // Headers decoded cleanly but the payload was damaged on the wire.
    // The reliable sequence was NOT consumed, so the sender's retransmit
    // repairs this — counted separately from protocol violations.
    ps.stats.inc(Ctr::RelPayloadCrcDrops);
    MADO_WARN("node " << self_ << ": dropping corrupt payload from peer "
                      << ps.id << ": " << err.what());
  } catch (const CheckError& err) {
    // A malformed or protocol-violating packet must not take the engine
    // down with it (the socket driver's RX thread delivers these); count
    // and drop. The CRC makes corrupted headers land here.
    ps.stats.inc(Ctr::RxMalformed);
    MADO_WARN("node " << self_ << ": dropping malformed packet from peer "
                      << ps.id << ": " << err.what());
  }
}

// ---- reliability ---------------------------------------------------------------

template <class Header>
bool Engine::rel_rx_locked(PeerState& ps, Rail& rail, int stream,
                           const Header& h) {
  if (!cfg_.reliability) return true;
  // Acks count first: even a duplicate or a packet past a gap carries
  // fresh ones.
  if (h.flags & kPhFlagAck)
    process_acks_locked(ps, rail, h.ack_eager, h.ack_bulk);
  if (!(h.flags & kPhFlagRelSeq)) return true;
  const GoBackN::Arrival verdict = rail.rel[stream].arrive(h.pkt_seq);
  // A duplicate means our ack was lost or late; the owed ack refreshes it.
  if (verdict == GoBackN::Arrival::Duplicate) ps.stats.inc(Ctr::RelDupDrops);
  if (verdict == GoBackN::Arrival::Gap) ps.stats.inc(Ctr::RelOooDrops);
  return verdict == GoBackN::Arrival::Accept;
}

// ---- eager path ---------------------------------------------------------------

void Engine::handle_eager_packet_locked(PeerState& ps, RailId rail_id,
                                        const Bytes& payload) {
  DecodedPacket pkt = parse_packet(ByteSpan(payload), /*crc_check=*/true);
  const PacketHeader& ph = pkt.header;
  if (!rel_rx_locked(ps, *ps.rails[rail_id], 0, ph)) return;
  if (cfg_.reliability && ph.nfrags == 0 && !(ph.flags & kPhFlagRelSeq)) {
    ps.stats.inc(Ctr::RelAcksRx);  // standalone ack: nothing else to deliver
    return;
  }
  ps.stats.inc(Ctr::RxPackets);
  ps.stats.inc(Ctr::RxBytes, payload.size());
  ps.stats.inc(Ctr::RxFrags, pkt.frags.size());
  trace_locked(TraceEvent::PacketRx, ps.id, rail_id, pkt.frags.size(),
               payload.size(), 0, ph.pkt_seq);
  for (std::size_t i = 0; i < pkt.frags.size(); ++i) {
    const FragHeader& fh = pkt.frags[i];
    switch (fh.kind) {
      case FragKind::Data:
        deliver_data_frag_locked(ps, fh, pkt.payloads[i]);
        break;
      case FragKind::RdvRts:
        handle_rts_locked(ps, fh, pkt.payloads[i]);
        break;
      case FragKind::RdvCts:
        handle_cts_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaPut:
        handle_rma_put_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaGet:
        handle_rma_get_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaGetData:
        handle_rma_get_data_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaAck:
        handle_rma_ack_locked(ps, pkt.payloads[i]);
        break;
    }
  }
}

RxChannel::Slot* Engine::arrive_locked(PeerState& ps, RxChannel& rx,
                                       const FragHeader& fh,
                                       std::uint64_t len, bool rdv) {
  MADO_CHECK_MSG(fh.last() == (fh.frag_idx + 1 == fh.nfrags_total),
                 "inconsistent last-fragment flag");
  // A failover can resend a fragment whose message already finished here
  // (it landed on the dead rail, its ack did not).
  const RxChannel::Frag verdict =
      rx.arrive(fh.msg_seq, fh.frag_idx, fh.nfrags_total, len, rdv);
  if (replay_locked(ps, verdict == RxChannel::Frag::Finished,
                    "fragment of a finished message") ||
      replay_locked(ps, verdict == RxChannel::Frag::Duplicate,
                    "duplicate fragment"))
    return nullptr;
  return rx.slot(fh.msg_seq, fh.frag_idx);
}

void Engine::deliver_data_frag_locked(PeerState& ps, const FragHeader& fh,
                                      ByteSpan payload) {
  // A fragment for a channel not opened yet is kept until it is.
  ChannelState& cs = ps.channels[fh.channel];
  std::lock_guard lk(cs.rx_mu);
  RxChannel& rx = cs.rx;
  RxChannel::Slot* slot = arrive_locked(ps, rx, fh, payload.size(), false);
  if (!slot) return;
  if (slot->posted) {
    if (!payload.empty())
      std::memcpy(slot->dest, payload.data(), payload.size());
    rx.land(fh.msg_seq, fh.frag_idx);
  } else {
    slot->early.assign(payload.begin(), payload.end());
    ps.stats.inc(Ctr::RxUnexpectedFrags);
  }
}

// ---- rendezvous ----------------------------------------------------------------

void Engine::handle_rts_locked(PeerState& ps, const FragHeader& fh,
                               ByteSpan payload) {
  const RtsBody rts = decode_rts(payload);
  if (replay_locked(ps,
                    ps.rdv_rx.contains(rts.token) ||
                        ps.rdv_in.finished(rts.token),
                    "duplicate RTS token"))
    return;
  trace_locked(TraceEvent::RdvRts, ps.id, 0, rts.token, rts.total_len);
  RdvRx rx;
  rx.target = rts.target;
  rx.rts = fh;
  rx.aux = rts.aux;
  rx.landing.len = rts.total_len;
  switch (rts.target) {
    case RdvTarget::Message: {
      // Exactly one of this RTS and the fragment's unpack answers: each
      // decides on the slot's posted/arrived flags under rx_mu. An unpack
      // that finds the RTS here answers after it drops rx_mu, under the
      // peer lock, which this thread holds until the RdvRx below is in.
      ChannelState& cs = ps.channels[fh.channel];
      std::lock_guard lk(cs.rx_mu);
      RxChannel::Slot* slot = arrive_locked(ps, cs.rx, fh, rts.total_len,
                                            true);
      if (!slot) return;
      slot->token = rts.token;
      ps.stats.inc(Ctr::RxRdvRts);
      if (slot->posted) rx.base = slot->dest;
      break;
    }
    case RdvTarget::Window: {
      // One-sided put: the destination is an exposed window — no
      // application receive exists, so the engine answers the CTS itself.
      const RmaWindow win =
          window_checked(rts.window, rts.offset, rts.total_len);
      rx.base = win.base + rts.offset;
      ps.stats.inc(Ctr::RxRmaPutRts);
      break;
    }
    case RdvTarget::GetBuffer: {
      // Bulk reply to our own rma_get: route chunks into the requester's
      // destination buffer.
      const PendingGet* pg = ps.pending_gets.find(rts.aux);
      if (replay_locked(ps, !pg, "RTS for an unknown get")) return;
      MADO_CHECK_MSG(pg->len == rts.total_len, "get reply size mismatch");
      rx.base = pg->dest;
      break;
    }
  }
  // A Message target whose fragment is not unpacked yet answers later,
  // from post_unpack.
  const bool answer = rx.base != nullptr;
  ps.rdv_rx.emplace(rts.token, std::move(rx));
  if (answer) send_cts_locked(ps, fh, rts.token);
}

void Engine::send_cts_locked(PeerState& ps, const FragHeader& fh,
                             std::uint64_t token) {
  // Addressed to the fragment whose RTS it answers.
  TxFrag tf = make_rma_frag_locked(ps, FragKind::RdvCts);
  tf.channel = fh.channel;
  tf.msg_seq = fh.msg_seq;
  tf.idx = fh.frag_idx;
  tf.nfrags_total = fh.nfrags_total;
  tf.last = false;
  tf.owned = ps.slab.take(CtsBody::kWireSize);
  encode_cts(tf.owned, CtsBody{token});
  tf.len = tf.owned.size();
  const RailId rail = rail_for_class_locked(ps, TrafficClass::Control);
  ps.rails[rail]->backlog.push_control(std::move(tf));
  ps.stats.inc(Ctr::TxRdvCts);
}

void Engine::handle_cts_locked(PeerState& ps, ByteSpan payload) {
  const CtsBody cts = decode_cts(payload);
  trace_locked(TraceEvent::RdvCts, ps.id, 0, cts.token);
  RdvTx* rdv = ps.rdv_tx.find(cts.token);
  // A replayed CTS: the rendezvous is done, or its chunks are queued.
  if (replay_locked(ps, !rdv || rdv->cts_received, "duplicate CTS")) return;
  rdv->cts_received = true;
  ps.stats.inc(Ctr::RxRdvCts);
  // Handshake latency: RTS submitted → CTS back from the receiver.
  const Nanos now = timers_.now();
  ps.stats.observe(Hist::LatRdvHandshake, now - std::min(now, rdv->rts_time));
  place_chunks_locked(ps, cts.token, rdv->total);
}

void Engine::place_chunks_locked(PeerState& ps, std::uint64_t token,
                                 std::uint64_t total) {
  const std::size_t chunk = chunk_size(ps);
  const RailId bulk_rail = rail_for_class_locked(ps, TrafficClass::Bulk);
  if (cfg_.multirail != MultirailPolicy::Stripe) {
    ps.rdv_out.place(token, total, chunk, bulk_rail);
    return;
  }
  // Cost-model placement (the optimizing layer's stripe hook): split the
  // transfer into per-rail contiguous byte ranges sized so every rail's
  // predicted completion time — per-chunk injection cost (PIO/DMA), wire
  // occupancy at the rail's effective bandwidth, and the backlog it must
  // drain first — comes out equal. Work stealing in RdvSender::pop
  // corrects whatever the prediction gets wrong.
  std::vector<strategy_detail::StripeRail> cands(ps.rails.size());
  for (std::size_t i = 0; i < ps.rails.size(); ++i) {
    const Rail& rail = *ps.rails[i];
    cands[i].caps = &rail.ep->caps();
    // What must drain before a new chunk moves: queued chunks, the eager
    // backlog, and the larger of driver-in-flight and un-acked wire bytes
    // (they overlap; counting both would double-charge a loaded rail).
    cands[i].backlog_bytes =
        ps.rdv_out.queued_bytes(i) + rail.backlog.byte_count() +
        std::max(rail.inflight_bytes,
                 rail.rel[0].held_bytes() + rail.rel[1].held_bytes());
    cands[i].up = rail.state != RailState::Down;
  }
  std::vector<std::uint64_t> shares;
  const double imbalance = strategy_detail::stripe_shares(
      cands, total, chunk, cfg_.stripe.min_chunk, shares);
  if (std::none_of(shares.begin(), shares.end(),
                   [](std::uint64_t s) { return s > 0; })) {
    // No carrier survived the model (all rails down — failover handles the
    // rest): park everything on the Bulk class rail like SingleRail would.
    shares.assign(ps.rails.size(), 0);
    shares[bulk_rail] = total;
  }
  ps.stats.inc(Ctr::StripeTransfers);
  // Histogram values are integral; record the predicted spread in percent.
  ps.stats.observe(Hist::StripeImbalancePct,
                   static_cast<std::uint64_t>(imbalance + 0.5));
  ps.stats.inc(Ctr::StripeChunks,
               ps.rdv_out.place_striped(token, chunk, shares));
}

// ---- bulk path -------------------------------------------------------------------

void Engine::handle_bulk_packet_locked(PeerState& ps, RailId rail_id,
                                       const Bytes& payload) {
  ByteSpan data;
  const BulkHeader bh =
      decode_bulk(ByteSpan(payload), data, /*crc_check=*/true);
  if (!rel_rx_locked(ps, *ps.rails[rail_id], 1, bh)) return;
  RdvRx* rx = ps.rdv_rx.find(bh.token);
  // A chunk delivered on a rail that then died was replayed on the
  // survivor (its ack was lost in the failover) after the rendezvous
  // finished.
  if (replay_locked(ps, !rx && ps.rdv_in.finished(bh.token),
                    "chunk of a finished rendezvous"))
    return;
  MADO_CHECK_MSG(rx != nullptr, "bulk chunk for unknown rendezvous");
  MADO_CHECK_MSG(rx->base != nullptr, "bulk chunk before the CTS");
  MADO_CHECK_MSG(bh.offset + bh.len <= rx->landing.len,
                 "bulk chunk out of range");
  // Same story, rendezvous still in progress: the offset already landed.
  const RdvReceiver::Chunk verdict =
      ps.rdv_in.land(rx->landing, bh.offset, bh.len);
  if (replay_locked(ps, verdict == RdvReceiver::Chunk::Replay,
                    "duplicate bulk chunk"))
    return;
  ps.stats.inc(Ctr::RxBulkChunks);
  ps.stats.inc(Ctr::RxBytes, payload.size());
  // Reassembly watermark: a chunk starting above the in-order front arrived
  // out of order — another rail (or a stolen chunk) ran ahead. The memcpy
  // below is offset-addressed, so OOO landing is free; the counter just
  // makes cross-rail interleaving observable.
  if (verdict == RdvReceiver::Chunk::OutOfOrder)
    ps.stats.inc(Ctr::StripeReassemblyOoo);
  trace_locked(TraceEvent::BulkRx, ps.id, rail_id, bh.token, bh.offset,
               bh.len, bh.stripe);
  if (bh.len > 0) std::memcpy(rx->base + bh.offset, data.data(), bh.len);
  if (rx->landing.complete()) finish_rdv_rx_locked(ps, rail_id, bh.token, *rx);
}

void Engine::finish_rdv_rx_locked(PeerState& ps, RailId rail,
                                  std::uint64_t token, const RdvRx& rx) {
  switch (rx.target) {
    case RdvTarget::Message: {
      ChannelState& cs = ps.channels[rx.rts.channel];
      std::lock_guard lk(cs.rx_mu);
      cs.rx.land(rx.rts.msg_seq, rx.rts.frag_idx);
      ps.stats.inc(Ctr::RxRdvCompleted);
      break;
    }
    case RdvTarget::Window:
      push_rma_ack_locked(ps, rx.aux);
      ps.stats.inc(Ctr::RxRmaPutsCompleted);
      break;
    case RdvTarget::GetBuffer: {
      PendingGet* pg = ps.pending_gets.find(rx.aux);
      MADO_CHECK(pg != nullptr);
      if (pg->state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        ps.stats.inc(Ctr::RmaGetsCompleted);
      ps.pending_gets.erase(rx.aux);
      break;
    }
  }
  ps.rdv_in.finish(token);
  trace_locked(TraceEvent::RdvDone, ps.id, rail, token, rx.landing.len);
  ps.rdv_rx.erase(token);  // last: `rx` lives in the table
}

// ---- RMA eager paths -----------------------------------------------------------

void Engine::push_rma_ack_locked(PeerState& ps, std::uint64_t ack_token) {
  TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaAck);
  tf.owned = ps.slab.take(RmaAckBody::kWireSize);
  encode_rma_ack(tf.owned, RmaAckBody{ack_token});
  tf.len = tf.owned.size();
  const RailId rail = rail_for_class_locked(ps, TrafficClass::Control);
  ps.rails[rail]->backlog.push_control(std::move(tf));
  ps.stats.inc(Ctr::TxRmaAcks);
}

void Engine::handle_rma_put_locked(PeerState& ps, ByteSpan payload) {
  ByteSpan data;
  const RmaPutBody b = decode_rma_put(payload, data);
  const RmaWindow win = window_checked(b.window, b.offset, data.size());
  if (replay_locked(ps, !ps.rdv_in.serve(b.ack_token), "put served twice"))
    return;
  if (!data.empty())
    std::memcpy(win.base + b.offset, data.data(), data.size());
  ps.stats.inc(Ctr::RxRmaPuts);
  push_rma_ack_locked(ps, b.ack_token);
}

void Engine::handle_rma_get_locked(PeerState& ps, ByteSpan payload) {
  const RmaGetBody b = decode_rma_get(payload);
  const RmaWindow win = window_checked(b.window, b.offset, b.len);
  if (replay_locked(ps, !ps.rdv_in.serve(b.get_token), "get served twice"))
    return;
  ps.stats.inc(Ctr::RxRmaGets);

  MADO_CHECK(!ps.rails.empty());
  const RailId rail_id = rail_for_class_locked(ps, TrafficClass::PutGet);
  Rail& rail = *ps.rails[rail_id];
  if (b.len >= rdv_threshold(ps, rail)) {
    // Bulk reply: rendezvous straight from the window into the requester's
    // get buffer (the requester auto-answers the CTS). No local handle:
    // the requester tracks completion.
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RdvRts);
    open_rdv_locked(ps, rail_id,
                    next_rdv_token_.fetch_add(1, std::memory_order_relaxed),
                    RdvTx{.channel = kRmaChannel,
                          .data = win.base + b.offset,
                          .total = b.len,
                          .rts_time = timers_.now()},
                    RtsBody{.target = RdvTarget::GetBuffer, .aux = b.get_token},
                    tf);
    rail.backlog.push(std::move(tf));
  } else {
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaGetData);
    tf.owned = ps.slab.take(RmaGetDataBody::kWireSize + b.len);
    encode_rma_get_data(tf.owned, RmaGetDataBody{b.get_token});
    tf.owned.insert(tf.owned.end(), win.base + b.offset,
                    win.base + b.offset + b.len);
    tf.len = tf.owned.size();
    rail.backlog.push(std::move(tf));
  }
}

void Engine::handle_rma_get_data_locked(PeerState& ps, ByteSpan payload) {
  ByteSpan data;
  const RmaGetDataBody b = decode_rma_get_data(payload, data);
  PendingGet* pg = ps.pending_gets.find(b.get_token);
  // A replayed reply: the get already finished.
  if (replay_locked(ps, !pg, "get reply for an unknown get")) return;
  MADO_CHECK_MSG(pg->len == data.size(), "get reply size mismatch");
  std::memcpy(pg->dest, data.data(), data.size());
  if (pg->state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    ps.stats.inc(Ctr::RmaGetsCompleted);
  ps.pending_gets.erase(b.get_token);
}

void Engine::handle_rma_ack_locked(PeerState& ps, ByteSpan payload) {
  const RmaAckBody b = decode_rma_ack(payload);
  SendStateRef* sp = ps.rma_acks.find(b.ack_token);
  // A replayed ack: the put already completed.
  if (replay_locked(ps, !sp, "unexpected RMA ack")) return;
  if ((*sp)->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    ps.stats.inc(Ctr::RmaPutsCompleted);
  ps.rma_acks.erase(b.ack_token);
}

// ---- application receive API ------------------------------------------------------
//
// Every call below gets the shard and the channel the Channel cached at
// open_channel, and attaches, probes and polls the channel's RxChannel
// under its rx_mu alone: a progress thread applying arrivals under the
// peer lock holds rx_mu only while it touches this channel. A message that
// has already arrived is received with one rx_mu acquisition per call:
// post_unpack copies the early fragment and reports it done (an Express
// unpack then skips wait_frag), and finish_recv retires a complete message
// under the same lock that checks it. Only data still on the wire takes
// the wait path (wait_on), which itself returns before touching any wait
// state when its predicate already holds.

bool Engine::post_unpack(PeerState& ps, ChannelState& cs, MsgSeq seq,
                         FragIdx idx, void* buf, std::size_t len) {
  MADO_CHECK(buf != nullptr || len == 0);
  bool done = false;
  bool answer = false;  // this unpack answers the fragment's RTS
  std::uint64_t token = 0;
  {
    std::lock_guard lk(cs.rx_mu);
    RxChannel& rx = cs.rx;
    const RxChannel::Slot& slot =
        rx.post(seq, idx, static_cast<Byte*>(buf), len);
    if (slot.arrived && !slot.rdv) {
      if (len > 0) std::memcpy(buf, slot.early.data(), len);
      rx.land(seq, idx);
      done = true;
    } else if (slot.arrived) {
      answer = true;
      token = slot.token;
    }
  }
  if (answer) {
    // The RTS came first and left the answer to this unpack (see
    // handle_rts_locked): the destination is known now, so the transfer
    // can start. The RTS's handler emplaced the RdvRx under the peer lock
    // before it released it, so it is there.
    std::lock_guard lk(ps.mu);
    RdvRx* rdv = ps.rdv_rx.find(token);
    MADO_CHECK(rdv != nullptr);
    rdv->base = static_cast<Byte*>(buf);
    send_cts_locked(ps, rdv->rts, token);
    pump_peer_locked(ps);
  }
  wake_peer(ps);
  return done;
}

std::uint64_t Engine::wait_frag(PeerState& ps, const ChannelState& cs,
                                MsgSeq seq, FragIdx idx, bool landed) {
  std::uint64_t len = 0;
  const bool ok = wait_on(
      ps.waits,
      [&] {
        std::lock_guard lk(cs.rx_mu);
        const RxChannel::Slot* slot = cs.rx.slot(seq, idx);
        if (!slot || !(landed ? slot->done : slot->arrived)) return false;
        len = slot->len;
        return true;
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out waiting for fragment " << idx
                                                       << " of message "
                                                       << seq);
  return len;
}

void Engine::finish_recv(PeerState& ps, ChannelState& cs, MsgSeq seq,
                         FragIdx nposted) {
  // The first arrived fragment tells the message's fragment count: a
  // finish() that unpacked another number fails then, without waiting for
  // the rest.
  std::uint16_t nfrags = 0;
  const bool ok = wait_on(
      ps.waits,
      [&] {
        std::lock_guard lk(cs.rx_mu);
        nfrags = cs.rx.nfrags(seq);
        return nfrags != 0 && (nfrags != nposted || cs.rx.retire(seq));
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out completing message " << seq);
  MADO_CHECK_MSG(nposted == nfrags, "finish() after unpacking "
                                        << nposted << " of " << nfrags
                                        << " fragments");
  ps.stats.inc(Ctr::RxMsgsCompleted);
}

void Engine::flush_channel(PeerState& ps, ChannelId ch) {
  const bool ok = wait_on(
      ps.waits,
      [&ps, ch] {
        std::lock_guard lk(ps.mu);
        auto it = ps.channels.find(ch);
        return it == ps.channels.end() ||
               (it->second.outstanding_sends == 0 &&
                (!ps.ring ||
                 ps.ring_pending.load(std::memory_order_acquire) == 0));
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out flushing channel " << ch);
}

}  // namespace mado::core
