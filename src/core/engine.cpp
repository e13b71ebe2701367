#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/progress_lap.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"

namespace mado::core {

namespace detail {
thread_local ProgressLap* t_progress_lap = nullptr;
}  // namespace detail

Engine::Engine(NodeId self, EngineConfig cfg, TimerHost& timers)
    : self_(self), cfg_(std::move(cfg)),
      prog_nthreads_(cfg_.progress_threads == 0 ? 1 : cfg_.progress_threads),
      timers_(timers),
      strategy_(StrategyRegistry::instance().create(cfg_.strategy)),
      alive_(std::make_shared<std::atomic<bool>>(true)) {
  for (std::size_t i = 0; i < kTrafficClassCount; ++i)
    class_rail_[i].store(cfg_.class_rail[i], std::memory_order_relaxed);
  // Park slots exist for the engine's whole lifetime (not just while the
  // threads run): note_activity() may race start/stop_progress_thread.
  prog_slots_.reserve(prog_nthreads_);
  for (std::size_t i = 0; i < prog_nthreads_; ++i) {
    auto slot = std::make_unique<ProgSlot>();
    const std::string prefix = "prog.t" + std::to_string(i) + ".";
    slot->laps = &stats_.handle(prefix + "shard_laps");
    slot->steals = &stats_.handle(prefix + "steals");
    slot->wakeups = &stats_.handle(prefix + "wakeups");
    slot->idle_sleeps = &stats_.handle(prefix + "idle_sleeps");
    prog_slots_.push_back(std::move(slot));
  }
}

Engine::~Engine() {
  stop_progress_thread();
  alive_->store(false);
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  for (auto& [id, ps] : peers_) {
    std::lock_guard<std::mutex> plk(ps->mu);
    for (auto& rail : ps->rails)
      if (rail->ep) rail->ep->close();
  }
}

// ---- topology -------------------------------------------------------------

RailId Engine::add_rail(NodeId peer, std::unique_ptr<drv::DriverEndpoint> ep) {
  MADO_CHECK(ep != nullptr);
  // A lossy datagram rail without the go-back-N layer would silently lose
  // traffic — refuse it loudly at wiring time instead.
  MADO_CHECK_MSG(ep->caps().lossless || cfg_.reliability,
                 "rail '" << ep->caps().name
                          << "' is lossy; enable cfg.reliability");
  PeerState* psp = nullptr;
  {
    std::unique_lock<std::shared_mutex> lk(peers_mu_);
    auto& slot = peers_[peer];
    if (!slot) {
      // Static shard→thread assignment: insertion order modulo thread
      // count. All rails added to this peer later share the owner (rail
      // affinity) — the owner's lap pumps the whole shard.
      const auto owner = static_cast<std::uint32_t>((peers_.size() - 1) %
                                                    prog_nthreads_);
      slot = std::make_unique<PeerState>(peer, cfg_, owner);
      // Register the shard: the root registry aggregates it on every read.
      stats_.add_child(&slot->registry);
    }
    psp = slot.get();
  }
  PeerState& ps = *psp;
  std::lock_guard<std::mutex> lk(ps.mu);
  MADO_CHECK_MSG(ps.rails.size() < 255, "too many rails");
  const RailId id = static_cast<RailId>(ps.rails.size());
  auto rail = std::make_unique<Rail>();
  rail->ep = std::move(ep);
  rail->port.engine = this;
  rail->port.peer = peer;
  rail->port.rail = id;
  rail->outstanding.assign(rail->ep->caps().track_count, 0);
  rail->ep->set_handler(&rail->port);
  ps.rails.push_back(std::move(rail));
  ps.any_rail_up.store(true, std::memory_order_release);
  return id;
}

std::size_t Engine::rail_count(NodeId peer) const {
  PeerState* ps = find_peer(peer);
  if (!ps) return 0;
  std::lock_guard<std::mutex> lk(ps->mu);
  return ps->rails.size();
}

drv::Capabilities Engine::rail_caps(NodeId peer, RailId rail) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK_MSG(ps != nullptr, "unknown peer " << peer);
  std::lock_guard<std::mutex> lk(ps->mu);
  MADO_CHECK_MSG(rail < ps->rails.size(), "no rail " << unsigned(rail)
                                                     << " toward " << peer);
  return ps->rails[rail]->ep->caps();
}

RailState Engine::rail_state(NodeId peer, RailId rail) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK_MSG(ps != nullptr, "unknown peer " << peer);
  std::lock_guard<std::mutex> lk(ps->mu);
  MADO_CHECK_MSG(rail < ps->rails.size(), "no rail " << unsigned(rail)
                                                     << " toward " << peer);
  return ps->rails[rail]->state;
}

Channel Engine::open_channel(NodeId peer, ChannelId id, TrafficClass cls) {
  MADO_CHECK_MSG(id != kRmaChannel,
                 "channel id is reserved for engine-internal RMA traffic");
  PeerState& ps = peer_ref(peer);
  std::lock_guard<std::mutex> lk(ps.mu);
  MADO_CHECK_MSG(!ps.rails.empty(), "no rails toward peer " << peer);
  auto [it, inserted] = ps.channels.emplace(id, ChannelState{});
  MADO_CHECK_MSG(inserted, "channel " << id << " already open to peer "
                                      << peer);
  it->second.cls = cls;
  // The peer shard is resolved exactly once, here; post() reuses it.
  return Channel(this, peer, id, cls, &ps);
}

Engine::PeerState* Engine::find_peer(NodeId peer) const {
  std::shared_lock<std::shared_mutex> lk(peers_mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : it->second.get();
}

Engine::PeerState& Engine::peer_ref(NodeId peer) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK_MSG(ps != nullptr, "unknown peer " << peer);
  return *ps;
}

RailId Engine::rail_for_class_locked(const PeerState& ps,
                                     TrafficClass cls) const {
  MADO_ASSERT(!ps.rails.empty());
  const RailId wanted = static_cast<RailId>(
      class_rail_[static_cast<std::size_t>(cls)].load(
          std::memory_order_relaxed) %
      ps.rails.size());
  if (ps.rails[wanted]->state != RailState::Down) return wanted;
  // Pinned rail is dead: fail over to any surviving rail.
  for (std::size_t i = 0; i < ps.rails.size(); ++i)
    if (ps.rails[i]->state != RailState::Down) return static_cast<RailId>(i);
  return wanted;  // every rail is dead — callers fail the operation
}

// ---- submit path -----------------------------------------------------------

SendHandle Engine::submit(PeerState& ps, ChannelId ch, TrafficClass cls,
                          Message msg) {
  MADO_CHECK_MSG(!msg.empty(), "cannot post an empty message");
  const auto nfrags = static_cast<std::uint16_t>(msg.fragment_count());
  auto state = std::make_shared<SendState>();
  state->pending.store(nfrags, std::memory_order_relaxed);
  state->submit_time = timers_.now();
  state->cls = cls;
  state->peer = ps.id;

  if (!ps.any_rail_up.load(std::memory_order_acquire)) {
    // Every rail toward the peer is dead: fail fast instead of queueing onto
    // a corpse (wait_send() then returns false immediately).
    state->failed.store(true, std::memory_order_release);
    ps.stats.inc(Ctr::RelFailedSends);
    return SendHandle(state);
  }

  if (ps.ring) {
    if (ps.mu.try_lock()) {
      // Uncontended fast path (flat combining): nobody holds the shard, so
      // skip the ring round-trip entirely — drain whatever racing threads
      // parked, then submit inline. A single application thread always
      // lands here, so post() latency with the ring enabled is identical
      // to the ring-disabled engine (and to the pre-sharding locked path).
      ps.stats.inc(Ctr::OptLockAcquisitions);
      drain_submit_ring_locked(ps);
      submit_locked(ps, ch, std::move(msg), state, state->submit_time);
      ps.mu.unlock();
      // Even an inline submit leaves driver completions to poll (e.g. the
      // shm driver queues them locally): wake the shard's owner if parked.
      note_activity(ps);
      return SendHandle(state);
    }
    // Shard busy: park the message in the submit ring and return without
    // blocking. The current lock holder (the progressor, or a combining
    // submitter) drains it into the backlog at the next NIC-idle instant.
    // Between those instants parked submissions accumulate — widening the
    // optimizer's lookahead window exactly as the paper intends.
    SubmitOp op;
    op.channel = ch;
    op.msg = std::move(msg);
    op.state = state;
    op.enq_time = state->submit_time;
    if (ps.ring->try_push(std::move(op))) {
      ps.ring_pending.fetch_add(1, std::memory_order_release);
      note_activity(ps);
      if (ps.mu.try_lock()) {
        // The holder may have released between our failed try_lock and the
        // push landing; re-check so the op cannot linger un-drained until
        // the next pump.
        ps.stats.inc(Ctr::OptLockAcquisitions);
        drain_submit_ring_locked(ps);
        ps.mu.unlock();
      }
      return SendHandle(state);
    }
    // Ring full: fall through to the locked path (which drains the ring
    // first, preserving submit order). `op` still owns the message — a
    // failed try_push does not consume its argument.
    ps.stats.inc(Ctr::SubmitRingFull);
    msg = std::move(op.msg);
  }

  {
    PeerLock lk(ps);
    drain_submit_ring_locked(ps);
    submit_locked(ps, ch, std::move(msg), state, state->submit_time);
  }
  note_activity(ps);
  return SendHandle(state);
}

std::size_t Engine::drain_submit_ring_locked(PeerState& ps) {
  if (!ps.ring) return 0;
  std::size_t n = 0;
  while (auto op = ps.ring->try_pop()) {
    submit_locked(ps, op->channel, std::move(op->msg), op->state,
                  op->enq_time);
    ps.ring_pending.fetch_sub(1, std::memory_order_release);
    ++n;
  }
  if (n > 0) ps.stats.inc(Ctr::SubmitRingOps, n);
  return n;
}

void Engine::submit_locked(PeerState& ps, ChannelId ch, Message&& msg,
                           const SendStateRef& state, Nanos enq_time) {
  auto cit = ps.channels.find(ch);
  MADO_CHECK_MSG(cit != ps.channels.end(), "channel " << ch << " not open");
  ChannelState& cs = cit->second;

  const auto nfrags = static_cast<std::uint16_t>(msg.fragment_count());
  const RailId rail_id = rail_for_class_locked(ps, cs.cls);
  Rail& rail = *ps.rails[rail_id];
  if (rail.state == RailState::Down) {
    // Every rail died between the submit-side fast check and this drain:
    // fail the message (its pending count never reaches zero, the failed
    // flag routes wait_send() to false).
    if (!state->failed.exchange(true, std::memory_order_acq_rel))
      ps.stats.inc(Ctr::RelFailedSends);
    return;
  }

  // Monotonic submit-time floor: ring enqueue timestamps from racing
  // threads can drain slightly out of clock order, but the backlog's flow
  // index requires submit_time non-decreasing in `order`.
  const Nanos sub_time = std::max(enq_time, ps.last_drain_time);
  ps.last_drain_time = sub_time;

  const MsgSeq seq = cs.next_tx_seq++;
  ++cs.outstanding_sends;

  const drv::Capabilities& caps = rail.ep->caps();
  const std::size_t rdv_thr = cfg_.rdv_threshold_override != 0
                                  ? cfg_.rdv_threshold_override
                                  : caps.rdv_threshold;

  auto& frags = msg.fragments();
  for (std::size_t i = 0; i < frags.size(); ++i) {
    Message::Fragment& mf = frags[i];
    TxFrag tf;
    tf.channel = ch;
    tf.msg_seq = seq;
    tf.idx = static_cast<FragIdx>(i);
    tf.nfrags_total = nfrags;
    tf.cls = cs.cls;
    tf.last = (i + 1 == frags.size());
    tf.state = state;
    tf.submit_time = sub_time;
    tf.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);

    if (mf.len >= rdv_thr) {
      // Rendezvous: the RTS control fragment takes this fragment's place in
      // the eager stream (so intra-message ordering of headers vs payload
      // is preserved); the bytes flow on bulk tracks after the CTS.
      const std::uint64_t token =
          next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
      RdvTx rdv;
      rdv.peer = ps.id;
      rdv.channel = ch;
      rdv.total = mf.len;
      rdv.state = state;
      rdv.rts_time = sub_time;
      rdv.rts_timed = true;
      rdv.cls = cs.cls;
      if (!mf.owned.empty()) {
        rdv.storage = std::move(mf.owned);  // Safe mode: keep the copy alive
        rdv.data = rdv.storage.data();
      } else {
        rdv.data = mf.ext;
      }
      ps.rdv_tx.emplace(token, std::move(rdv));

      tf.kind = FragKind::RdvRts;
      tf.rdv_token = token;
      RtsBody body{token, mf.len};
      tf.owned = ps.slab.take(RtsBody::kWireSize);
      encode_rts(tf.owned, body);
      tf.len = tf.owned.size();
      ps.stats.inc(Ctr::TxRdvRts);
      trace_locked(TraceEvent::RdvRts, ps.id, rail_id, token, mf.len);
    } else {
      tf.kind = FragKind::Data;
      const bool copy =
          mf.mode == SendMode::Safe ||
          (mf.mode == SendMode::Cheaper && mf.len <= kCheaperCopyBound);
      if (copy) {
        if (!mf.owned.empty()) {
          tf.owned = std::move(mf.owned);  // Safe: already copied at pack()
        } else if (mf.len > 0) {
          // Cheaper-mode copy: reuse a slab buffer instead of allocating a
          // fresh vector per fragment (pure churn in steady state).
          tf.owned = ps.slab.take(mf.len);
          tf.owned.insert(tf.owned.end(), mf.ext, mf.ext + mf.len);
        }
      } else {
        tf.ext = mf.ext ? mf.ext : mf.owned.data();
        if (!mf.owned.empty()) {
          // Later-mode fragment packed with owned bytes cannot happen
          // (pack() only copies for Safe), but keep the copy if it does.
          tf.owned = std::move(mf.owned);
          tf.ext = nullptr;
        }
      }
      tf.len = mf.len;
    }
    rail.backlog.push(std::move(tf));
  }

  ps.stats.inc(Ctr::TxMsgs);
  ps.stats.inc(Ctr::TxFragsSubmitted, nfrags);
  trace_locked(TraceEvent::MsgSubmit, ps.id, rail_id, ch, nfrags,
               msg.total_bytes());
  pump_rail_locked(ps, rail);
}

// ---- optimizer pump ---------------------------------------------------------

void Engine::pump_peer_locked(PeerState& ps) {
  for (auto& rail : ps.rails) pump_rail_locked(ps, *rail);
}

void Engine::pump_rail_locked(PeerState& ps, Rail& rail) {
  if (rail.state == RailState::Down) return;  // drained by the failover
  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (!rail.shared_track()) {
      while (rail.track_free(rail.bulk_track())) {
        if (!try_send_bulk_locked(ps, rail)) break;
        progressed = true;
      }
      if (rail.track_free(drv::kTrackEager))
        if (try_send_eager_locked(ps, rail)) progressed = true;
    } else {
      // Single multiplexing unit: alternate eager and bulk so neither
      // starves the other (relevant for the E8 "shared track" policy).
      if (!rail.track_free(drv::kTrackEager)) break;
      bool sent;
      if (rail.bulk_turn) {
        sent = try_send_bulk_locked(ps, rail) ||
               try_send_eager_locked(ps, rail);
      } else {
        sent = try_send_eager_locked(ps, rail) ||
               try_send_bulk_locked(ps, rail);
      }
      if (sent) {
        rail.bulk_turn = !rail.bulk_turn;
        progressed = true;
      }
    }
  }
  // The backlog drained with a nagle hold still armed (the held fragment
  // got aggregated into an earlier packet, or a flush consumed it): cancel
  // the timer. A logically idle engine must hold no pending deadline —
  // otherwise has_pending() stays true and parked progress threads keep
  // waking for a timer that has nothing to do.
  if (rail.backlog.empty() && timers_.cancel(rail.nagle_timer))
    eng_stats_.inc(Ctr::TimerCancelled);
}

bool Engine::try_send_eager_locked(PeerState& ps, Rail& rail) {
  if (rail.backlog.empty()) return false;
  // Reliability window: hold new packets while a full go-back-N window is
  // awaiting acks (acks re-pump on arrival).
  if (cfg_.reliability && rail.rel[0].unacked.size() >= cfg_.rel_window)
    return false;
  StrategyEnv env{rail.ep->caps(), timers_.now(), cfg_.lookahead_window,
                  cfg_.eval_budget, cfg_.nagle_delay, &ps.stats};
  PacketDecision d = ps.strategy->next_packet(rail.backlog, env);
  ps.stats.inc(Ctr::OptDecisions);
  // Surface the incremental flow-index maintenance cost (delta since the
  // last decision on this rail) so it stays observable.
  const std::uint64_t idx_ops = rail.backlog.flow_index_ops();
  if (idx_ops != rail.flow_index_ops_flushed) {
    ps.stats.inc(Ctr::OptFlowIndexOps, idx_ops - rail.flow_index_ops_flushed);
    rail.flow_index_ops_flushed = idx_ops;
  }
  if (tracer_.load(std::memory_order_acquire)) {
    std::size_t bytes = 0;
    for (const TxFrag& f : d.frags) bytes += f.len;
    trace_locked(TraceEvent::Decision, ps.id, rail.port.rail,
                 static_cast<std::uint64_t>(d.action), d.frags.size(),
                 bytes);
  }
  switch (d.action) {
    case PacketDecision::Action::Send:
      MADO_CHECK_MSG(!d.frags.empty(), "strategy sent an empty packet");
      send_packet_locked(ps, rail, std::move(d.frags));
      return true;
    case PacketDecision::Action::Wait:
      schedule_nagle_timer_locked(ps, rail, d.wait_until);
      return false;
    case PacketDecision::Action::Idle:
      return false;
  }
  return false;
}

bool Engine::try_send_bulk_locked(PeerState& ps, Rail& rail) {
  if (!rail.track_free(rail.bulk_track())) return false;
  if (cfg_.reliability && rail.rel[1].unacked.size() >= cfg_.rel_window)
    return false;
  BulkChunk chunk;
  if (!pop_bulk_chunk_locked(ps, rail, chunk)) return false;
  send_bulk_chunk_locked(ps, rail, chunk);
  return true;
}

bool Engine::pop_bulk_chunk_locked(PeerState& ps, Rail& rail,
                                   BulkChunk& out) {
  if (!rail.bulk_q.empty()) {
    out = rail.bulk_q.front();
    rail.bulk_q.pop_front();
    return true;
  }
  if (cfg_.multirail == MultirailPolicy::DynamicSplit &&
      !ps.shared_bulk.empty()) {
    out = ps.shared_bulk.front();
    ps.shared_bulk.pop_front();
    return true;
  }
  if (cfg_.multirail == MultirailPolicy::Stripe && cfg_.stripe.steal) {
    // Work stealing: this rail went idle while a sibling still has queued
    // stripe chunks — the paper's "NIC becomes idle" activation generalized
    // across rails. Rob the tail of the most-loaded Up victim so its head
    // keeps streaming undisturbed; prediction error and mid-transfer load
    // shifts self-correct this way.
    Rail* victim = nullptr;
    std::size_t victim_bytes = 0;
    for (const auto& other : ps.rails) {
      if (other.get() == &rail || other->state == RailState::Down) continue;
      if (other->bulk_q.empty()) continue;
      std::size_t bytes = 0;
      for (const BulkChunk& c : other->bulk_q) bytes += c.len;
      if (victim == nullptr || bytes > victim_bytes) {
        victim = other.get();
        victim_bytes = bytes;
      }
    }
    if (victim != nullptr) {
      out = victim->bulk_q.back();
      victim->bulk_q.pop_back();
      ps.stats.inc(Ctr::StripeSteals);
      ps.stats.inc(Ctr::StripeStealBytes, out.len);
      trace_locked(TraceEvent::BulkSteal, ps.id, rail.port.rail, out.token,
                   out.offset, out.len, victim->port.rail);
      return true;
    }
  }
  return false;
}

void Engine::send_packet_locked(PeerState& ps, Rail& rail, FragList&& frags) {
  const std::uint64_t token =
      next_pkt_token_.fetch_add(1, std::memory_order_relaxed);
  auto [recp, inserted] = ps.inflight.emplace(token);
  MADO_ASSERT(inserted);
  InFlight& rec = *recp;
  rec.peer = ps.id;
  rec.rail = rail.port.rail;
  rec.track = drv::kTrackEager;
  rec.frags = std::move(frags);

  PacketHeader ph;
  ph.nfrags = static_cast<std::uint16_t>(rec.frags.size());
  ph.src_node = self_;
  if (cfg_.reliability) {
    RelTrack& rt = rail.rel[0];
    ph.flags |= kPhFlagRelSeq | kPhFlagAck;
    ph.pkt_seq = rt.next_seq++;
    ph.ack_eager = rail.rel[0].rx_next;
    ph.ack_bulk = rail.rel[1].rx_next;
    rail.ack_owed = false;
    if (cfg_.payload_crc) {
      Crc32 crc;
      for (const TxFrag& f : rec.frags) crc.update(f.data(), f.len);
      ph.flags |= kPhFlagPayloadCrc;
      ph.payload_crc = crc.value();
    }
    rec.reliable = true;
    rec.rel_stream = 0;
    rec.rel_seq = ph.pkt_seq;
    rec.tx_outstanding = 1;
    rt.unacked.push_back(token);
  } else {
    ph.pkt_seq = rail.pkt_seq++;
  }
  mado::SmallVector<FragHeader, 16> fhs;
  fhs.reserve(rec.frags.size());
  for (const TxFrag& f : rec.frags) fhs.push_back(f.header());
  rec.header_block = ps.slab.take(PacketHeader::kWireSize +
                                  FragHeader::kWireSize * fhs.size());
  encode_header_block(rec.header_block, ph,
                      std::span<const FragHeader>(fhs.data(), fhs.size()));

  GatherList gl;
  gl.add(rec.header_block.data(), rec.header_block.size());
  for (const TxFrag& f : rec.frags) gl.add(f.data(), f.len);
  rec.wire_bytes = gl.total_bytes();
  if (rec.reliable) rail.rel[0].unacked_bytes += rec.wire_bytes;

  ++rail.outstanding[drv::kTrackEager];
  rail.inflight_bytes += rec.wire_bytes;
  ps.stats.inc(Ctr::TxPackets);
  ps.stats.inc(Ctr::TxBytes, rec.wire_bytes);
  ps.stats.inc(Ctr::TxFrags, rec.frags.size());
  ps.stats.observe(Hist::TxPktFrags, rec.frags.size());
  ps.stats.observe(Hist::TxPktBytes, rec.wire_bytes);
  // Optimizer hold: how long each fragment waited in the collect layer
  // before leaving in a packet — submit → first favorable decision, split
  // by traffic class (nanoseconds).
  {
    const Nanos now = timers_.now();
    for (const TxFrag& f : rec.frags)
      ps.stats.observe(lat_hold(f.cls), now - std::min(now, f.submit_time));
  }
  MADO_TRACE("node " << self_ << " tx packet " << token << " nfrags="
                     << rec.frags.size() << " bytes=" << rec.wire_bytes);
  trace_locked(TraceEvent::PacketTx, ps.id, rail.port.rail, token,
               rec.wire_bytes, rec.frags.size(), ph.pkt_seq);
  rail.ep->send(drv::kTrackEager, gl, token);
  if (cfg_.reliability) arm_rto_locked(ps, rail, 0);
}

void Engine::send_bulk_chunk_locked(PeerState& ps, Rail& rail,
                                    BulkChunk chunk) {
  RdvTx* rdvp = ps.rdv_tx.find(chunk.token);
  MADO_CHECK(rdvp != nullptr);
  RdvTx& rdv = *rdvp;

  const std::uint64_t token =
      next_pkt_token_.fetch_add(1, std::memory_order_relaxed);
  auto [recp, inserted] = ps.inflight.emplace(token);
  MADO_ASSERT(inserted);
  InFlight& rec = *recp;
  rec.peer = ps.id;
  rec.rail = rail.port.rail;
  rec.track = rail.bulk_track();
  rec.is_bulk = true;
  rec.rdv_token = chunk.token;
  rec.chunk_off = chunk.offset;
  rec.chunk_len = chunk.len;
  rec.chunk_stripe = chunk.stripe;

  BulkHeader bh;
  bh.src_node = self_;
  bh.token = chunk.token;
  bh.offset = chunk.offset;
  bh.len = chunk.len;
  bh.stripe = chunk.stripe;
  if (cfg_.reliability) {
    RelTrack& rt = rail.rel[1];
    bh.flags |= kPhFlagRelSeq | kPhFlagAck;
    bh.pkt_seq = rt.next_seq++;
    bh.ack_eager = rail.rel[0].rx_next;
    bh.ack_bulk = rail.rel[1].rx_next;
    rail.ack_owed = false;
    if (cfg_.payload_crc) {
      bh.flags |= kPhFlagPayloadCrc;
      bh.payload_crc = Crc32::of(rdv.data + chunk.offset, chunk.len);
    }
    rec.reliable = true;
    rec.rel_stream = 1;
    rec.rel_seq = bh.pkt_seq;
    rec.tx_outstanding = 1;
    rt.unacked.push_back(token);
  }
  rec.header_block = ps.slab.take(BulkHeader::kWireSize);
  encode_bulk_header(rec.header_block, bh);

  GatherList gl;
  gl.add(rec.header_block.data(), rec.header_block.size());
  gl.add(rdv.data + chunk.offset, chunk.len);
  rec.wire_bytes = gl.total_bytes();
  if (rec.reliable) rail.rel[1].unacked_bytes += rec.wire_bytes;

  ++rail.outstanding[rec.track];
  rail.inflight_bytes += rec.wire_bytes;
  ps.stats.inc(Ctr::TxBulkChunks);
  ps.stats.inc(Ctr::TxBytes, rec.wire_bytes);
  trace_locked(TraceEvent::BulkTx, ps.id, rail.port.rail, chunk.token,
               chunk.offset, chunk.len, chunk.stripe);
  rail.ep->send(rec.track, gl, token);
  if (cfg_.reliability) arm_rto_locked(ps, rail, 1);
}

void Engine::schedule_nagle_timer_locked(PeerState& ps, Rail& rail,
                                         Nanos when) {
  // Keep the earliest requested deadline: a strategy asking for an EARLIER
  // wake-up (new traffic shortening its hold window) moves the timer; a
  // later request while one is pending is a no-op. Re-arming physically
  // relocates the wheel entry in O(1) — no superseded closure lingers, no
  // dead deadline pollutes next_deadline().
  if (rail.nagle_timer.armed() && when >= rail.nagle_timer.deadline())
    return;
  trace_locked(TraceEvent::NagleWait, ps.id, rail.port.rail, when);
  if (!rail.nagle_timer.has_callback()) {
    const NodeId peer = ps.id;
    const RailId rail_id = rail.port.rail;
    rail.nagle_timer.set_callback(
        peer_timer_cb([this, peer, rail_id](std::uint64_t gen) {
          PeerState* p = find_peer(peer);
          if (!p) return;
          {
            PeerLock lk(*p);
            if (rail_id >= p->rails.size()) return;
            Rail& r = *p->rails[rail_id];
            if (r.nagle_timer.gen() != gen) {
              // A re-arm or cancel raced this firing out of the wheel.
              eng_stats_.inc(Ctr::TimerStaleFires);
              return;
            }
            drain_submit_ring_locked(*p);
            pump_rail_locked(*p, r);
          }
          wake_peer(*p);
        }));
  }
  eng_stats_.inc(Ctr::TimerArms);
  arm_peer_timer(ps, rail.nagle_timer, when);
}

// ---- completion path --------------------------------------------------------

void Engine::on_send_complete(NodeId peer, RailId rail_id, drv::TrackId track,
                              std::uint64_t token) {
  if (detail::ProgressLap* lap = detail::t_progress_lap;
      lap && lap->engine == this && lap->peer == peer) {
    // Batched drain: progress() is pumping this peer's endpoints — stage
    // the event and let it apply the batch under ONE lock acquisition.
    auto* evs = static_cast<std::vector<RxEvent>*>(lap->events);
    RxEvent ev;
    ev.kind = RxEvent::Kind::SendComplete;
    ev.rail = rail_id;
    ev.track = track;
    ev.token = token;
    evs->push_back(std::move(ev));
    return;
  }
  PeerState* ps = find_peer(peer);
  if (!ps) return;  // torn down
  {
    PeerLock lk(*ps);
    apply_send_complete_locked(*ps, rail_id, track, token);
    drain_submit_ring_locked(*ps);
    if (rail_id < ps->rails.size()) {
      Rail& rail = *ps->rails[rail_id];
      if (rail.state != RailState::Down) {
        // The NIC became idle: this is the optimizer's trigger (paper §3).
        pump_rail_locked(*ps, rail);
        maybe_send_ack_locked(*ps, rail);
      }
    }
  }
  wake_peer(*ps);
  // Out-of-lap delivery (a driver IO thread, not a progress lap): follow-up
  // work — acks owed, tracks freed — belongs to the shard's owner.
  note_activity(*ps);
}

void Engine::apply_send_complete_locked(PeerState& ps, RailId rail_id,
                                        drv::TrackId track,
                                        std::uint64_t token) {
  if (rail_id >= ps.rails.size()) return;
  Rail& rail = *ps.rails[rail_id];
  // A dead rail's in-flight records were drained by the failover; late
  // completions from its driver refer to nothing and carry no news.
  if (rail.state == RailState::Down) return;
  complete_send_locked(ps, rail, track, token);
}

void Engine::complete_send_locked(PeerState& ps, Rail& rail,
                                  drv::TrackId track, std::uint64_t token) {
  InFlight* livep = ps.inflight.find(token);
  MADO_CHECK_MSG(livep != nullptr, "completion for unknown packet");
  InFlight& live = *livep;
  MADO_ASSERT(live.track == track);
  MADO_ASSERT(rail.outstanding[track] > 0);
  --rail.outstanding[track];
  MADO_ASSERT(rail.inflight_bytes >= live.wire_bytes);
  rail.inflight_bytes -= live.wire_bytes;
  if (cfg_.reliability && live.reliable) {
    // The record doubles as the retransmit buffer: it survives driver
    // completion until the peer's cumulative ack covers its sequence (and
    // every transmission has left the driver — gather segments must stay
    // valid until their completion fires).
    MADO_ASSERT(live.tx_outstanding > 0);
    --live.tx_outstanding;
    if (!live.acked || live.tx_outstanding > 0) return;
  }
  InFlight rec = std::move(live);
  ps.inflight.erase(token);
  finalize_inflight_locked(ps, rec);
}

void Engine::finalize_inflight_locked(PeerState& ps, InFlight& rec) {
  ps.slab.recycle(std::move(rec.header_block));

  if (rec.is_bulk) {
    RdvTx* rdvp = ps.rdv_tx.find(rec.rdv_token);
    MADO_CHECK(rdvp != nullptr);
    RdvTx& rdv = *rdvp;
    rdv.completed += rec.chunk_len;
    MADO_ASSERT(rdv.completed <= rdv.total);
    if (rdv.completed == rdv.total) {
      // Null state: a one-sided transfer whose completion is tracked by the
      // remote side (put ack) or the requester (get buffer) — only the
      // local buffer hold is released here.
      if (rdv.state)
        complete_frag_state_locked(ps, rdv.channel, rdv.state);
      ps.stats.inc(Ctr::TxRdvCompleted);
      if (rdv.rts_timed) {
        const Nanos now = timers_.now();
        ps.stats.observe(Hist::LatRdvComplete,
                         now - std::min(now, rdv.rts_time));
      }
      trace_locked(TraceEvent::RdvDone, ps.id, 0, rec.rdv_token, rdv.total);
      ps.rdv_tx.erase(rec.rdv_token);
    }
    return;
  }
  for (TxFrag& f : rec.frags) {
    if (f.kind == FragKind::Data && f.state)
      complete_frag_state_locked(ps, f.channel, f.state);
    // Return the payload copy (or control body) for reuse by future
    // submits; referenced (Later-mode) fragments have nothing to recycle.
    ps.slab.recycle(std::move(f.owned));
  }
}

void Engine::complete_frag_state_locked(PeerState& ps, ChannelId ch,
                                        const SendStateRef& state) {
  const std::uint32_t prev =
      state->pending.fetch_sub(1, std::memory_order_acq_rel);
  MADO_ASSERT(prev > 0);
  if (prev != 1) return;
  // A failed message already released its channel slot in
  // fail_state_locked; a late completion must not double-release.
  if (state->failed.load(std::memory_order_acquire)) return;
  auto it = ps.channels.find(ch);
  if (it != ps.channels.end()) {
    MADO_ASSERT(it->second.outstanding_sends > 0);
    --it->second.outstanding_sends;
  }
  ps.stats.inc(Ctr::TxMsgsCompleted);
  // submit → every fragment fully transmitted, split by traffic class.
  const Nanos now = timers_.now();
  ps.stats.observe(lat_complete(state->cls),
                   now - std::min(now, state->submit_time));
}

// ---- reliability layer -------------------------------------------------------
//
// Per-(rail, stream) go-back-N. Stream 0 carries eager packets, stream 1
// bulk chunks; each has an independent u32 sequence space compared on the
// serial-number circle (seq_less). Acks are cumulative ("next expected
// seq") and piggyback on every reliable data packet; a standalone ack
// packet (zero fragments, kPhFlagAck without kPhFlagRelSeq — so it is
// never acked itself) goes out only when nothing else is about to carry
// one. The retransmit timer is a persistent cancellable TimerHandle per
// (rail, stream): ack progress cancels or restarts it in O(1), and the
// handle's generation guards the one remaining race (a firing that left
// the wheel before a concurrent cancel/re-arm). Everything below is inert
// unless cfg_.reliability.

void Engine::process_acks_locked(PeerState& ps, Rail& rail,
                                 std::uint32_t ack_eager,
                                 std::uint32_t ack_bulk) {
  const std::uint32_t acks[2] = {ack_eager, ack_bulk};
  bool progressed = false;
  for (int s = 0; s < 2; ++s) {
    RelTrack& rt = rail.rel[s];
    const std::uint32_t a = acks[s];
    // Cumulative + serial comparison: stale acks (retransmitted headers
    // carry the values current at first transmit) are simply no news.
    if (!seq_less(rt.acked, a)) continue;
    while (!rt.unacked.empty()) {
      const std::uint64_t token = rt.unacked.front();
      InFlight* recp = ps.inflight.find(token);
      MADO_ASSERT(recp != nullptr);
      InFlight& rec = *recp;
      if (!seq_less(rec.rel_seq, a)) break;
      rec.acked = true;
      rt.unacked.pop_front();
      rt.unacked_bytes -= std::min(rt.unacked_bytes, rec.wire_bytes);
      if (rec.tx_outstanding == 0) {
        // All transmissions left the driver: safe to release the record
        // (gather segments no longer referenced).
        InFlight done = std::move(rec);
        ps.inflight.erase(token);
        finalize_inflight_locked(ps, done);
      }
    }
    rt.acked = a;
    rt.retries = 0;
    rt.rto = cfg_.rel_rto_initial;
    // Ack progress retires the pending timeout. Fully acked: cancel — the
    // wheel entry is removed NOW, so an idle engine holds no RTO deadline
    // (the old gen-counter idiom left it to fire into a no-op, keeping
    // has_pending() true and waking parked threads for nothing). A tail
    // remains: restart the clock for it (cancel + fresh arm, both O(1)).
    if (timers_.cancel(rt.rto_timer))
      eng_stats_.inc(Ctr::TimerCancelled);
    if (!rt.unacked.empty()) arm_rto_locked(ps, rail, s);
    progressed = true;
  }
  // The peer is demonstrably hearing us again.
  if (progressed && rail.state == RailState::Degraded)
    rail.state = RailState::Up;
}

void Engine::arm_rto_locked(PeerState& ps, Rail& rail, int stream) {
  RelTrack& rt = rail.rel[stream];
  if (rt.rto_timer.armed() || rt.unacked.empty()) return;
  if (rt.rto == 0) rt.rto = cfg_.rel_rto_initial;
  rt.armed_acked = rt.acked;
  if (!rt.rto_timer.has_callback()) {
    // Installed once per (rail, stream) for the rail's lifetime; every
    // subsequent re-arm is an O(1), allocation-free wheel splice. The
    // armed_acked check below stays even though cancel() is now physical:
    // a firing that already left the wheel when the ack-path cancel ran
    // (cancel returned false, generation unchanged) still reaches this
    // callback — progress since arming means "not a timeout".
    const NodeId peer = ps.id;
    const RailId rail_id = rail.port.rail;
    rt.rto_timer.set_callback(
        peer_timer_cb([this, peer, rail_id, stream](std::uint64_t gen) {
          PeerState* p = find_peer(peer);
          if (!p) return;
          {
            PeerLock lk(*p);
            if (rail_id >= p->rails.size()) return;
            Rail& r = *p->rails[rail_id];
            RelTrack& t = r.rel[stream];
            if (t.rto_timer.gen() != gen) {
              // A re-arm or cancel raced this firing out of the wheel.
              eng_stats_.inc(Ctr::TimerStaleFires);
              return;
            }
            if (r.state == RailState::Down || t.unacked.empty()) return;
            if (t.armed_acked != t.acked) {
              // Acks advanced since arming: not a timeout — restart the
              // clock for the remaining tail.
              arm_rto_locked(*p, r, stream);
            } else {
              rto_expired_locked(*p, r, stream);
            }
            drain_submit_ring_locked(*p);
            // rto_expired may have failed the rail over: pump the whole
            // peer so replayed traffic starts flowing on the survivor at
            // once.
            pump_peer_locked(*p);
          }
          wake_peer(*p);
        }));
  }
  // Floor the deadline with the cost model's estimate of draining every
  // un-acked byte on the rail (both streams share the physical link) plus
  // an ack round trip. A bare fixed RTO fires spuriously the moment one
  // bulk chunk's serialization time exceeds it; the optimizer and the
  // driver share the NIC cost model, so the engine can know the drain time
  // without measuring it (the paper's "parameterized by the capabilities
  // of the underlying network drivers").
  const sim::NicModel model = rail.ep->caps().model();
  const std::size_t pending_bytes =
      rail.rel[0].unacked_bytes + rail.rel[1].unacked_bytes;
  const Nanos wire_floor =
      model.busy_time(pending_bytes, 1) + 2 * model.propagation_latency();
  eng_stats_.inc(Ctr::TimerArms);
  arm_peer_timer(ps, rt.rto_timer, timers_.now() + rt.rto + wire_floor);
}

void Engine::rto_expired_locked(PeerState& ps, Rail& rail, int stream) {
  RelTrack& rt = rail.rel[stream];
  ++rt.retries;
  ps.stats.inc(Ctr::RelRtoBackoffs);
  if (rt.retries > kRelMaxRetries) {
    // The link is not coming back: give up and fail over.
    fail_rail_locked(ps, rail);
    return;
  }
  if (rail.state == RailState::Up) rail.state = RailState::Degraded;
  // Go-back-N: resend every unacked packet on this stream, oldest first
  // (the receiver discards anything past the first gap, so the whole tail
  // needs to fly again).
  for (const std::uint64_t token : rt.unacked) {
    InFlight* rec = ps.inflight.find(token);
    MADO_ASSERT(rec != nullptr);
    retransmit_locked(ps, rail, token, *rec);
  }
  rt.rto = std::min<Nanos>(rt.rto * 2, cfg_.rel_rto_max);
  arm_rto_locked(ps, rail, stream);
}

void Engine::retransmit_locked(PeerState& ps, Rail& rail, std::uint64_t token,
                               InFlight& rec) {
  // Rebuild the gather list from the retained record; the driver token is
  // reused so every completion (original or retransmit) finds the record.
  GatherList gl;
  gl.add(rec.header_block.data(), rec.header_block.size());
  if (rec.is_bulk) {
    RdvTx* rdv = ps.rdv_tx.find(rec.rdv_token);
    MADO_CHECK(rdv != nullptr);
    gl.add(rdv->data + rec.chunk_off, rec.chunk_len);
  } else {
    for (const TxFrag& f : rec.frags) gl.add(f.data(), f.len);
  }
  ++rec.tx_outstanding;
  ++rail.outstanding[rec.track];
  rail.inflight_bytes += rec.wire_bytes;
  ps.stats.inc(Ctr::RelRetransmits);
  ps.stats.inc(Ctr::TxBytes, rec.wire_bytes);
  trace_locked(TraceEvent::RelRetx, rec.peer, rec.rail, token,
               rec.rel_stream, rail.rel[rec.rel_stream].retries);
  MADO_TRACE("node " << self_ << " retransmit token=" << token << " stream="
                     << int(rec.rel_stream) << " seq=" << rec.rel_seq);
  rail.ep->send(rec.track, gl, token);
}

void Engine::maybe_send_ack_locked(PeerState& ps, Rail& rail) {
  if (!cfg_.reliability || !rail.ack_owed) return;
  if (rail.state == RailState::Down) return;
  // A queued data packet will piggyback the ack for free; only spend a
  // standalone packet when the stream toward the peer is otherwise silent.
  if (!rail.backlog.empty()) return;
  if (!rail.track_free(drv::kTrackEager)) return;

  const std::uint64_t token =
      next_pkt_token_.fetch_add(1, std::memory_order_relaxed);
  auto [recp, inserted] = ps.inflight.emplace(token);
  MADO_ASSERT(inserted);
  InFlight& rec = *recp;
  rec.peer = ps.id;
  rec.rail = rail.port.rail;
  rec.track = drv::kTrackEager;

  PacketHeader ph;
  ph.flags = kPhFlagAck;  // no RelSeq: acks are never themselves acked
  ph.nfrags = 0;
  ph.src_node = self_;
  ph.ack_eager = rail.rel[0].rx_next;
  ph.ack_bulk = rail.rel[1].rx_next;
  rail.ack_owed = false;
  rec.header_block = ps.slab.take(PacketHeader::kWireSize);
  encode_header_block(rec.header_block, ph, std::span<const FragHeader>());

  GatherList gl;
  gl.add(rec.header_block.data(), rec.header_block.size());
  rec.wire_bytes = gl.total_bytes();
  ++rail.outstanding[drv::kTrackEager];
  rail.inflight_bytes += rec.wire_bytes;
  ps.stats.inc(Ctr::RelAcksTx);
  ps.stats.inc(Ctr::TxBytes, rec.wire_bytes);
  rail.ep->send(drv::kTrackEager, gl, token);
}

bool Engine::rel_rx_accept_locked(PeerState& ps, Rail& rail, int stream,
                                  std::uint8_t flags, std::uint32_t seq) {
  if (!cfg_.reliability || !(flags & kPhFlagRelSeq)) return true;
  RelTrack& rt = rail.rel[stream];
  if (seq == rt.rx_next) {
    ++rt.rx_next;
    rail.ack_owed = true;
    return true;
  }
  rail.ack_owed = true;  // re-ack either way so the sender resynchronizes
  if (seq_less(seq, rt.rx_next)) {
    // Retransmitted copy of something already delivered (our ack was lost
    // or late): suppress the duplicate, refresh the ack.
    ps.stats.inc(Ctr::RelDupDrops);
  } else {
    // Gap: a go-back-N receiver drops past the first hole; the sender's
    // timeout resends the whole tail in order.
    ps.stats.inc(Ctr::RelOooDrops);
  }
  return false;
}

void Engine::fail_state_locked(PeerState& ps, ChannelId ch,
                               const SendStateRef& state) {
  if (!state) return;
  if (state->failed.exchange(true, std::memory_order_acq_rel)) return;
  ps.stats.inc(Ctr::RelFailedSends);
  if (ch == kRmaChannel) return;
  auto it = ps.channels.find(ch);
  if (it != ps.channels.end() && it->second.outstanding_sends > 0)
    --it->second.outstanding_sends;  // the message is over, unsuccessfully
}

void Engine::note_rdv_done_locked(PeerState& ps, std::uint64_t token) {
  if (!cfg_.reliability) return;
  if (!ps.rdv_rx_done.insert(token)) return;
  ps.rdv_rx_done_fifo.push_back(token);
  // Bounded by kRdvDoneWindow: old entries age out. A replay can
  // only arrive while its sender still holds the un-acked record, which is
  // far fresher than the retention horizon here.
  while (ps.rdv_rx_done_fifo.size() > kRdvDoneWindow) {
    ps.rdv_rx_done.erase(ps.rdv_rx_done_fifo.front());
    ps.rdv_rx_done_fifo.pop_front();
    ps.stats.inc(Ctr::CapRdvDoneEvictions);
  }
}

bool Engine::rdv_was_done_locked(const PeerState& ps,
                                 std::uint64_t token) const {
  return cfg_.reliability && ps.rdv_rx_done.contains(token);
}

void Engine::on_link_down(NodeId peer, RailId rail_id) {
  if (detail::ProgressLap* lap = detail::t_progress_lap;
      lap && lap->engine == this && lap->peer == peer) {
    auto* evs = static_cast<std::vector<RxEvent>*>(lap->events);
    RxEvent ev;
    ev.kind = RxEvent::Kind::LinkDown;
    ev.rail = rail_id;
    evs->push_back(std::move(ev));
    return;
  }
  PeerState* ps = find_peer(peer);
  if (!ps) return;
  {
    PeerLock lk(*ps);
    apply_link_down_locked(*ps, rail_id);
    drain_submit_ring_locked(*ps);
    pump_peer_locked(*ps);
  }
  wake_peer(*ps);
  note_activity(*ps);  // failover queued replays for the owner to pump
}

void Engine::apply_link_down_locked(PeerState& ps, RailId rail_id) {
  if (rail_id >= ps.rails.size()) return;
  Rail& rail = *ps.rails[rail_id];
  if (rail.state == RailState::Down) return;
  MADO_WARN("node " << self_ << ": rail " << int(rail_id) << " to peer "
                    << ps.id << " is down");
  fail_rail_locked(ps, rail);
}

void Engine::fail_rail_locked(PeerState& ps, Rail& rail) {
  if (rail.state == RailState::Down) return;
  rail.state = RailState::Down;
  ps.stats.inc(Ctr::RelRailFailovers);

  // Cancel every pending timer on this rail (nagle + both RTOs). Physical
  // cancellation: the wheel entries are unlinked here, not left to fire
  // into no-ops at their dead deadlines.
  if (timers_.cancel(rail.nagle_timer))
    eng_stats_.inc(Ctr::TimerCancelled);
  for (auto& rt : rail.rel)
    if (timers_.cancel(rt.rto_timer))
      eng_stats_.inc(Ctr::TimerCancelled);
  rail.ack_owed = false;

  Rail* survivor = nullptr;
  for (auto& r : ps.rails)
    if (r.get() != &rail && r->state != RailState::Down) {
      survivor = r.get();
      break;
    }
  // Submit-side fail-fast flag: once no rail is left, post()/rma() return
  // dead handles without even taking the peer lock.
  ps.any_rail_up.store(survivor != nullptr, std::memory_order_release);

  std::size_t replayed_frags = 0, replayed_chunks = 0, failed_sends = 0;
  const RailId rail_id = rail.port.rail;

  // Replayed fragments re-enter the collect layer "now" with fresh orders
  // (the flow index requires monotone (order, submit_time) pairs).
  const Nanos replay_time = std::max(timers_.now(), ps.last_drain_time);
  ps.last_drain_time = replay_time;

  // 1. In-flight records on this rail. Acked ones are finalized (the peer
  //    has the bytes; only the driver completion is lost with the link).
  //    Un-acked reliable ones replay onto the survivor in send order —
  //    their payload storage lives in the record, so replay is a re-queue,
  //    not a copy. Without reliability (or a survivor) the sends fail.
  std::vector<std::uint64_t> tokens;
  ps.inflight.for_each([&](std::uint64_t token, const InFlight& rec) {
    if (rec.rail == rail_id) tokens.push_back(token);
  });
  for (auto& rt : rail.rel) {
    rt.unacked.clear();
    rt.unacked_bytes = 0;
  }

  for (const std::uint64_t token : tokens) {
    InFlight* recp = ps.inflight.find(token);
    InFlight rec = std::move(*recp);
    ps.inflight.erase(token);
    if (rec.reliable && rec.acked) {
      finalize_inflight_locked(ps, rec);
      continue;
    }
    if (rec.reliable && survivor && cfg_.reliability) {
      if (rec.is_bulk) {
        // Re-queue the chunk; it rides the survivor's bulk stream with a
        // fresh sequence number.
        BulkChunk chunk{rec.rdv_token, rec.chunk_off, rec.chunk_len,
                        rec.chunk_stripe};
        if (cfg_.multirail == MultirailPolicy::DynamicSplit)
          ps.shared_bulk.push_back(chunk);
        else
          survivor->bulk_q.push_back(chunk);
        ++replayed_chunks;
        ps.stats.inc(Ctr::RelReplayedChunks);
      } else {
        for (TxFrag& f : rec.frags) {
          f.submit_time = replay_time;
          f.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
          ++replayed_frags;
          ps.stats.inc(Ctr::RelReplayedFrags);
          if (f.kind == FragKind::RdvCts || f.kind == FragKind::RmaAck)
            survivor->backlog.push_control(std::move(f));
          else
            survivor->backlog.push(std::move(f));
        }
        rec.frags.clear();
      }
      ps.slab.recycle(std::move(rec.header_block));
      continue;
    }
    // No survivor (or reliability off): the bytes are gone.
    ++failed_sends;
    if (rec.is_bulk) {
      if (RdvTx* rdv = ps.rdv_tx.find(rec.rdv_token))
        fail_state_locked(ps, rdv->channel, rdv->state);
    } else {
      for (TxFrag& f : rec.frags) {
        fail_state_locked(ps, f.channel, f.state);
        ps.slab.recycle(std::move(f.owned));
      }
    }
    ps.slab.recycle(std::move(rec.header_block));
  }

  // 2. The dead rail's backlog: control first (CTS/acks unblock the peer),
  //    then data flows oldest-head-first — the same order the optimizer
  //    would have consumed them in.
  while (rail.backlog.has_control()) {
    TxFrag f = rail.backlog.pop_control();
    if (survivor) {
      f.submit_time = replay_time;
      f.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
      ++replayed_frags;
      survivor->backlog.push_control(std::move(f));
    } else {
      ++failed_sends;
      fail_state_locked(ps, f.channel, f.state);
      ps.slab.recycle(std::move(f.owned));
    }
  }
  while (!rail.backlog.empty()) {
    TxFrag f = rail.backlog.pop(rail.backlog.oldest_flow());
    if (survivor) {
      f.submit_time = replay_time;
      f.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
      ++replayed_frags;
      survivor->backlog.push(std::move(f));
    } else {
      ++failed_sends;
      fail_state_locked(ps, f.channel, f.state);
      ps.slab.recycle(std::move(f.owned));
    }
  }

  // 3. Queued bulk chunks follow their policy onto the survivor.
  while (!rail.bulk_q.empty()) {
    BulkChunk chunk = rail.bulk_q.front();
    rail.bulk_q.pop_front();
    if (survivor) {
      if (cfg_.multirail == MultirailPolicy::DynamicSplit)
        ps.shared_bulk.push_back(chunk);
      else
        survivor->bulk_q.push_back(chunk);
      ++replayed_chunks;
    }
  }

  // 4. No survivor: purge everything that would wedge flush() — the sends
  //    already failed above, keeping their queues would just hang waiters.
  if (!survivor) {
    ps.shared_bulk.clear();
    // fail_state_locked touches channels/send states only, never rdv_tx
    // itself — safe inside for_each (no same-table mutation).
    ps.rdv_tx.for_each([&](std::uint64_t, RdvTx& rdv) {
      fail_state_locked(ps, rdv.channel, rdv.state);
    });
    ps.rdv_tx.clear();
  }

  // The driver may still deliver late completions for this rail; they are
  // ignored (apply_send_complete early-returns on Down), so the accounting
  // is reset here in one stroke.
  rail.outstanding.assign(rail.outstanding.size(), 0);
  rail.inflight_bytes = 0;

  trace_locked(TraceEvent::RailDown, ps.id, rail_id, replayed_frags,
               replayed_chunks, failed_sends);
  MADO_WARN("node " << self_ << ": failover off rail " << int(rail_id)
                    << " to peer " << ps.id << ": replayed "
                    << replayed_frags << " frags, " << replayed_chunks
                    << " chunks, failed " << failed_sends << " sends"
                    << (survivor ? "" : " (no surviving rail)"));
}

// ---- progression / waiting -------------------------------------------------

bool Engine::pump_shard(PeerState& ps, std::vector<RxEvent>& events,
                        std::vector<drv::DriverEndpoint*>& eps) {
  // Claim the shard: whoever wins drives the whole pump. A lost claim means
  // another thread (owner, stealer, or a manual progress() caller) is
  // already on it — skipping is correct, not a missed lap.
  bool expected = false;
  if (!ps.pumping.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
    return false;
  events.clear();
  eps.clear();
  {
    // Brief: snapshot the endpoint pointers (rails vector only grows, but
    // add_rail may be concurrent during setup).
    std::lock_guard<std::mutex> lk(ps.mu);
    for (auto& rail : ps.rails) eps.push_back(rail->ep.get());
  }
  // Pump every endpoint with the lap context active: driver callbacks
  // stage into `events` instead of taking the peer lock per event.
  {
    detail::ProgressLap lap;
    lap.engine = this;
    lap.peer = ps.id;
    lap.events = &events;
    detail::LapScope scope(&lap);
    for (auto* ep : eps) ep->progress();
  }
  const bool have_ring = ps.ring_pending.load(std::memory_order_acquire) > 0;
  bool did_work = false;
  if (!events.empty() || have_ring) {
    did_work = true;
    {
      // ONE peer-lock acquisition applies the whole batch in arrival
      // order, drains parked submissions, pumps, and settles owed acks.
      PeerLock lk(ps);
      for (RxEvent& ev : events) {
        switch (ev.kind) {
          case RxEvent::Kind::SendComplete:
            apply_send_complete_locked(ps, ev.rail, ev.track, ev.token);
            break;
          case RxEvent::Kind::Packet:
            apply_packet_locked(ps, ev.rail, ev.payload);
            break;
          case RxEvent::Kind::SendFailed:
          case RxEvent::Kind::LinkDown:
            apply_link_down_locked(ps, ev.rail);
            break;
        }
      }
      drain_submit_ring_locked(ps);
      pump_peer_locked(ps);
      if (cfg_.reliability)
        for (auto& rail : ps.rails) maybe_send_ack_locked(ps, *rail);
    }
    wake_peer(ps);
  }
  ps.pumping.store(false, std::memory_order_release);
  return did_work;
}

bool Engine::progress() {
  bool did_work = false;
  // Snapshot the peer list (read-mostly map; shards are never erased).
  std::vector<PeerState*> peers;
  {
    std::shared_lock<std::shared_mutex> lk(peers_mu_);
    peers.reserve(peers_.size());
    for (auto& [id, ps] : peers_) peers.push_back(ps.get());
  }
  std::vector<RxEvent> events;
  std::vector<drv::DriverEndpoint*> eps;
  for (PeerState* ps : peers)
    if (pump_shard(*ps, events, eps)) did_work = true;
  if (timers_.run_due() > 0) did_work = true;
  return did_work;
}

Nanos Engine::park_bound() const {
  Nanos bound = cfg_.prog_idle_wait;
  const Nanos next = timers_.next_deadline();
  if (next != TimerHost::kNoDeadline) {
    const Nanos now = timers_.now();
    bound = std::min(bound, next > now ? next - now : Nanos{1});
  }
  return std::max(bound, Nanos{1});
}

TimerHandle::Callback Engine::peer_timer_cb(
    std::function<void(std::uint64_t)> fn) {
  // Built once per handle: steady-state re-arms reuse this closure, so the
  // per-packet RTO path never allocates. The callback runs on whichever
  // thread runs the wheel; fn takes the peer lock itself.
  return [alive = alive_, fn = std::move(fn)](std::uint64_t gen) {
    if (alive->load()) fn(gen);
  };
}

void Engine::arm_peer_timer(PeerState& ps, TimerHandle& h, Nanos when) {
  timers_.arm(h, when);
  // A thread parked against the previous earliest deadline (park_bound
  // snapshotted BEFORE this arm) would sleep out its full bound and fire
  // this timer late. Wake the shard's owner so it re-derives the bound.
  // Slot mutexes sit below the peer lock in the lock order, so notifying
  // from under ps.mu is legal (same precedent as note_activity in rma_put).
  wake_slot(*prog_slots_[ps.owner]);
}

void Engine::set_external_progress(std::function<bool()> fn) {
  std::lock_guard<std::mutex> lk(misc_mu_);
  external_progress_ = std::move(fn);
}

void Engine::set_tracer(Tracer* tracer) {
  tracer_.store(tracer, std::memory_order_release);
  // Detach quiescence: every trace site runs under some peer lock or under
  // peers_mu_. Sweeping all of them (one at a time) guarantees that when we
  // return, no thread still references the previous tracer — the caller may
  // destroy it.
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  for (auto& [id, ps] : peers_) {
    std::lock_guard<std::mutex> plk(ps->mu);
  }
}

std::map<std::string, std::uint64_t, std::less<>> Engine::counters_snapshot()
    const {
  // Sharded counters aggregate on read: no engine or peer lock, so any
  // sampling rate is safe against the hot path.
  return stats_.counters();
}

void Engine::on_send_failed(NodeId peer, RailId rail_id, drv::TrackId track,
                            std::uint64_t token) {
  (void)track;
  (void)token;
  // A send the driver will never complete means the wire under the rail is
  // gone. Failing over the whole rail replays or fails this token's record
  // together with everything else queued behind it — and is idempotent, so
  // the burst of failures a draining tx thread emits (followed by the
  // driver's own on_link_down) collapses into one failover.
  on_link_down(peer, rail_id);
}

void Engine::progress_thread_main(std::size_t idx) {
  ProgSlot& slot = *prog_slots_[idx];

  // Ownership partition, re-snapshotted only when add_rail grows the map
  // (peers are never erased, so a stale snapshot is merely incomplete).
  std::vector<PeerState*> mine, others;
  std::size_t seen_peers = 0;
  std::vector<RxEvent> events;
  std::vector<drv::DriverEndpoint*> eps;

  // One full poll pass: every owned shard, then — only when idle and past
  // the yield phase — at most one stolen shard, then due timers.
  auto lap = [&](bool steal_ok) {
    {
      std::shared_lock<std::shared_mutex> lk(peers_mu_);
      if (peers_.size() != seen_peers) {
        seen_peers = peers_.size();
        mine.clear();
        others.clear();
        for (auto& [id, ps] : peers_)
          (ps->owner == idx ? mine : others).push_back(ps.get());
      }
    }
    bool work = false;
    for (PeerState* ps : mine)
      if (pump_shard(*ps, events, eps)) work = true;
    if (steal_ok && !work) {
      // Work stealing: this thread has nothing of its own — help a busy
      // (or wedged) owner by pumping ONE of its shards. One per lap keeps
      // the help incremental; the victim's shards stay primarily its own.
      for (PeerState* ps : others) {
        if (pump_shard(*ps, events, eps)) {
          work = true;
          slot.steals->fetch_add(1, std::memory_order_relaxed);
          eng_stats_.inc(Ctr::ProgSteals);
          break;
        }
      }
    }
    if (timers_.run_due() > 0) work = true;
    slot.laps->fetch_add(1, std::memory_order_relaxed);
    eng_stats_.inc(Ctr::ProgShardLaps);
    return work;
  };

  // Adaptive backoff: spin (immediate re-poll) while work is fresh, yield
  // the core when a burst ends, then park on the slot's cv. The park stays
  // bounded (park_bound) because driver IO threads cannot notify — they
  // only feed queues the lap polls — and due timers must not oversleep.
  const std::size_t spin_laps = cfg_.prog_spin_laps;
  const std::size_t yield_laps = spin_laps + cfg_.prog_yield_laps;
  std::size_t idle = 0;
  while (!stop_progress_.load(std::memory_order_acquire)) {
    if (lap(idle >= yield_laps)) {
      idle = 0;
      continue;
    }
    ++idle;
    if (idle <= spin_laps) continue;
    if (idle <= yield_laps) {
      std::this_thread::yield();
      continue;
    }
    // Eventcount park (closes the lost-wakeup race the old global park
    // had): record the ticket, arm the slot, poll ONCE more — activity
    // published before the arm is caught by that poll; activity after it
    // bumps the ticket, which the check under the lock sees. Either way a
    // submit racing the park costs at most one lap, never a full
    // prog_idle_wait.
    const std::uint64_t ticket =
        slot.ticket.load(std::memory_order_seq_cst);
    slot.armed.store(true, std::memory_order_seq_cst);
    if (lap(true)) {
      slot.armed.store(false, std::memory_order_seq_cst);
      idle = 0;
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(slot.mu);
      if (stop_progress_.load(std::memory_order_acquire)) {
        slot.armed.store(false, std::memory_order_seq_cst);
        break;
      }
      if (slot.ticket.load(std::memory_order_seq_cst) == ticket) {
        slot.idle_sleeps->fetch_add(1, std::memory_order_relaxed);
        eng_stats_.inc(Ctr::ProgIdleSleeps);
        slot.parked.store(true, std::memory_order_seq_cst);
        slot.cv.wait_for(lk, std::chrono::nanoseconds(park_bound()));
        slot.parked.store(false, std::memory_order_seq_cst);
      }
    }
    slot.armed.store(false, std::memory_order_seq_cst);
    slot.wakeups->fetch_add(1, std::memory_order_relaxed);
    eng_stats_.inc(Ctr::ProgWakeups);
    // Resume in the yield phase: if still idle we re-park quickly instead
    // of burning a fresh spin window.
    idle = yield_laps;
  }
  // Teardown: one last pass over the owned shards so RxEvents and ring ops
  // staged while the stop flag was being raised drain before the join.
  lap(false);
}

void Engine::start_progress_thread() {
  MADO_CHECK_MSG(progress_threads_.empty(), "progress threads already running");
  stop_progress_.store(false);
  prog_running_.store(true, std::memory_order_release);
  progress_threads_.reserve(prog_nthreads_);
  for (std::size_t i = 0; i < prog_nthreads_; ++i)
    progress_threads_.emplace_back([this, i] { progress_thread_main(i); });
}

void Engine::stop_progress_thread() {
  if (progress_threads_.empty()) return;
  stop_progress_.store(true, std::memory_order_seq_cst);
  for (auto& slot : prog_slots_) {
    { std::lock_guard<std::mutex> lk(slot->mu); }
    slot->cv.notify_all();
  }
  for (auto& t : progress_threads_) t.join();
  progress_threads_.clear();
  prog_running_.store(false, std::memory_order_release);
  // Teardown ordering: a submit, arrival or timer can land between a
  // thread's final lap and the join. Now that no thread owns anything, one
  // manual pass delivers every staged event, parked ring op and due timer
  // — callers observe a fully drained engine after stop.
  progress();
}

bool Engine::wait_until(const std::function<bool()>& pred, Nanos timeout) {
  return wait_until_impl(pred, timeout);
}

bool Engine::wait_until_impl(const std::function<bool()>& pred,
                             Nanos timeout) {
  std::function<bool()> ext;
  {
    std::lock_guard<std::mutex> lk(misc_mu_);
    ext = external_progress_;
  }
  if (ext) {
    // Cooperative simulation mode: pump the world until pred holds or the
    // event queue drains (virtual time — wall timeout does not apply).
    // pred synchronizes itself.
    for (;;) {
      if (pred()) return true;
      if (!ext()) return pred();
    }
  }
  const Nanos deadline = timers_.now() + timeout;
  global_waiters_.fetch_add(1, std::memory_order_seq_cst);
  bool ok = false;
  for (;;) {
    // Epoch before pred: a wake_global() that lands after this load (even
    // while pred runs) moves the epoch, and the check below skips the park.
    const std::uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    // Self-pump only when no progress thread is attached: with one (or N)
    // running, a waiter pumping too would double-poll endpoints and
    // contend every shard lock it touches (inflating opt.lock_wait_ns for
    // nothing) — park on the cv and let the owners work instead. Checked
    // every iteration so a stop_progress_thread() mid-wait hands the
    // pumping duty back to the waiter.
    if (!prog_running_.load(std::memory_order_acquire)) {
      progress();
      eng_stats_.inc(Ctr::ProgSelfPumps);
    }
    if (pred()) {
      ok = true;
      break;
    }
    if (timers_.now() > deadline) break;
    std::unique_lock<std::mutex> lk(wait_mu_);
    if (global_epoch_.load(std::memory_order_seq_cst) == epoch)
      cv_.wait_for(lk, std::chrono::microseconds(200));
  }
  global_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  return ok;
}

bool Engine::wait_peer_impl(PeerState& ps, const std::function<bool()>& pred,
                            Nanos timeout) {
  // Already satisfied (an arrived message, a completed send): no hook copy,
  // no waiter registration, no self-pump.
  if (pred()) return true;
  std::function<bool()> ext;
  {
    std::lock_guard<std::mutex> lk(misc_mu_);
    ext = external_progress_;
  }
  if (ext) {
    for (;;) {
      if (!ext()) return pred();
      if (pred()) return true;
    }
  }
  const Nanos deadline = timers_.now() + timeout;
  ps.waiters.fetch_add(1, std::memory_order_seq_cst);
  bool ok = false;
  for (;;) {
    // Same epoch protocol and self-pump gate as wait_until_impl, on the
    // peer's own cv.
    const std::uint64_t epoch = ps.wake_epoch.load(std::memory_order_seq_cst);
    if (!prog_running_.load(std::memory_order_acquire)) {
      progress();
      eng_stats_.inc(Ctr::ProgSelfPumps);
    }
    if (pred()) {
      ok = true;
      break;
    }
    if (timers_.now() > deadline) break;
    std::unique_lock<std::mutex> lk(ps.wait_mu);
    if (ps.wake_epoch.load(std::memory_order_seq_cst) == epoch)
      ps.cv.wait_for(lk, std::chrono::microseconds(200));
  }
  ps.waiters.fetch_sub(1, std::memory_order_seq_cst);
  return ok;
}

bool Engine::send_done(const SendHandle& h) const {
  MADO_CHECK(h.valid());
  return h.state_->pending.load(std::memory_order_acquire) == 0;
}

bool Engine::send_failed(const SendHandle& h) const {
  MADO_CHECK(h.valid());
  return h.state_->failed.load(std::memory_order_acquire);
}

bool Engine::wait_send(const SendHandle& h, Nanos timeout) {
  MADO_CHECK(h.valid());
  const SendStateRef state = h.state_;
  bool ok = false;
  const auto pred = [&state, &ok] {
    ok = state->pending.load(std::memory_order_acquire) == 0;
    // failed: stop waiting, report false
    return ok || state->failed.load(std::memory_order_acquire);
  };
  if (pred()) return ok;  // already over: no peer lookup, no wait
  PeerState* ps = find_peer(state->peer);
  if (ps)
    wait_peer_impl(*ps, pred, timeout);
  else
    wait_until_impl(pred, timeout);
  return ok;
}

bool Engine::flush(Nanos timeout) {
  return wait_until_impl(
      [this] {
        std::shared_lock<std::shared_mutex> plk(peers_mu_);
        for (const auto& [id, ps] : peers_) {
          // Check parked submissions BEFORE the queues: a drained ring op's
          // fragments are visible under the lock taken just below.
          if (ps->ring_pending.load(std::memory_order_acquire) > 0)
            return false;
          std::lock_guard<std::mutex> lk(ps->mu);
          if (!ps->inflight.empty() || !ps->rdv_tx.empty() ||
              !ps->shared_bulk.empty())
            return false;
          for (const auto& rail : ps->rails)
            if (!rail->backlog.empty() || !rail->bulk_q.empty()) return false;
        }
        return true;
      },
      timeout);
}

// ---- one-sided put/get -------------------------------------------------------

void Engine::expose_window(WindowId id, void* base, std::size_t len) {
  MADO_CHECK(base != nullptr && len > 0);
  std::unique_lock<std::shared_mutex> lk(windows_mu_);
  const auto [it, inserted] =
      windows_.emplace(id, RmaWindow{static_cast<Byte*>(base), len});
  MADO_CHECK_MSG(inserted, "window " << id << " already exposed");
}

Engine::RmaWindow Engine::window_checked(WindowId id, std::uint64_t offset,
                                         std::uint64_t len) const {
  std::shared_lock<std::shared_mutex> lk(windows_mu_);
  auto it = windows_.find(id);
  MADO_CHECK_MSG(it != windows_.end(), "unknown RMA window " << id);
  MADO_CHECK_MSG(offset + len <= it->second.len,
                 "RMA access [" << offset << ", " << offset + len
                                << ") outside window " << id << " of size "
                                << it->second.len);
  return it->second;
}

TxFrag Engine::make_rma_frag_locked(PeerState& ps, FragKind kind) {
  TxFrag tf;
  tf.channel = kRmaChannel;
  tf.msg_seq = 0;
  tf.idx = 0;
  tf.nfrags_total = 1;
  tf.last = true;
  tf.kind = kind;
  tf.cls = kind == FragKind::RmaAck ? TrafficClass::Control
                                    : TrafficClass::PutGet;
  const Nanos t = std::max(timers_.now(), ps.last_drain_time);
  ps.last_drain_time = t;
  tf.submit_time = t;
  tf.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
  return tf;
}

SendHandle Engine::rma_put(NodeId peer, WindowId window, std::uint64_t offset,
                           const void* data, std::size_t len,
                           TrafficClass cls) {
  MADO_CHECK(data != nullptr && len > 0);
  PeerState& ps = peer_ref(peer);
  auto state = std::make_shared<SendState>();
  state->pending.store(1, std::memory_order_relaxed);  // peer's RmaAck
  state->submit_time = timers_.now();
  state->cls = cls;
  state->peer = peer;

  PeerLock lk(ps);
  drain_submit_ring_locked(ps);
  MADO_CHECK_MSG(!ps.rails.empty(), "no rails toward peer " << peer);
  const RailId rail_id = rail_for_class_locked(ps, cls);
  Rail& rail = *ps.rails[rail_id];
  if (rail.state == RailState::Down) {
    state->failed.store(true, std::memory_order_release);
    ps.stats.inc(Ctr::RelFailedSends);  // every rail toward the peer is dead
    return SendHandle(state);
  }
  const std::size_t rdv_thr = cfg_.rdv_threshold_override != 0
                                  ? cfg_.rdv_threshold_override
                                  : rail.ep->caps().rdv_threshold;

  const std::uint64_t ack_token =
      next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
  ps.rma_acks.emplace(ack_token, state);

  if (len >= rdv_thr) {
    RdvTx rdv;
    rdv.peer = peer;
    rdv.channel = kRmaChannel;
    rdv.data = static_cast<const Byte*>(data);
    rdv.total = len;
    rdv.state = nullptr;  // handle completes on the ack, not on chunks
    rdv.rts_time = timers_.now();
    rdv.rts_timed = true;
    rdv.cls = cls;
    ps.rdv_tx.emplace(ack_token, std::move(rdv));
    trace_locked(TraceEvent::RdvRts, peer, rail_id, ack_token, len);

    TxFrag tf = make_rma_frag_locked(ps, FragKind::RdvRts);
    RtsBody body;
    body.token = ack_token;
    body.total_len = len;
    body.target = RdvTarget::Window;
    body.window = window;
    body.offset = offset;
    body.aux = ack_token;
    tf.owned = ps.slab.take(RtsBody::kWireSize);
    encode_rts(tf.owned, body);
    tf.len = tf.owned.size();
    rail.backlog.push(std::move(tf));
  } else {
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaPut);
    tf.owned = ps.slab.take(RmaPutBody::kWireSize + len);
    encode_rma_put(tf.owned, RmaPutBody{window, offset, ack_token});
    const auto* p = static_cast<const Byte*>(data);
    tf.owned.insert(tf.owned.end(), p, p + len);
    tf.len = tf.owned.size();
    rail.backlog.push(std::move(tf));
  }
  ps.stats.inc(Ctr::RmaPuts);
  trace_locked(TraceEvent::RmaOp, peer, rail_id, 0, window, len);
  pump_rail_locked(ps, rail);
  // Wake the shard's owner for the completion poll (slot mutexes sit below
  // ps.mu in the lock order, so notifying under the peer lock is fine).
  note_activity(ps);
  return SendHandle(state);
}

SendHandle Engine::rma_get(NodeId peer, WindowId window, std::uint64_t offset,
                           void* dest, std::size_t len, TrafficClass cls) {
  MADO_CHECK(dest != nullptr && len > 0);
  PeerState& ps = peer_ref(peer);
  auto state = std::make_shared<SendState>();
  state->pending.store(1, std::memory_order_relaxed);  // all bytes landed
  state->submit_time = timers_.now();
  state->cls = cls;
  state->peer = peer;

  PeerLock lk(ps);
  drain_submit_ring_locked(ps);
  MADO_CHECK_MSG(!ps.rails.empty(), "no rails toward peer " << peer);
  const RailId rail_id = rail_for_class_locked(ps, cls);
  Rail& rail = *ps.rails[rail_id];
  if (rail.state == RailState::Down) {
    state->failed.store(true, std::memory_order_release);
    ps.stats.inc(Ctr::RelFailedSends);  // every rail toward the peer is dead
    return SendHandle(state);
  }
  const std::uint64_t get_token =
      next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
  ps.pending_gets.emplace(get_token,
                          PendingGet{static_cast<Byte*>(dest), len, state});

  TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaGet);
  tf.owned = ps.slab.take(RmaGetBody::kWireSize);
  encode_rma_get(tf.owned, RmaGetBody{window, offset, len, get_token});
  tf.len = tf.owned.size();
  rail.backlog.push(std::move(tf));
  ps.stats.inc(Ctr::RmaGets);
  trace_locked(TraceEvent::RmaOp, peer, rail_id, 1, window, len);
  pump_rail_locked(ps, rail);
  note_activity(ps);  // wake the shard's owner for the completion poll
  return SendHandle(state);
}

// ---- traffic classes --------------------------------------------------------

void Engine::set_class_rail(TrafficClass cls, RailId rail) {
  class_rail_[static_cast<std::size_t>(cls)].store(rail,
                                                   std::memory_order_relaxed);
}

RailId Engine::class_rail(TrafficClass cls) const {
  return class_rail_[static_cast<std::size_t>(cls)].load(
      std::memory_order_relaxed);
}

void Engine::rebalance_classes() {
  std::shared_lock<std::shared_mutex> plk(peers_mu_);
  // Load per rail index, summed over peers: queued + in-flight bytes. A
  // rail that is Down toward ANY peer is ineligible — pinning a class to it
  // would strand every peer sharing that index. Peer locks are taken one at
  // a time; the view is per-peer consistent, which is all a heuristic needs.
  std::vector<std::size_t> load;
  std::vector<bool> dead;
  for (const auto& [id, ps] : peers_) {
    std::lock_guard<std::mutex> lk(ps->mu);
    if (ps->rails.size() > load.size()) {
      load.resize(ps->rails.size(), 0);
      dead.resize(ps->rails.size(), false);
    }
    for (std::size_t i = 0; i < ps->rails.size(); ++i) {
      const Rail& r = *ps->rails[i];
      if (r.state == RailState::Down) dead[i] = true;
      std::size_t bulk_bytes = 0;
      for (const BulkChunk& c : r.bulk_q) bulk_bytes += c.len;
      load[i] += r.backlog.byte_count() + r.inflight_bytes + bulk_bytes;
    }
  }
  if (load.size() < 2) return;  // nothing to balance
  std::size_t best = load.size();
  for (std::size_t i = 0; i < load.size(); ++i) {
    if (dead[i]) continue;
    if (best == load.size() || load[i] < load[best]) best = i;
  }
  if (best == load.size()) return;  // every rail is dead
  const auto lightest = static_cast<RailId>(best);
  // Latency-sensitive classes follow the least-loaded rail; bulk classes
  // keep their assignment (their chunks already spread per MultirailPolicy).
  class_rail_[static_cast<std::size_t>(TrafficClass::Control)].store(
      lightest, std::memory_order_relaxed);
  class_rail_[static_cast<std::size_t>(TrafficClass::SmallEager)].store(
      lightest, std::memory_order_relaxed);
  eng_stats_.inc(Ctr::SchedRebalances);
  trace_locked(TraceEvent::Rebalance, 0, lightest, lightest);
}

void Engine::set_auto_rebalance(Nanos interval) {
  MADO_CHECK(interval > 0);
  {
    std::lock_guard<std::mutex> lk(misc_mu_);
    auto_rebalance_interval_ = interval;
  }
  // Self-re-arming tick. NOTE: in simulation this keeps the fabric event
  // queue non-empty forever; drive such runs with run_until()/wait_until()
  // rather than run_until_idle().
  //
  // Ownership: the engine holds the only strong reference
  // (rebalance_tick_); the scheduled copies capture a weak_ptr. Capturing
  // `tick` strongly here would make the closure own itself — a shared_ptr
  // cycle that leaks the function and keeps a superseded chain re-arming
  // after a second set_auto_rebalance call.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, alive = alive_,
           weak = std::weak_ptr<std::function<void()>>(tick)] {
    if (!alive->load()) return;
    rebalance_classes();
    Nanos period;
    {
      std::lock_guard<std::mutex> lk(misc_mu_);
      period = auto_rebalance_interval_;
    }
    auto self = weak.lock();  // null once the engine dropped the chain
    if (period > 0 && self)
      timers_.schedule_at(timers_.now() + period, *self);
  };
  {
    std::lock_guard<std::mutex> lk(misc_mu_);
    rebalance_tick_ = tick;
  }
  timers_.schedule_at(timers_.now() + interval, *tick);
}

// ---- introspection ----------------------------------------------------------

std::size_t Engine::backlog_frags(NodeId peer, RailId rail) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK(ps != nullptr);
  std::lock_guard<std::mutex> lk(ps->mu);
  MADO_CHECK(rail < ps->rails.size());
  return ps->rails[rail]->backlog.frag_count();
}

std::size_t Engine::inflight_packets() const {
  std::shared_lock<std::shared_mutex> plk(peers_mu_);
  std::size_t n = 0;
  for (const auto& [id, ps] : peers_) {
    std::lock_guard<std::mutex> lk(ps->mu);
    n += ps->inflight.size();
  }
  return n;
}

std::size_t Engine::pending_bulk_chunks(NodeId peer) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK(ps != nullptr);
  std::lock_guard<std::mutex> lk(ps->mu);
  std::size_t n = ps->shared_bulk.size();
  for (const auto& rail : ps->rails) n += rail->bulk_q.size();
  return n;
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot s;
  std::shared_lock<std::shared_mutex> plk(peers_mu_);
  for (const auto& [id, ps] : peers_) {
    std::lock_guard<std::mutex> lk(ps->mu);
    Snapshot::PeerInfo pi;
    pi.id = id;
    pi.shared_bulk_chunks = ps->shared_bulk.size();
    pi.open_channels = ps->channels.size();
    pi.rx_pending_msgs = ps->rx_msgs.size();
    pi.submit_ring_pending =
        ps->ring_pending.load(std::memory_order_acquire);
    for (const auto& rail : ps->rails) {
      Snapshot::RailInfo ri;
      ri.driver = rail->ep->caps().name;
      ri.state = rail->state;
      ri.backlog_frags = rail->backlog.frag_count();
      ri.backlog_bytes = rail->backlog.byte_count();
      ri.bulk_chunks = rail->bulk_q.size();
      for (std::size_t n : rail->outstanding) ri.outstanding_packets += n;
      ri.inflight_bytes = rail->inflight_bytes;
      ri.unacked_packets =
          rail->rel[0].unacked.size() + rail->rel[1].unacked.size();
      pi.rails.push_back(std::move(ri));
    }
    s.inflight_packets += ps->inflight.size();
    s.rdv_tx_active += ps->rdv_tx.size();
    s.rdv_rx_active += ps->rdv_rx.size();
    s.pending_gets += ps->pending_gets.size();
    s.peers.push_back(std::move(pi));
  }
  plk.unlock();
  {
    std::shared_lock<std::shared_mutex> wlk(windows_mu_);
    s.windows_exposed = windows_.size();
  }
  return s;
}

bool Engine::Snapshot::quiescent() const {
  if (inflight_packets || rdv_tx_active || rdv_rx_active || pending_gets)
    return false;
  for (const auto& p : peers) {
    if (p.shared_bulk_chunks || p.submit_ring_pending) return false;
    for (const auto& r : p.rails)
      if (r.backlog_frags || r.bulk_chunks || r.outstanding_packets)
        return false;
  }
  return true;
}

std::string Engine::Snapshot::to_string() const {
  std::ostringstream os;
  os << "inflight=" << inflight_packets << " rdv_tx=" << rdv_tx_active
     << " rdv_rx=" << rdv_rx_active << " windows=" << windows_exposed
     << " pending_gets=" << pending_gets << "\n";
  for (const auto& p : peers) {
    os << "peer " << p.id << ": channels=" << p.open_channels
       << " rx_pending=" << p.rx_pending_msgs
       << " shared_bulk=" << p.shared_bulk_chunks
       << " ring_pending=" << p.submit_ring_pending << "\n";
    for (std::size_t i = 0; i < p.rails.size(); ++i) {
      const auto& r = p.rails[i];
      os << "  rail " << i << " (" << r.driver << "): state="
         << core::to_string(r.state) << ", backlog=" << r.backlog_frags
         << " frags/" << r.backlog_bytes << " B, bulk_q=" << r.bulk_chunks
         << ", outstanding=" << r.outstanding_packets << " pkts/"
         << r.inflight_bytes << " B, unacked=" << r.unacked_packets << "\n";
    }
  }
  return os.str();
}

// ---- handle plumbing ---------------------------------------------------------

SendHandle Channel::post(Message msg) {
  MADO_CHECK(valid());
  return eng_->submit(Engine::shard_of(peer_cache_), id_, cls_,
                      std::move(msg));
}

IncomingMessage Channel::begin_recv() {
  MADO_CHECK(valid());
  return IncomingMessage(eng_, peer_cache_, id_,
                         eng_->attach_recv(Engine::shard_of(peer_cache_), id_));
}

void Channel::flush() {
  MADO_CHECK(valid());
  eng_->flush_channel(Engine::shard_of(peer_cache_), id_);
}

bool Channel::probe() const {
  MADO_CHECK(valid());
  return eng_->probe_recv(Engine::shard_of(peer_cache_), id_);
}

void IncomingMessage::unpack(void* buf, std::size_t len, RecvMode mode) {
  MADO_CHECK_MSG(!finished_, "unpack after finish");
  auto& ps = Engine::shard_of(peer_cache_);
  const bool done = eng_->post_unpack(ps, ch_, seq_, next_, buf, len);
  if (mode == RecvMode::Express && !done) eng_->wait_frag(ps, ch_, seq_, next_);
  ++next_;
}

std::size_t IncomingMessage::next_size() {
  MADO_CHECK_MSG(!finished_, "next_size after finish");
  return eng_->wait_frag_size(Engine::shard_of(peer_cache_), ch_, seq_, next_);
}

Bytes IncomingMessage::unpack_bytes() {
  Bytes out(next_size());
  unpack(out.data(), out.size(), RecvMode::Express);
  return out;
}

void IncomingMessage::finish() {
  MADO_CHECK_MSG(!finished_, "finish called twice");
  eng_->finish_recv(Engine::shard_of(peer_cache_), ch_, seq_, next_);
  finished_ = true;
}

bool IncomingMessage::ready() const {
  MADO_CHECK_MSG(!finished_, "ready after finish");
  return eng_->recv_complete(Engine::shard_of(peer_cache_), ch_, seq_);
}

}  // namespace mado::core
