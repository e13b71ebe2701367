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

namespace {
/// Bytes an eager packet adds around its largest data fragment: the packet
/// header, that fragment's header and an RmaPut body.
constexpr std::size_t kEagerFrameOverhead = PacketHeader::kWireSize +
                                            FragHeader::kWireSize +
                                            RmaPutBody::kWireSize;
/// Progress-thread idle backoff: consecutive idle laps spent spinning, then
/// yielding, before the thread parks on its slot.
constexpr std::size_t kSpinLaps = 64;
constexpr std::size_t kYieldLaps = 64;
/// Yields, each followed by a look at the wait slot's epoch, that a waiter
/// makes before it parks while progress threads run: ~7 µs on an idle
/// 4-vCPU VM at ~370 ns a yield. The awaited event is usually that close,
/// and a parked waiter costs its waker a futex wake. A yield, unlike a
/// pause spin, leaves the CPU to the progress threads when more waiters
/// than CPUs wait (docs/internals.md §1).
constexpr std::size_t kWaitYields = 20;
/// Tries, a CPU pause apart, that a thread makes for a held peer lock
/// before it blocks on it.
constexpr std::size_t kLockSpins = 128;

/// Tell the core that this thread spins (frees the pipeline for a sibling
/// hyperthread, and on x86 eases the memory-order exit from the loop).
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

void Engine::PeerMutex::lock() {
  for (std::size_t i = 0; i < kLockSpins; ++i) {
    if (mu_.try_lock()) return;
    cpu_pause();
  }
  mu_.lock();
}

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
  // A new earliest deadline must reach a parked thread: its park was
  // bounded by the deadline that was earliest when it parked.
  timers_.add_deadline_listener(this, [this] { wake_any_slot(); });
}

Engine::~Engine() {
  stop_progress_thread();
  timers_.remove_deadline_listener(this);
  alive_->store(false);
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  for (auto& [id, ps] : peers_) {
    std::lock_guard plk(ps->mu);
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
  std::lock_guard lk(ps.mu);
  MADO_CHECK_MSG(ps.rails.size() < 255, "too many rails");
  const RailId id = static_cast<RailId>(ps.rails.size());
  auto rail = std::make_unique<Rail>();
  rail->ep = std::move(ep);
  rail->port.engine = this;
  rail->port.ps = &ps;
  rail->port.peer = peer;
  rail->port.rail = id;
  rail->outstanding.assign(rail->ep->caps().track_count, 0);
  for (GoBackN& rel : rail->rel)
    rel = GoBackN({cfg_.rel_window, cfg_.rel_rto_initial, cfg_.rel_rto_max,
                   kRelMaxRetries});
  const drv::Capabilities& caps = rail->ep->caps();
  const std::size_t max_frame =
      caps.max_frame == 0 || ps.max_frame == 0
          ? std::max(caps.max_frame, ps.max_frame)
          : std::min(caps.max_frame, ps.max_frame);
  const std::size_t max_eager = std::max(ps.max_eager, caps.max_eager);
  MADO_CHECK_MSG(max_frame == 0 || max_frame > kEagerFrameOverhead + max_eager,
                 "rail '" << caps.name << "': a max_frame of " << max_frame
                          << " cannot hold an eager packet of " << max_eager
                          << " bytes");
  ps.max_frame = max_frame;
  ps.max_eager = max_eager;
  rail->ep->relay_ready_to(&rail->port);
  rail->ep->set_handler(&rail->port);
  Rail* const added = rail.get();
  if (ps.rails.empty())
    ps.first_rail.store(added, std::memory_order_release);
  else
    ps.rails.back()->next.store(added, std::memory_order_release);
  ps.rails.push_back(std::move(rail));
  ps.rdv_out.add_rail();
  ps.any_rail_up.store(true, std::memory_order_release);
  return id;
}

std::size_t Engine::rail_count(NodeId peer) const {
  PeerState* ps = find_peer(peer);
  if (!ps) return 0;
  std::lock_guard lk(ps->mu);
  return ps->rails.size();
}

drv::Capabilities Engine::rail_caps(NodeId peer, RailId rail) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK_MSG(ps != nullptr, "unknown peer " << peer);
  std::lock_guard lk(ps->mu);
  MADO_CHECK_MSG(rail < ps->rails.size(), "no rail " << unsigned(rail)
                                                     << " toward " << peer);
  return ps->rails[rail]->ep->caps();
}

RailState Engine::rail_state(NodeId peer, RailId rail) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK_MSG(ps != nullptr, "unknown peer " << peer);
  std::lock_guard lk(ps->mu);
  MADO_CHECK_MSG(rail < ps->rails.size(), "no rail " << unsigned(rail)
                                                     << " toward " << peer);
  return ps->rails[rail]->state;
}

Channel Engine::open_channel(NodeId peer, ChannelId id, TrafficClass cls) {
  MADO_CHECK_MSG(id != kRmaChannel,
                 "channel id is reserved for engine-internal RMA traffic");
  PeerState& ps = peer_ref(peer);
  std::lock_guard lk(ps.mu);
  MADO_CHECK_MSG(!ps.rails.empty(), "no rails toward peer " << peer);
  ChannelState& cs = ps.channels[id];
  MADO_CHECK_MSG(!cs.open, "channel " << id << " already open to peer "
                                      << peer);
  cs.open = true;
  cs.cls = cls;
  // The peer shard and the channel are resolved exactly once, here; the
  // handles reuse them.
  return Channel(this, peer, id, cls, &ps, &cs);
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

Engine::ChannelState& Engine::channel_locked(PeerState& ps, ChannelId ch) {
  auto it = ps.channels.find(ch);
  MADO_CHECK_MSG(it != ps.channels.end() && it->second.open,
                 "channel " << ch << " not open");
  return it->second;
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
  const SendStateRef state = new_send_state(
      ps.id, cls, static_cast<std::uint16_t>(msg.fragment_count()));

  if (!ps.any_rail_up.load(std::memory_order_acquire)) {
    // Every rail toward the peer is dead: fail fast instead of queueing onto
    // a corpse (wait_send() then returns false immediately).
    state->failed.store(true, std::memory_order_release);
    ps.stats.inc(Ctr::RelFailedSends);
    return SendHandle(state);
  }

  if (ps.ring) {
    // Hand-off: while progress threads run, every post parks in the ring
    // and the shard's owner submits it at its next lap, so the application
    // thread goes straight back to computing and the optimizer sees the
    // posts that pile up while the track is busy (paper §3). Why inline
    // sends lost once the shm driver stopped blocking them: see
    // docs/internals.md §1.
    const bool handoff = prog_running_.load(std::memory_order_seq_cst);
    if (!handoff) {
      if (std::unique_lock lk(ps.mu, std::try_to_lock); lk.owns_lock()) {
        // No progress thread and nobody holds the shard (flat combining):
        // skip the ring, drain whatever racing threads parked, then submit
        // inline. A single application thread of a simulated or
        // hand-pumped world always lands here. The lock is scoped: a
        // driver's send() that throws (clause 6) leaves the shard unlocked.
        ps.stats.inc(Ctr::OptLockAcquisitions);
        drain_submit_ring_locked(ps);
        submit_locked(ps, ch, std::move(msg), state, state->submit_time);
        return SendHandle(state);
      }
    }
    // Park the message and return without blocking. Whoever holds the
    // shard next (the owner's lap, or a combining submitter) drains it
    // into the backlog at the next NIC-idle instant.
    SubmitOp op;
    op.channel = ch;
    op.msg = std::move(msg);
    op.state = state;
    op.enq_time = state->submit_time;
    if (ps.ring->try_push(std::move(op))) {
      ps.ring_pending.fetch_add(1, std::memory_order_seq_cst);
      // A parked op is no driver event, so no driver rings for it.
      note_activity(ps);
      if (prog_running_.load(std::memory_order_seq_cst))
        return SendHandle(state);
      if (handoff) {
        // The threads stopped after we looked, and stop_progress_thread()'s
        // final pass may have missed the push: drain it ourselves.
        PeerLock lk(ps);
        drain_submit_ring_locked(ps);
      } else if (std::unique_lock lk(ps.mu, std::try_to_lock);
                 lk.owns_lock()) {
        // The holder may have released between our failed try_lock and the
        // push landing; re-check so the op cannot linger un-drained until
        // the next pump.
        ps.stats.inc(Ctr::OptLockAcquisitions);
        drain_submit_ring_locked(ps);
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
  ChannelState& cs = channel_locked(ps, ch);

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

    if (mf.len >= rdv_threshold(ps, rail)) {
      // Rendezvous: the RTS control fragment takes this fragment's place in
      // the eager stream (so intra-message ordering of headers vs payload
      // is preserved); the bytes flow on bulk tracks after the CTS.
      RdvTx rdv{
          .channel = ch, .total = mf.len, .rts_time = sub_time, .state = state};
      if (!mf.owned.empty()) {
        rdv.storage = std::move(mf.owned);  // Safe mode: keep the copy alive
        rdv.data = rdv.storage.data();
      } else {
        rdv.data = mf.ext;
      }
      open_rdv_locked(ps, rail_id,
                      next_rdv_token_.fetch_add(1, std::memory_order_relaxed),
                      std::move(rdv), RtsBody{}, tf);
      ps.stats.inc(Ctr::TxRdvRts);
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

std::size_t Engine::rdv_threshold(const PeerState& ps,
                                  const Rail& rail) const {
  const std::size_t threshold = cfg_.rdv_threshold_override != 0
                                    ? cfg_.rdv_threshold_override
                                    : rail.ep->caps().rdv_threshold;
  if (ps.max_frame == 0) return threshold;
  // A strategy admits controls up to max_eager, then one data fragment of
  // any eager size: that packet, with threshold − 1 bytes, must fit.
  return std::min(threshold,
                  ps.max_frame + 1 - kEagerFrameOverhead - ps.max_eager);
}

std::size_t Engine::chunk_size(const PeerState& ps) const {
  const std::size_t chunk = std::max<std::size_t>(1, cfg_.rdv_chunk);
  if (ps.max_frame == 0) return chunk;
  return std::min(chunk, ps.max_frame - BulkHeader::kWireSize);
}

void Engine::open_rdv_locked(PeerState& ps, RailId rail, std::uint64_t token,
                             RdvTx&& rdv, RtsBody body, TxFrag& tf) {
  body.token = token;
  body.total_len = rdv.total;
  tf.kind = FragKind::RdvRts;
  tf.owned = ps.slab.take(RtsBody::kWireSize);
  encode_rts(tf.owned, body);
  tf.len = tf.owned.size();
  trace_locked(TraceEvent::RdvRts, ps.id, rail, token, rdv.total);
  ps.rdv_tx.emplace(token, std::move(rdv));
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
  if (cfg_.reliability && rail.rel[0].window_full()) return false;
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
  if (cfg_.reliability && rail.rel[1].window_full()) return false;
  RdvSender::Chunk chunk;
  std::size_t victim = RdvSender::kNoRail;
  if (!ps.rdv_out.pop(rail.port.rail, chunk, victim)) return false;
  if (victim != RdvSender::kNoRail) {
    ps.stats.inc(Ctr::StripeSteals);
    ps.stats.inc(Ctr::StripeStealBytes, chunk.len);
    trace_locked(TraceEvent::BulkSteal, ps.id, rail.port.rail, chunk.token,
                 chunk.offset, chunk.len, victim);
  }
  send_bulk_chunk_locked(ps, rail, chunk);
  return true;
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
  // A zero-fragment packet is a standalone ack: never itself acked.
  rec.reliable = cfg_.reliability && !rec.frags.empty();
  const std::size_t header_bytes =
      PacketHeader::kWireSize + FragHeader::kWireSize * rec.frags.size();
  rec.wire_bytes = header_bytes;
  for (const TxFrag& f : rec.frags) rec.wire_bytes += f.len;

  PacketHeader ph;
  ph.nfrags = static_cast<std::uint16_t>(rec.frags.size());
  ph.src_node = self_;
  if (cfg_.reliability)
    stamp_locked(ps, rail, ph, token, rec);
  else
    ph.pkt_seq = rail.pkt_seq++;
  mado::SmallVector<FragHeader, 16> fhs;
  fhs.reserve(rec.frags.size());
  for (const TxFrag& f : rec.frags) fhs.push_back(f.header());
  rec.header_block = ps.slab.take(header_bytes);
  encode_header_block(rec.header_block, ph,
                      std::span<const FragHeader>(fhs.data(), fhs.size()));

  if (rec.frags.empty()) {
    ps.stats.inc(Ctr::RelAcksTx);
  } else {
    ps.stats.inc(Ctr::TxPackets);
    ps.stats.inc(Ctr::TxFrags, rec.frags.size());
    ps.stats.observe(Hist::TxPktFrags, rec.frags.size());
    ps.stats.observe(Hist::TxPktBytes, rec.wire_bytes);
    // Optimizer hold: how long each fragment waited in the collect layer
    // before leaving in a packet — submit → first favorable decision,
    // split by traffic class (nanoseconds).
    const Nanos now = timers_.now();
    for (const TxFrag& f : rec.frags)
      ps.stats.observe(lat_hold(f.cls), now - std::min(now, f.submit_time));
    MADO_TRACE("node " << self_ << " tx packet " << token << " nfrags="
                       << rec.frags.size() << " bytes=" << rec.wire_bytes);
    trace_locked(TraceEvent::PacketTx, ps.id, rail.port.rail, token,
                 rec.wire_bytes, rec.frags.size(), ph.pkt_seq);
  }
  transmit_locked(ps, rail, token, rec);
}

void Engine::send_bulk_chunk_locked(PeerState& ps, Rail& rail,
                                    const RdvSender::Chunk& chunk) {
  const std::uint64_t token =
      next_pkt_token_.fetch_add(1, std::memory_order_relaxed);
  auto [recp, inserted] = ps.inflight.emplace(token);
  MADO_ASSERT(inserted);
  InFlight& rec = *recp;
  rec.peer = ps.id;
  rec.rail = rail.port.rail;
  rec.track = rail.bulk_track();
  rec.is_bulk = true;
  rec.chunk = chunk;
  rec.reliable = cfg_.reliability;
  rec.wire_bytes = BulkHeader::kWireSize + chunk.len;

  BulkHeader bh;
  bh.src_node = self_;
  bh.token = chunk.token;
  bh.offset = chunk.offset;
  bh.len = chunk.len;
  bh.stripe = chunk.stripe;
  if (cfg_.reliability) stamp_locked(ps, rail, bh, token, rec);
  rec.header_block = ps.slab.take(BulkHeader::kWireSize);
  encode_bulk_header(rec.header_block, bh);

  ps.stats.inc(Ctr::TxBulkChunks);
  trace_locked(TraceEvent::BulkTx, ps.id, rail.port.rail, chunk.token,
               chunk.offset, chunk.len, chunk.stripe);
  transmit_locked(ps, rail, token, rec);
}

template <class F>
void Engine::for_each_payload_locked(PeerState& ps, const InFlight& rec,
                                     F&& f) {
  if (rec.is_bulk) {
    const RdvTx* rdv = ps.rdv_tx.find(rec.chunk.token);
    MADO_CHECK(rdv != nullptr);
    f(rdv->data + rec.chunk.offset, rec.chunk.len);
    return;
  }
  for (const TxFrag& frag : rec.frags) f(frag.data(), frag.len);
}

void Engine::transmit_locked(PeerState& ps, Rail& rail, std::uint64_t token,
                             InFlight& rec) {
  // Retransmissions reuse the token, so every completion (first or
  // repeated) finds the record.
  GatherList gl;
  gl.add(rec.header_block.data(), rec.header_block.size());
  for_each_payload_locked(
      ps, rec, [&gl](const Byte* data, std::size_t len) { gl.add(data, len); });
  MADO_ASSERT(gl.total_bytes() == rec.wire_bytes);
  ++rail.outstanding[rec.track];
  rail.inflight_bytes += rec.wire_bytes;
  ps.stats.inc(Ctr::TxBytes, rec.wire_bytes);
  rail.ep->send(rec.track, gl, token);
  if (rec.reliable) arm_rto_locked(ps, rail, rec.is_bulk);
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
  rail_timer_locked(ps, rail, rail.nagle_timer, /*pump_peer=*/false,
                    [](PeerState&, Rail&) {});
  eng_stats_.inc(Ctr::TimerArms);
  timers_.arm(rail.nagle_timer, when);
}

template <class Body>
void Engine::rail_timer_locked(PeerState& ps, Rail& rail, TimerHandle& timer,
                               bool pump_peer, Body body) {
  if (timer.has_callback()) return;
  // Installed once per handle, so re-arms never allocate. The firing runs on
  // whichever thread runs the wheel. Peer shards and their rails live as
  // long as the engine, which `alive` vouches for.
  timer.set_callback([this, alive = alive_, p = &ps, r = &rail, t = &timer,
                      pump_peer, body](std::uint64_t gen) {
    if (!alive->load()) return;
    {
      PeerLock lk(*p);
      if (t->gen() != gen) {
        // A re-arm or cancel raced this firing out of the wheel.
        eng_stats_.inc(Ctr::TimerStaleFires);
        return;
      }
      body(*p, *r);
      drain_submit_ring_locked(*p);
      if (pump_peer)
        pump_peer_locked(*p);
      else
        pump_rail_locked(*p, *r);
    }
    wake_peer(*p);
  });
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
    RdvTx* rdvp = ps.rdv_tx.find(rec.chunk.token);
    MADO_CHECK(rdvp != nullptr);
    RdvTx& rdv = *rdvp;
    rdv.completed += rec.chunk.len;
    MADO_ASSERT(rdv.completed <= rdv.total);
    if (rdv.completed == rdv.total) {
      // Null state: a one-sided transfer whose completion is tracked by the
      // remote side (put ack) or the requester (get buffer) — only the
      // local buffer hold is released here.
      if (rdv.state)
        complete_frag_state_locked(ps, rdv.channel, rdv.state);
      ps.stats.inc(Ctr::TxRdvCompleted);
      const Nanos now = timers_.now();
      ps.stats.observe(Hist::LatRdvComplete, now - std::min(now, rdv.rts_time));
      trace_locked(TraceEvent::RdvDone, ps.id, 0, rec.chunk.token, rdv.total);
      ps.rdv_tx.erase(rec.chunk.token);
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
// Per-(rail, stream) go-back-N: Rail::rel[s] (core/reliability.hpp) makes
// every protocol decision and the code below carries it out. Stream 0 is
// eager packets, stream 1 bulk chunks. A standalone ack is a zero-fragment
// packet with kPhFlagAck but no kPhFlagRelSeq, so it is never acked itself.
// Everything below is inert unless cfg_.reliability.

template <class Header>
void Engine::stamp_locked(PeerState& ps, Rail& rail, Header& h,
                          std::uint64_t token, InFlight& rec) {
  h.flags |= kPhFlagAck;
  h.ack_eager = rail.rel[0].ack_out();
  h.ack_bulk = rail.rel[1].ack_out();
  if (!rec.reliable) return;
  h.flags |= kPhFlagRelSeq;
  h.pkt_seq = rail.rel[rec.is_bulk].stamp(token, rec.wire_bytes);
  rec.tx_outstanding = 1;
  if (!cfg_.payload_crc) return;
  Crc32 crc;
  for_each_payload_locked(ps, rec, [&crc](const Byte* data, std::size_t len) {
    crc.update(data, len);
  });
  h.flags |= kPhFlagPayloadCrc;
  h.payload_crc = crc.value();
}

void Engine::process_acks_locked(PeerState& ps, Rail& rail,
                                 std::uint32_t ack_eager,
                                 std::uint32_t ack_bulk) {
  const std::uint32_t acks[2] = {ack_eager, ack_bulk};
  bool progressed = false;
  for (int s = 0; s < 2; ++s) {
    const bool moved = rail.rel[s].ack(acks[s], [&](std::uint64_t token) {
      InFlight* rec = ps.inflight.find(token);
      MADO_ASSERT(rec != nullptr);
      rec->acked = true;
      if (rec->tx_outstanding > 0) return;
      // Every transmission left the driver: the gather segments are no
      // longer referenced, so the record can go.
      InFlight done = std::move(*rec);
      ps.inflight.erase(token);
      finalize_inflight_locked(ps, done);
    });
    if (!moved) continue;
    // Ack progress retires the pending timeout: cancel it now, so a fully
    // acked stream holds no RTO deadline (has_pending() turns false and
    // parked threads stay parked), and restart the clock for any tail.
    if (timers_.cancel(rail.rto_timer[s]))
      eng_stats_.inc(Ctr::TimerCancelled);
    arm_rto_locked(ps, rail, s);
    progressed = true;
  }
  // The peer is demonstrably hearing us again.
  if (progressed && rail.state == RailState::Degraded)
    rail.state = RailState::Up;
}

void Engine::arm_rto_locked(PeerState& ps, Rail& rail, int stream) {
  TimerHandle& timer = rail.rto_timer[stream];
  if (timer.armed() || rail.rel[stream].held().empty()) return;
  // rto_fired_locked may fail the rail over: pump the whole peer so
  // replayed traffic starts flowing on the survivor at once.
  rail_timer_locked(ps, rail, timer, /*pump_peer=*/true,
                    [this, stream](PeerState& p, Rail& r) {
                      rto_fired_locked(p, r, stream);
                    });
  // Floor the deadline with the cost model's estimate of draining every
  // un-acked byte on the rail (both streams share the physical link) plus
  // an ack round trip. A bare fixed RTO fires spuriously the moment one
  // bulk chunk's serialization time exceeds it; the optimizer and the
  // driver share the NIC cost model, so the engine can know the drain time
  // without measuring it (the paper's "parameterized by the capabilities
  // of the underlying network drivers").
  const sim::NicModel model = rail.ep->caps().model();
  const std::size_t pending_bytes =
      rail.rel[0].held_bytes() + rail.rel[1].held_bytes();
  const Nanos wire_floor =
      model.busy_time(pending_bytes, 1) + 2 * model.propagation_latency();
  eng_stats_.inc(Ctr::TimerArms);
  timers_.arm(timer, timers_.now() + rail.rel[stream].arm() + wire_floor);
}

void Engine::rto_fired_locked(PeerState& ps, Rail& rail, int stream) {
  GoBackN& rel = rail.rel[stream];
  if (rail.state == RailState::Down || rel.held().empty()) return;
  const InFlight* head = ps.inflight.find(rel.held().front().token);
  MADO_ASSERT(head != nullptr);
  const GoBackN::Timeout verdict = rel.timeout(head->tx_outstanding > 0);
  if (verdict == GoBackN::Timeout::Restart) {
    arm_rto_locked(ps, rail, stream);
    return;
  }
  ps.stats.inc(Ctr::RelRtoBackoffs);
  if (verdict == GoBackN::Timeout::GiveUp) {
    fail_rail_locked(ps, rail);  // the link is not coming back
    return;
  }
  if (rail.state == RailState::Up) rail.state = RailState::Degraded;
  for (const GoBackN::Held& h : rel.held()) {
    InFlight* rec = ps.inflight.find(h.token);
    MADO_ASSERT(rec != nullptr);
    ++rec->tx_outstanding;
    ps.stats.inc(Ctr::RelRetransmits);
    trace_locked(TraceEvent::RelRetx, rec->peer, rec->rail, h.token,
                 rec->is_bulk, rel.retries());
    transmit_locked(ps, rail, h.token, *rec);  // re-arms the timer
  }
}

void Engine::maybe_send_ack_locked(PeerState& ps, Rail& rail) {
  if (!cfg_.reliability || rail.state == RailState::Down) return;
  const bool owed = rail.rel[0].ack_owed() || rail.rel[1].ack_owed();
  if (GoBackN::ack_alone(owed, rail.backlog.empty(),
                         rail.rel[0].window_full()) &&
      rail.track_free(drv::kTrackEager))
    send_packet_locked(ps, rail, FragList());
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

bool Engine::replay_locked(PeerState& ps, bool replay, const char* what) {
  if (!replay) return false;
  MADO_CHECK_MSG(cfg_.reliability, what);
  ps.stats.inc(Ctr::RelDupDrops);
  return true;
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
  for (auto& timer : rail.rto_timer)
    if (timers_.cancel(timer)) eng_stats_.inc(Ctr::TimerCancelled);
  for (GoBackN& rel : rail.rel) rel.clear();

  Rail* survivor = nullptr;
  for (auto& r : ps.rails)
    if (r.get() != &rail && r->state != RailState::Down) {
      survivor = r.get();
      break;
    }
  // Submit-side fail-fast flag: once no rail is left, post()/rma() return
  // dead handles without even taking the peer lock.
  ps.any_rail_up.store(survivor != nullptr, std::memory_order_release);

  std::size_t replayed_frags = 0, failed_sends = 0;
  const RailId rail_id = rail.port.rail;

  // A fragment leaving the dead rail re-enters the collect layer on `to`
  // "now" with a fresh order (the flow index requires monotone (order,
  // submit_time) pairs), or its send fails when `to` is null.
  const Nanos replay_time = std::max(timers_.now(), ps.last_drain_time);
  ps.last_drain_time = replay_time;
  const auto move_frag = [&](TxFrag&& f, Rail* to) {
    if (!to) {
      fail_state_locked(ps, f.channel, f.state);
      ps.slab.recycle(std::move(f.owned));
      return;
    }
    f.submit_time = replay_time;
    f.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
    ++replayed_frags;
    if (f.kind == FragKind::RdvCts || f.kind == FragKind::RmaAck)
      to->backlog.push_control(std::move(f));
    else
      to->backlog.push(std::move(f));
  };

  // 1. In-flight records on this rail. Acked ones are finalized (the peer
  //    has the bytes; only the driver completion is lost with the link).
  //    Un-acked reliable ones replay onto the survivor in send order —
  //    their payload storage lives in the record, so replay is a re-queue,
  //    not a copy. Without reliability (or a survivor) the sends fail.
  std::vector<std::uint64_t> tokens;
  ps.inflight.for_each([&](std::uint64_t token, const InFlight& rec) {
    if (rec.rail == rail_id) tokens.push_back(token);
  });
  std::vector<RdvSender::Chunk> unacked;
  for (const std::uint64_t token : tokens) {
    InFlight* recp = ps.inflight.find(token);
    InFlight rec = std::move(*recp);
    ps.inflight.erase(token);
    if (rec.reliable && rec.acked) {
      finalize_inflight_locked(ps, rec);
      continue;
    }
    Rail* to = rec.reliable ? survivor : nullptr;
    if (!to) ++failed_sends;
    if (!rec.is_bulk) {
      if (to) ps.stats.inc(Ctr::RelReplayedFrags, rec.frags.size());
      for (TxFrag& f : rec.frags) move_frag(std::move(f), to);
    } else if (to) {
      // The chunk rides the survivor's bulk stream with a fresh sequence.
      unacked.push_back(rec.chunk);
    } else if (RdvTx* rdv = ps.rdv_tx.find(rec.chunk.token)) {
      fail_state_locked(ps, rdv->channel, rdv->state);
    }
    ps.slab.recycle(std::move(rec.header_block));
  }

  // 2. The dead rail's backlog: control first (CTS/acks unblock the peer),
  //    then data flows oldest-head-first — the same order the optimizer
  //    would have consumed them in.
  while (!rail.backlog.empty()) {
    if (!survivor) ++failed_sends;
    move_frag(rail.backlog.has_control()
                  ? rail.backlog.pop_control()
                  : rail.backlog.pop(rail.backlog.oldest_flow()),
              survivor);
  }

  // 3. Chunks: the un-acked ones, then the queued ones, follow the policy
  //    onto the survivor. With none left, every transfer fails — keeping
  //    their state would only hang flush().
  if (!unacked.empty()) ps.stats.inc(Ctr::RelReplayedChunks, unacked.size());
  const std::size_t replayed_chunks = ps.rdv_out.fail_rail(
      rail_id, survivor ? survivor->port.rail : RdvSender::kNoRail, unacked);
  if (!survivor) {
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

bool Engine::epoch_moved_while_yielding(const WaitSlot& w,
                                        std::uint64_t epoch) {
  for (std::size_t i = 0; i < kWaitYields; ++i) {
    std::this_thread::yield();
    if (w.epoch.load(std::memory_order_seq_cst) != epoch) return true;
  }
  return false;
}

bool Engine::pump_shard(PeerState& ps, std::vector<RxEvent>& events) {
  // Claim the shard: whoever wins drives the whole pump. A lost claim means
  // another thread (owner, stealer, or a manual progress() caller) is
  // already on it — skipping is correct, not a missed lap.
  bool expected = false;
  if (!ps.pumping.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
    return false;
  events.clear();
  // Pump every endpoint with the lap context active: driver callbacks
  // stage into `events` instead of taking the peer lock per event. The
  // rail list is walked without the lock (add_rail publishes each rail
  // once it is set up), so an idle lap locks nothing.
  {
    detail::ProgressLap lap;
    lap.engine = this;
    lap.peer = ps.id;
    lap.events = &events;
    detail::LapScope scope(&lap);
    for (Rail* r = ps.first_rail.load(std::memory_order_acquire); r;
         r = r->next.load(std::memory_order_acquire))
      r->ep->progress();
  }
  // seq_cst: stop_progress_thread()'s final pass must see a post that
  // read prog_running_ true after its push (see submit()).
  const bool have_ring = ps.ring_pending.load(std::memory_order_seq_cst) > 0;
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
  for (PeerState* ps : peers)
    if (pump_shard(*ps, events)) did_work = true;
  if (timers_.run_due() > 0) did_work = true;
  return did_work;
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
    std::lock_guard plk(ps->mu);
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
      if (pump_shard(*ps, events)) work = true;
    if (steal_ok && !work) {
      // Work stealing: this thread has nothing of its own — help a busy
      // (or wedged) owner by pumping ONE of its shards. One per lap keeps
      // the help incremental; the victim's shards stay primarily its own.
      for (PeerState* ps : others) {
        if (pump_shard(*ps, events)) {
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
  // the core when a burst ends, then park on the slot's cv until a ring
  // (driver contract clause 5, a parked submit, stop) or the next timer
  // deadline — nothing else can create work for a lap.
  constexpr std::size_t spin_laps = kSpinLaps;
  constexpr std::size_t yield_laps = spin_laps + kYieldLaps;
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
    // Eventcount park: record the ticket, arm the slot, poll ONCE more —
    // activity published before the arm is caught by that poll; activity
    // after it bumps the ticket, which the check under the lock sees.
    // `parked` is published before that check: a waker that reads it
    // unset has already bumped the ticket the check then sees. Either way
    // a ring racing the park costs at most one lap; a lost one would park
    // the thread until the next deadline.
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
      slot.parked.store(true, std::memory_order_seq_cst);
      const auto rung = [&] {
        return slot.ticket.load(std::memory_order_seq_cst) != ticket ||
               stop_progress_.load(std::memory_order_acquire);
      };
      if (!rung()) {
        slot.idle_sleeps->fetch_add(1, std::memory_order_relaxed);
        eng_stats_.inc(Ctr::ProgIdleSleeps);
        const Nanos next = timers_.next_deadline();
        if (next == TimerHost::kNoDeadline) {
          slot.cv.wait(lk, rung);
        } else {
          const Nanos now = timers_.now();
          const Nanos bound = next > now ? next - now : 0;
          slot.cv.wait_for(lk, std::chrono::nanoseconds(bound), rung);
        }
      }
      slot.parked.store(false, std::memory_order_seq_cst);
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
  prog_running_.store(false, std::memory_order_seq_cst);
  // Teardown ordering: a submit, arrival or timer can land between a
  // thread's final lap and the join. Now that no thread owns anything, one
  // manual pass delivers every staged event, parked ring op and due timer
  // — callers observe a fully drained engine after stop.
  progress();
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
  wait_on(ps ? ps->waits : global_waits_, pred, timeout);
  return ok;
}

bool Engine::flush(Nanos timeout) {
  return wait_on(
      global_waits_,
      [this] {
        std::shared_lock<std::shared_mutex> plk(peers_mu_);
        for (const auto& [id, ps] : peers_) {
          // Check parked submissions BEFORE the queues: a drained ring op's
          // fragments are visible under the lock taken just below.
          if (ps->ring_pending.load(std::memory_order_acquire) > 0)
            return false;
          std::lock_guard lk(ps->mu);
          if (!ps->inflight.empty() || !ps->rdv_tx.empty() ||
              ps->rdv_out.chunks() != 0)
            return false;
          for (const auto& rail : ps->rails)
            if (!rail->backlog.empty()) return false;
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
  tf.cls = kind == FragKind::RmaAck || kind == FragKind::RdvCts
               ? TrafficClass::Control
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
  const SendStateRef state = new_send_state(peer, cls, 1);  // peer's RmaAck
  PeerLock lk(ps);
  Rail* rail = rma_rail_locked(ps, cls, *state);
  if (!rail) return SendHandle(state);
  const RailId rail_id = rail->port.rail;
  const std::uint64_t ack_token =
      next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
  ps.rma_acks.emplace(ack_token, state);

  if (len >= rdv_threshold(ps, *rail)) {
    // The handle completes on the ack, not on chunks: the transfer has no
    // state of its own, and the ack token doubles as its token.
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RdvRts);
    open_rdv_locked(ps, rail_id, ack_token,
                    RdvTx{.channel = kRmaChannel,
                          .data = static_cast<const Byte*>(data),
                          .total = len,
                          .rts_time = timers_.now()},
                    RtsBody{.target = RdvTarget::Window,
                            .window = window,
                            .offset = offset,
                            .aux = ack_token},
                    tf);
    rail->backlog.push(std::move(tf));
  } else {
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaPut);
    tf.owned = ps.slab.take(RmaPutBody::kWireSize + len);
    encode_rma_put(tf.owned, RmaPutBody{window, offset, ack_token});
    const auto* p = static_cast<const Byte*>(data);
    tf.owned.insert(tf.owned.end(), p, p + len);
    tf.len = tf.owned.size();
    rail->backlog.push(std::move(tf));
  }
  ps.stats.inc(Ctr::RmaPuts);
  trace_locked(TraceEvent::RmaOp, peer, rail_id, 0, window, len);
  pump_rail_locked(ps, *rail);
  return SendHandle(state);
}

SendHandle Engine::rma_get(NodeId peer, WindowId window, std::uint64_t offset,
                           void* dest, std::size_t len, TrafficClass cls) {
  MADO_CHECK(dest != nullptr && len > 0);
  PeerState& ps = peer_ref(peer);
  const SendStateRef state = new_send_state(peer, cls, 1);  // bytes landed
  PeerLock lk(ps);
  Rail* rail = rma_rail_locked(ps, cls, *state);
  if (!rail) return SendHandle(state);
  const std::uint64_t get_token =
      next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
  ps.pending_gets.emplace(get_token,
                          PendingGet{static_cast<Byte*>(dest), len, state});

  TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaGet);
  tf.owned = ps.slab.take(RmaGetBody::kWireSize);
  encode_rma_get(tf.owned, RmaGetBody{window, offset, len, get_token});
  tf.len = tf.owned.size();
  rail->backlog.push(std::move(tf));
  ps.stats.inc(Ctr::RmaGets);
  trace_locked(TraceEvent::RmaOp, peer, rail->port.rail, 1, window, len);
  pump_rail_locked(ps, *rail);
  return SendHandle(state);
}

Engine::Rail* Engine::rma_rail_locked(PeerState& ps, TrafficClass cls,
                                      SendState& state) {
  drain_submit_ring_locked(ps);
  MADO_CHECK_MSG(!ps.rails.empty(), "no rails toward peer " << ps.id);
  Rail& rail = *ps.rails[rail_for_class_locked(ps, cls)];
  if (rail.state != RailState::Down) return &rail;
  state.failed.store(true, std::memory_order_release);
  ps.stats.inc(Ctr::RelFailedSends);  // every rail toward the peer is dead
  return nullptr;
}

SendStateRef Engine::new_send_state(NodeId peer, TrafficClass cls,
                                    std::uint32_t pending) const {
  auto state = std::make_shared<SendState>();
  state->pending.store(pending, std::memory_order_relaxed);
  state->submit_time = timers_.now();
  state->cls = cls;
  state->peer = peer;
  return state;
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
    std::lock_guard lk(ps->mu);
    if (ps->rails.size() > load.size()) {
      load.resize(ps->rails.size(), 0);
      dead.resize(ps->rails.size(), false);
    }
    for (std::size_t i = 0; i < ps->rails.size(); ++i) {
      const Rail& r = *ps->rails[i];
      if (r.state == RailState::Down) dead[i] = true;
      load[i] += r.backlog.byte_count() + r.inflight_bytes +
                 ps->rdv_out.queued_bytes(i);
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
  std::lock_guard lk(ps->mu);
  MADO_CHECK(rail < ps->rails.size());
  return ps->rails[rail]->backlog.frag_count();
}

std::size_t Engine::inflight_packets() const {
  std::shared_lock<std::shared_mutex> plk(peers_mu_);
  std::size_t n = 0;
  for (const auto& [id, ps] : peers_) {
    std::lock_guard lk(ps->mu);
    n += ps->inflight.size();
  }
  return n;
}

std::size_t Engine::pending_bulk_chunks(NodeId peer) const {
  PeerState* ps = find_peer(peer);
  MADO_CHECK(ps != nullptr);
  std::lock_guard lk(ps->mu);
  return ps->rdv_out.chunks();
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot s;
  std::shared_lock<std::shared_mutex> plk(peers_mu_);
  for (const auto& [id, ps] : peers_) {
    std::lock_guard lk(ps->mu);
    Snapshot::PeerInfo pi;
    pi.id = id;
    pi.shared_bulk_chunks = ps->rdv_out.pool().size();
    for (const auto& [ch, cs] : ps->channels) {
      pi.open_channels += cs.open ? 1 : 0;
      std::lock_guard rlk(cs.rx_mu);
      pi.rx_pending_msgs += cs.rx.entries();
    }
    pi.submit_ring_pending =
        ps->ring_pending.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < ps->rails.size(); ++i) {
      const Rail* rail = ps->rails[i].get();
      Snapshot::RailInfo ri;
      ri.driver = rail->ep->caps().name;
      ri.state = rail->state;
      ri.backlog_frags = rail->backlog.frag_count();
      ri.backlog_bytes = rail->backlog.byte_count();
      ri.bulk_chunks = ps->rdv_out.queue(i).size();
      for (std::size_t n : rail->outstanding) ri.outstanding_packets += n;
      ri.inflight_bytes = rail->inflight_bytes;
      ri.unacked_packets =
          rail->rel[0].held().size() + rail->rel[1].held().size();
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
  Engine::ChannelState& cs = Engine::channel_of(chan_cache_);
  std::lock_guard lk(cs.rx_mu);
  return IncomingMessage(eng_, peer_cache_, chan_cache_, cs.rx.attach());
}

void Channel::flush() {
  MADO_CHECK(valid());
  eng_->flush_channel(Engine::shard_of(peer_cache_), id_);
}

bool Channel::probe() const {
  MADO_CHECK(valid());
  const Engine::ChannelState& cs = Engine::channel_of(chan_cache_);
  std::lock_guard lk(cs.rx_mu);
  return cs.rx.announced();
}

void IncomingMessage::unpack(void* buf, std::size_t len, RecvMode mode) {
  MADO_CHECK_MSG(!finished_, "unpack after finish");
  auto& ps = Engine::shard_of(peer_cache_);
  auto& cs = Engine::channel_of(chan_cache_);
  const bool done = eng_->post_unpack(ps, cs, seq_, next_, buf, len);
  if (mode == RecvMode::Express && !done)
    eng_->wait_frag(ps, cs, seq_, next_, /*landed=*/true);
  ++next_;
}

std::size_t IncomingMessage::next_size() {
  MADO_CHECK_MSG(!finished_, "next_size after finish");
  return eng_->wait_frag(Engine::shard_of(peer_cache_),
                         Engine::channel_of(chan_cache_), seq_, next_,
                         /*landed=*/false);
}

Bytes IncomingMessage::unpack_bytes() {
  Bytes out(next_size());
  unpack(out.data(), out.size(), RecvMode::Express);
  return out;
}

void IncomingMessage::finish() {
  MADO_CHECK_MSG(!finished_, "finish called twice");
  eng_->finish_recv(Engine::shard_of(peer_cache_),
                    Engine::channel_of(chan_cache_), seq_, next_);
  finished_ = true;
}

bool IncomingMessage::ready() const {
  MADO_CHECK_MSG(!finished_, "ready after finish");
  const Engine::ChannelState& cs = Engine::channel_of(chan_cache_);
  std::lock_guard lk(cs.rx_mu);
  return cs.rx.complete(seq_);
}

}  // namespace mado::core
