// The communication engine: Figure 1 of the paper in code.
//
//   Application/middleware layer — Channel::post() appends fragments to the
//     collect-layer backlog and returns immediately.
//   Optimizing layer — when a NIC track becomes idle (send-completion
//     callback) the configured Strategy reorganizes the accumulated backlog
//     into the next packet. While a track is busy, the backlog grows — that
//     is the optimizer's lookahead pool.
//   Transfer layer — drv::DriverEndpoint rails (one or more per peer, of
//     possibly different technologies), each with eager and bulk tracks.
//
// Also implemented here: the rendezvous protocol (RTS travels as an
// aggregatable control fragment; data flows on bulk tracks, split over
// rails per MultirailPolicy), traffic classes with dynamic re-assignment,
// and the receive side's I/O (demultiplexing, copies into the unpacked
// buffers, waits); its verdicts come from one RxChannel per channel
// (core/receive.hpp).
//
// Threading model (sharded; docs/internals.md §1 has the full write-up):
// engine state is partitioned per peer. Each PeerState carries its own
// mutex guarding everything reachable from it (rails, backlogs, reliability
// windows, rendezvous tables, the channel map, in-flight records) except
// each channel's receive state (below); a thread that finds it held spins a
// bounded number of tries before it blocks.
// The peer map itself is read-mostly behind a shared_mutex and peers are
// never erased, so a resolved PeerState* stays valid for the engine's
// lifetime. Application threads submitting to different peers never
// contend. While progress threads run, a post takes no peer lock at all:
// it parks the message in a bounded lock-free MPMC ring and rings the
// shard's owner, whose lap submits it (the hand-off). Without progress
// threads an uncontended post submits inline, and a contended one parks
// in the ring for whoever holds the peer lock next (flat combining).
//
// Progress runs on cfg.progress_threads shard-owning threads: every peer
// is statically assigned an owner (insertion order modulo thread count,
// all rails of the peer included — rail affinity). Drivers ring the
// engine when they queue events (driver contract clause 5); a ring wakes
// the owner's park slot only, or, when the owner is busy, one parked
// thread, which steals the un-pumped shard. Parked threads otherwise
// sleep until the next timer deadline. A per-shard pump claim
// (PeerState::pumping) keeps driver progress() single-entrant per endpoint
// whichever thread — owner, stealer, or a manual progress() caller — runs
// the lap, and a lap that finds nothing takes no lock. While progress
// threads run, a waiter yields for a few µs, watching its wait slot, and
// then parks. Peer-scoped timers (nagle, RTO) run on whichever
// thread runs the timer wheel and take the peer lock like any other locked
// path.
//
// Each channel's receive state (ChannelState::rx, its RxChannel) has a lock
// of its own, ChannelState::rx_mu. The progress side takes it inside the
// peer lock wherever it touches rx; the application's receive calls take it
// alone, so receiving an arrived message never waits on the peer lock. A
// rendezvous fragment's unpack that must answer the RTS decides so under
// rx_mu, releases it, and only then takes the peer lock to queue the CTS.
//
// Lock order: peers_mu_ (shared) → PeerState::mu → ChannelState::rx_mu →
// {windows_mu_, wait/park mutexes, ProgSlot::mu}; at most one peer lock and
// one channel lock are held at a time, and no code takes a peer lock while
// it holds a channel lock. Counters are sharded per peer and aggregated on
// read, so counters_snapshot() never stalls the hot path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/backlog.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/message.hpp"
#include "core/packet.hpp"
#include "core/payload_pool.hpp"
#include "core/receive.hpp"
#include "core/reliability.hpp"
#include "core/rendezvous.hpp"
#include "core/strategy.hpp"
#include "core/timer_host.hpp"
#include "core/token_table.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "drivers/driver.hpp"
#include "util/queues.hpp"
#include "util/stats.hpp"

namespace mado::core {

class Engine final {
 public:
  Engine(NodeId self, EngineConfig cfg, TimerHost& timers);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- topology -----------------------------------------------------

  /// Attach one rail (driver endpoint) toward `peer`. Rails are indexed in
  /// attach order. Must complete before traffic starts.
  RailId add_rail(NodeId peer, std::unique_ptr<drv::DriverEndpoint> ep);
  std::size_t rail_count(NodeId peer) const;

  /// Capabilities advertised by rail `rail` toward `peer` (cost-model input
  /// for planners; CHECK-fails on unknown peer/rail).
  drv::Capabilities rail_caps(NodeId peer, RailId rail) const;
  /// Current health of rail `rail` toward `peer`.
  RailState rail_state(NodeId peer, RailId rail) const;

  /// Open a logical flow to `peer`. Both sides must use the same id.
  /// The peer map is resolved ONCE here; the returned Channel caches the
  /// peer shard so post() never touches the map again.
  Channel open_channel(NodeId peer, ChannelId id,
                       TrafficClass cls = TrafficClass::SmallEager);

  // ---- progression ----------------------------------------------------

  /// Drain driver completions/arrivals, submit rings and due timers once.
  /// Returns true if any work was done (events applied, ring ops drained,
  /// or timers fired) — the progress thread's backoff feeds on this.
  bool progress();

  /// Simulation mode: a callback that advances the shared world by one
  /// event (e.g. [&]{ return fabric.step(); }); wait loops call it instead
  /// of sleeping. Returns false when the world is idle.
  void set_external_progress(std::function<bool()> fn);

  /// Real-driver mode: spawn cfg.progress_threads shard-owning threads,
  /// each pumping its peers continuously with adaptive spin → yield →
  /// parked-wait backoff when idle (counted per thread in prog.t<i>.* and
  /// in the prog.shard_laps / prog.steals / prog.wakeups / prog.idle_sleeps
  /// totals). stop_progress_thread() joins them and then runs one final
  /// drain so work staged in the stop window is never stranded.
  void start_progress_thread();
  void stop_progress_thread();

  // ---- blocking helpers ----------------------------------------------

  /// Lock-free: reads the handle's atomic completion state.
  bool send_done(const SendHandle& h) const;
  /// True once the engine gave up on the message (its rail died with no
  /// survivor to fail over to). wait_send() then returns false immediately.
  bool send_failed(const SendHandle& h) const;
  /// Blocks on the *destination peer's* condition variable, so completing
  /// one peer's send never wakes threads blocked on other peers.
  bool wait_send(const SendHandle& h, Nanos timeout = kDefaultTimeout);
  /// Wait until `pred` holds. `pred` is evaluated WITHOUT any engine lock
  /// held — it must do its own synchronization (e.g. via counters_snapshot
  /// or snapshot()).
  template <class Pred>
  bool wait_until(Pred&& pred, Nanos timeout = kDefaultTimeout) {
    return wait_on(global_waits_, pred, timeout);
  }
  /// Wait until all backlogs, submit rings, bulk queues and in-flight
  /// packets drain.
  bool flush(Nanos timeout = kDefaultTimeout);

  // ---- one-sided put/get (paper §2, "put/get transfers") ---------------

  using WindowId = std::uint32_t;

  /// Expose `len` bytes at `base` as window `id` for one-sided access by
  /// any connected peer. The memory must outlive the engine's traffic.
  void expose_window(WindowId id, void* base, std::size_t len);

  /// One-sided write into the peer's window. The handle completes on the
  /// peer's acknowledgement (remote completion). `data` must stay valid
  /// until then. Large puts flow through the rendezvous bulk path with an
  /// automatic CTS (no application involvement on the target).
  SendHandle rma_put(NodeId peer, WindowId window, std::uint64_t offset,
                     const void* data, std::size_t len,
                     TrafficClass cls = TrafficClass::PutGet);

  /// One-sided read from the peer's window into `dest`. The handle
  /// completes when all bytes have landed.
  SendHandle rma_get(NodeId peer, WindowId window, std::uint64_t offset,
                     void* dest, std::size_t len,
                     TrafficClass cls = TrafficClass::PutGet);

  // ---- traffic classes (paper §2) --------------------------------------

  void set_class_rail(TrafficClass cls, RailId rail);
  RailId class_rail(TrafficClass cls) const;
  /// One dynamic re-assignment step: move latency-sensitive classes
  /// (Control, SmallEager) to the currently least-loaded rail.
  void rebalance_classes();
  /// Re-run rebalance_classes() every `interval` until the engine dies.
  void set_auto_rebalance(Nanos interval);

  // ---- introspection ---------------------------------------------------

  /// Root stats registry: aggregates the per-peer shards on read. Reads
  /// (counter(), histogram(), to_string()) are thread-safe and engine-wide.
  StatsRegistry& stats() { return stats_; }

  /// Attach an event tracer (nullptr detaches). May be shared by several
  /// engines; must outlive the engine or be detached first. Safe to call
  /// while traffic is in flight: after set_tracer(nullptr) returns, no
  /// thread is still recording into the old tracer (it may be destroyed).
  void set_tracer(Tracer* tracer);
  /// Currently attached tracer (racy read; for diagnostics).
  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  /// Aggregated copy of all counters from the per-peer shards. Takes no
  /// engine or peer lock — usable from timer callbacks and monitoring
  /// threads at any sampling rate without stalling TX.
  std::map<std::string, std::uint64_t, std::less<>> counters_snapshot() const;

  const EngineConfig& config() const { return cfg_; }
  NodeId self() const { return self_; }
  std::string strategy_name() const { return strategy_->name(); }
  TimerHost& timers() { return timers_; }

  std::size_t backlog_frags(NodeId peer, RailId rail) const;
  std::size_t inflight_packets() const;
  std::size_t pending_bulk_chunks(NodeId peer) const;

  /// Consistent point-in-time view of all queues (for monitoring/tools).
  /// Peer locks are taken one at a time, so the view is per-peer (not
  /// cross-peer) consistent — the same guarantee monitoring had before.
  struct Snapshot {
    struct RailInfo {
      std::string driver;
      RailState state = RailState::Up;
      std::size_t backlog_frags = 0;
      std::size_t backlog_bytes = 0;
      std::size_t bulk_chunks = 0;
      std::size_t outstanding_packets = 0;
      std::size_t inflight_bytes = 0;
      std::size_t unacked_packets = 0;  ///< reliability: sent, not yet acked
    };
    struct PeerInfo {
      NodeId id = 0;
      std::vector<RailInfo> rails;
      std::size_t shared_bulk_chunks = 0;
      std::size_t open_channels = 0;
      std::size_t rx_pending_msgs = 0;
      std::size_t submit_ring_pending = 0;  ///< ops enqueued, not drained
    };
    std::vector<PeerInfo> peers;
    std::size_t inflight_packets = 0;
    std::size_t rdv_tx_active = 0;
    std::size_t rdv_rx_active = 0;
    std::size_t windows_exposed = 0;
    std::size_t pending_gets = 0;

    bool quiescent() const;
    std::string to_string() const;
  };
  Snapshot snapshot() const;

  static constexpr Nanos kDefaultTimeout = 30ull * kNanosPerSec;

 private:
  friend class Channel;
  friend class IncomingMessage;

  // ---- internal types --------------------------------------------------

  struct Rail;
  struct PeerState;

  /// Per-rail driver handler: forwards callbacks with (peer, rail) context.
  struct RailPort final : drv::EndpointHandler {
    Engine* engine = nullptr;
    PeerState* ps = nullptr;  ///< cached: a ring takes no map lock
    NodeId peer = 0;
    RailId rail = 0;
    void on_send_complete(drv::TrackId track, std::uint64_t token) override {
      engine->on_send_complete(peer, rail, track, token);
    }
    void on_packet(drv::TrackId track, Bytes payload) override {
      engine->on_packet(peer, rail, track, std::move(payload));
    }
    void on_send_failed(drv::TrackId track, std::uint64_t token) override {
      engine->on_send_failed(peer, rail, track, token);
    }
    void on_link_down() override { engine->on_link_down(peer, rail); }
    void on_ready() override { engine->note_activity(*ps); }
  };

  struct Rail {
    std::unique_ptr<drv::DriverEndpoint> ep;
    /// The peer's next rail, published once by add_rail: a lap walks the
    /// list from PeerState::first_rail without taking the peer lock.
    std::atomic<Rail*> next{nullptr};
    RailPort port;
    std::vector<std::size_t> outstanding;  // per track
    TxBacklog backlog;
    bool bulk_turn = false;  // shared-track alternation
    RailState state = RailState::Up;
    // Reliable streams [0] eager packets, [1] bulk chunks, whatever the
    // physical track (a shared-track rail multiplexes both on track 0).
    GoBackN rel[2];
    // Persistent cancellable timers: the nagle hold, armed while a lone
    // small fragment waits for company, and each stream's retransmit
    // timeout. An idle rail holds no timer state at all.
    TimerHandle nagle_timer;
    TimerHandle rto_timer[2];
    std::uint64_t flow_index_ops_flushed = 0;  // backlog ops already counted
    std::uint32_t pkt_seq = 0;
    std::size_t inflight_bytes = 0;

    drv::TrackId bulk_track() const {
      return ep->caps().track_count > 1 ? drv::kTrackBulk : drv::kTrackEager;
    }
    bool shared_track() const { return ep->caps().track_count == 1; }
    bool track_free(drv::TrackId t) const {
      return outstanding[t] < ep->caps().track_depth;
    }
  };

  /// The peer lock: a std::mutex that retries a bounded number of times,
  /// with a CPU pause between tries, before it blocks. Its critical
  /// sections are short, so a thread that finds it held usually gets it
  /// within the spin — without the futex sleep and the syscall wake that a
  /// plain std::mutex would cost both sides of every hand-off.
  class PeerMutex {
   public:
    void lock();
    bool try_lock() { return mu_.try_lock(); }
    void unlock() { mu_.unlock(); }

   private:
    std::mutex mu_;
  };

  /// One channel toward a peer, a node of PeerState::channels: map nodes
  /// never move and channels are never erased, so the handles keep a
  /// pointer to it. Everything but `rx` is guarded by the peer lock.
  struct ChannelState {
    TrafficClass cls = TrafficClass::SmallEager;
    /// open_channel ran here. A fragment can arrive first: its channel is
    /// then created closed, and keeps it until the application opens it.
    bool open = false;
    MsgSeq next_tx_seq = 0;
    std::uint32_t outstanding_sends = 0;
    /// Guards `rx`. The progress side takes it inside the peer lock; the
    /// application's receive calls take it alone, so they wait for a
    /// progress thread only while it touches this channel.
    mutable PeerMutex rx_mu;
    RxChannel rx;
  };

  /// Sender-side rendezvous state.
  struct RdvTx {
    ChannelId channel = 0;
    const Byte* data = nullptr;
    Bytes storage{};  ///< keeps Safe-mode payload copies alive until sent
    std::uint64_t total = 0;
    std::uint64_t completed = 0;  // bytes whose chunk send completed
    bool cts_received = false;
    Nanos rts_time = 0;  ///< when the RTS was submitted (handshake latency)
    /// Null for puts with remote acknowledgement (the handle then lives in
    /// rma_acks and completes on the RmaAck, not on local chunk completion).
    SendStateRef state{};
  };

  /// Receiver-side rendezvous routing: where bulk chunks for `token` land,
  /// and what happens when the last byte arrives. Keyed by token alone —
  /// the table lives inside the sending peer's shard now.
  struct RdvRx {
    RdvTarget target = RdvTarget::Message;
    /// The RTS's fragment: the CTS answers it, and a Message target's
    /// bytes complete its receive slot.
    FragHeader rts;
    /// Where the bytes land, known once the CTS goes out (a Message
    /// target's when its fragment is unpacked).
    Byte* base = nullptr;
    std::uint64_t aux = 0;  ///< Window: the RmaAck token; GetBuffer: the get
    RdvReceiver::Landing landing;
  };

  struct RmaWindow {
    Byte* base = nullptr;
    std::size_t len = 0;
  };

  struct PendingGet {
    Byte* dest = nullptr;
    std::uint64_t len = 0;
    SendStateRef state;
  };

  /// One in-flight packet (owns header block + fragment payload storage).
  /// With reliability on, the record outlives driver completion: it is the
  /// retransmit buffer, erased only when acked AND no transmission is still
  /// inside the driver (gather segments must stay valid until completion).
  struct InFlight {
    NodeId peer = 0;
    RailId rail = 0;
    drv::TrackId track = 0;
    Bytes header_block;
    FragList frags;
    bool is_bulk = false;
    RdvSender::Chunk chunk;  ///< is_bulk: the chunk this packet carries
    std::size_t wire_bytes = 0;
    // Reliability:
    bool reliable = false;  ///< held by rel[is_bulk] until acked
    bool acked = false;
    std::uint32_t tx_outstanding = 0;  ///< driver sends not yet completed
  };

  /// One application submit parked in the lock-free ring, waiting for the
  /// next peer-lock holder to drain it into the backlog.
  struct SubmitOp {
    ChannelId channel = 0;
    Message msg;
    SendStateRef state;
    Nanos enq_time = 0;
  };

  /// One driver event staged during a progress() lap, applied in batch
  /// under ONE peer-lock acquisition instead of one per callback.
  struct RxEvent {
    enum class Kind : std::uint8_t {
      SendComplete,
      Packet,
      SendFailed,
      LinkDown,
    };
    Kind kind = Kind::SendComplete;
    RailId rail = 0;
    drv::TrackId track = 0;
    std::uint64_t token = 0;
    Bytes payload;
  };

  /// Threads blocked until a predicate holds (wait_on). `cv` is notified
  /// only when `waiters` is non-zero. Every such wake bumps `epoch`; a
  /// waiter snapshots it before its predicate and parks only if it is
  /// unchanged under `mu`, so a wake that lands while the predicate runs is
  /// never lost.
  struct WaitSlot {
    std::mutex mu;  ///< cv's mutex — NOT a peer lock, so waiters never
                    ///< contend with the hot path
    std::condition_variable cv;
    std::atomic<int> waiters{0};
    std::atomic<std::uint64_t> epoch{0};
  };

  /// All state for one peer, guarded by its own `mu`. Everything the wire
  /// protocols key by (peer, token) lives here keyed by token: rendezvous
  /// tables, in-flight records, pending gets, RMA acks — they were always
  /// peer-local by protocol; the sharding makes that locality structural.
  /// PeerStates are created at add_rail time and never destroyed before the
  /// engine, so raw pointers to them (Channel cache, timer captures) stay
  /// valid.
  struct PeerState {
    PeerState(NodeId peer, const EngineConfig& cfg, std::uint32_t owner_idx)
        : id(peer),
          owner(owner_idx),
          slab(&stats),
          strategy(StrategyRegistry::instance().create(cfg.strategy)),
          rdv_out(cfg.multirail, cfg.stripe.steal),
          rdv_in(cfg.reliability, kRdvDoneWindow,
                 TokenTableOpts{.stats = &stats}) {
      if (cfg.submit_ring > 0) {
        std::size_t cap = 2;
        while (cap < cfg.submit_ring) cap <<= 1;
        ring = std::make_unique<MpmcRing<SubmitOp>>(cap);
      }
      // State tables share one budget policy: start empty, grow in powers
      // of two, shrink back when a burst drains. Rehashes land in the
      // cap.* counters so a misbehaving workload is visible.
      TokenTableOpts topts;
      topts.stats = &stats;
      inflight.set_opts(topts);
      rdv_tx.set_opts(topts);
      rdv_rx.set_opts(topts);
      pending_gets.set_opts(topts);
      rma_acks.set_opts(topts);
    }

    const NodeId id;

    /// Owning progress-thread index (static: insertion order modulo
    /// cfg.progress_threads). Activity rings this thread's park slot first;
    /// its laps pump every rail of this peer (rail affinity).
    const std::uint32_t owner;

    /// Pump claim: the thread that CASes this false→true drives the whole
    /// endpoint pump of this shard for one lap. Owners, stealers and manual
    /// progress() callers all contend here, so a driver endpoint is never
    /// progressed from two threads at once (not part of the driver
    /// contract) and "every peer is progressed by exactly one pumper per
    /// lap" holds by construction.
    std::atomic<bool> pumping{false};

    mutable PeerMutex mu;  ///< guards every non-atomic member below

    /// Completion waiters parked on this peer (wait_send, wait_frag, ...).
    WaitSlot waits;

    /// Per-peer stats shard (registered as a child of the engine root),
    /// bumped through the lookup-free counter table.
    StatsRegistry registry;
    EngineStats stats{registry};
    PayloadSlab slab;
    std::unique_ptr<Strategy> strategy;  ///< strategies may be stateful

    /// Lock-free submit fast path (null when cfg.submit_ring == 0).
    std::unique_ptr<MpmcRing<SubmitOp>> ring;
    /// Ops pushed but not yet drained — flush()/quiescence must count them.
    std::atomic<std::size_t> ring_pending{0};
    /// False once every rail is Down: submits fail fast without a lock.
    std::atomic<bool> any_rail_up{false};

    std::vector<std::unique_ptr<Rail>> rails;
    /// rails[0], published once add_rail has set it up; with Rail::next,
    /// the endpoint list a lap pumps. Rails only grow and never move, so
    /// the walk needs no lock while add_rail appends under `mu`.
    std::atomic<Rail*> first_rail{nullptr};
    /// Over every rail: the smallest non-zero max_frame (0 = unbounded)
    /// and the largest max_eager. Failover and the chunk pool can move a
    /// fragment or chunk to any rail, so frames are cut to the peer's
    /// bounds, not one rail's.
    std::size_t max_frame = 0;
    std::size_t max_eager = 0;
    /// The map, under `mu`; each node's `rx` under its own rx_mu.
    std::map<ChannelId, ChannelState> channels;
    /// Rendezvous decisions: the queued chunks toward the peer, and the
    /// verdict on replays of what it sends.
    RdvSender rdv_out;
    RdvReceiver rdv_in;
    /// Hot token-keyed state: open-addressing slabs (core/token_table.hpp),
    /// not std::map — O(1) probes, no per-entry allocation, and they shrink
    /// back when a flow burst drains so per-peer memory stays bounded.
    TokenTable<InFlight> inflight;
    TokenTable<RdvTx> rdv_tx;
    TokenTable<RdvRx> rdv_rx;
    TokenTable<PendingGet> pending_gets;
    TokenTable<SendStateRef> rma_acks;

    /// Monotonic floor for drained submit times: ring enqueue timestamps
    /// from racing threads can arrive slightly out of order, but the
    /// backlog's flow index requires submit_time non-decreasing in `order`.
    Nanos last_drain_time = 0;
  };

  /// RAII peer-lock with contention accounting: try_lock fast path; on
  /// contention the spun and blocked time lands in opt.lock_wait_ns.
  class PeerLock {
   public:
    explicit PeerLock(PeerState& ps) : ps_(ps) {
      if (!ps.mu.try_lock()) {
        const auto t0 = std::chrono::steady_clock::now();
        ps.mu.lock();
        const auto dt = std::chrono::steady_clock::now() - t0;
        ps.stats.inc(Ctr::OptLockWaitNs,
                     static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             dt)
                             .count()));
      }
      ps.stats.inc(Ctr::OptLockAcquisitions);
    }
    ~PeerLock() { ps_.mu.unlock(); }
    PeerLock(const PeerLock&) = delete;
    PeerLock& operator=(const PeerLock&) = delete;

   private:
    PeerState& ps_;
  };

  // ---- submit path (called from handles) -------------------------------

  /// The peer shard and the channel a Channel cached at open_channel
  /// (opaque to handles).
  static PeerState& shard_of(void* peer_cache) {
    return *static_cast<PeerState*>(peer_cache);
  }
  static ChannelState& channel_of(void* chan_cache) {
    return *static_cast<ChannelState*>(chan_cache);
  }

  // Every handle call works on the shard and the channel the Channel
  // resolved at open_channel, so none of them touches the peer map, and no
  // receive call touches the channel map.

  /// Post `msg` on channel `ch`. While progress threads run, the message
  /// always parks in the submit ring for the shard's owner (the hand-off);
  /// otherwise it submits inline when the shard is free. A full ring
  /// falls back to the locked path.
  SendHandle submit(PeerState& ps, ChannelId ch, TrafficClass cls,
                    Message msg);
  /// Register the destination of fragment `idx`; true if the fragment was
  /// already here and has been copied (an Express unpack need not wait).
  bool post_unpack(PeerState& ps, ChannelState& cs, MsgSeq seq, FragIdx idx,
                   void* buf, std::size_t len);
  /// Wait until fragment `idx` of message `seq` has arrived (`landed`: and
  /// its bytes are in the unpacked buffer); returns its size.
  std::uint64_t wait_frag(PeerState& ps, const ChannelState& cs, MsgSeq seq,
                          FragIdx idx, bool landed);
  void finish_recv(PeerState& ps, ChannelState& cs, MsgSeq seq,
                   FragIdx nposted);
  void flush_channel(PeerState& ps, ChannelId ch);

  // ---- driver callback entry (no engine lock held) ---------------------

  void on_send_complete(NodeId peer, RailId rail, drv::TrackId track,
                        std::uint64_t token);
  void on_packet(NodeId peer, RailId rail, drv::TrackId track, Bytes payload);
  /// A queued send will never complete (the driver's wire broke under it).
  /// Treated as a link failure: the whole rail fails over in one sweep,
  /// which replays or fails this token's record along with the rest.
  void on_send_failed(NodeId peer, RailId rail, drv::TrackId track,
                      std::uint64_t token);
  void on_link_down(NodeId peer, RailId rail);

  // ---- peer resolution (peers_mu_, shared) ------------------------------

  /// Resolve a peer shard; the pointer stays valid for the engine's
  /// lifetime (peers are never erased). Returns nullptr if unknown.
  PeerState* find_peer(NodeId peer) const;
  /// Like find_peer but CHECK-fails on unknown peers.
  PeerState& peer_ref(NodeId peer) const;

  // ---- locked internals (callers hold ps.mu) ----------------------------

  RailId rail_for_class_locked(const PeerState& ps, TrafficClass cls) const;
  /// Channel `ch`, which the application opened (CHECKed).
  static ChannelState& channel_locked(PeerState& ps, ChannelId ch);

  /// Drain the submit ring into the backlog (ring order), then return how
  /// many ops were applied. Called by every peer-lock holder before
  /// pumping, so parked submissions never strand.
  std::size_t drain_submit_ring_locked(PeerState& ps);
  /// The (former) body of submit(): assign the sequence, cut fragments,
  /// queue rendezvous, push to the chosen rail's backlog.
  void submit_locked(PeerState& ps, ChannelId ch, Message&& msg,
                     const SendStateRef& state, Nanos enq_time);

  void pump_peer_locked(PeerState& ps);
  void pump_rail_locked(PeerState& ps, Rail& rail);
  bool try_send_eager_locked(PeerState& ps, Rail& rail);
  bool try_send_bulk_locked(PeerState& ps, Rail& rail);
  /// Send `frags` as one eager packet; no fragments make a standalone ack.
  void send_packet_locked(PeerState& ps, Rail& rail, FragList&& frags);
  void send_bulk_chunk_locked(PeerState& ps, Rail& rail,
                              const RdvSender::Chunk& chunk);
  /// Hand `rec`'s header block and payload to the driver (again, to resend)
  /// and keep its stream's retransmit timer armed.
  void transmit_locked(PeerState& ps, Rail& rail, std::uint64_t token,
                       InFlight& rec);
  /// f(data, len) for each payload segment: fragments or the chunk's bytes.
  template <class F>
  void for_each_payload_locked(PeerState& ps, const InFlight& rec, F&& f);
  void schedule_nagle_timer_locked(PeerState& ps, Rail& rail, Nanos when);

  void complete_send_locked(PeerState& ps, Rail& rail, drv::TrackId track,
                            std::uint64_t token);
  void complete_frag_state_locked(PeerState& ps, ChannelId ch,
                                  const SendStateRef& state);
  /// Final bookkeeping of a fully-done InFlight record (frag states / rdv
  /// progress, buffer recycling). With reliability off this runs at driver
  /// completion; with it on, when acked and no transmission is in flight.
  void finalize_inflight_locked(PeerState& ps, InFlight& rec);

  /// Apply one staged driver event (batched drain) or one direct callback.
  void apply_send_complete_locked(PeerState& ps, RailId rail,
                                  drv::TrackId track, std::uint64_t token);
  void apply_packet_locked(PeerState& ps, RailId rail, const Bytes& payload);
  void apply_link_down_locked(PeerState& ps, RailId rail);

  // ---- reliability layer (all no-ops unless cfg_.reliability) -----------

  /// Stamp a new packet's reliable header fields (PacketHeader and
  /// BulkHeader name them alike): both streams' acks and, for a reliable
  /// `rec`, its stream's next seq and the payload CRC.
  template <class Header>
  void stamp_locked(PeerState& ps, Rail& rail, Header& h, std::uint64_t token,
                    InFlight& rec);
  void process_acks_locked(PeerState& ps, Rail& rail, std::uint32_t ack_eager,
                           std::uint32_t ack_bulk);
  void arm_rto_locked(PeerState& ps, Rail& rail, int stream);
  void rto_fired_locked(PeerState& ps, Rail& rail, int stream);
  /// Send a standalone (zero-fragment) cumulative-ack packet if one is owed
  /// and no data packet is about to carry it.
  void maybe_send_ack_locked(PeerState& ps, Rail& rail);
  /// Apply an arriving header's acks and judge its seq on `stream`; true if
  /// the packet is to be delivered.
  template <class Header>
  bool rel_rx_locked(PeerState& ps, Rail& rail, int stream, const Header& h);
  /// Declare a rail dead: drain its un-acked in-flight records, backlog and
  /// bulk queue onto a surviving Up rail (or fail the sends if none).
  void fail_rail_locked(PeerState& ps, Rail& rail);
  /// Mark a send as failed (idempotent) and release its channel slot.
  void fail_state_locked(PeerState& ps, ChannelId ch,
                         const SendStateRef& state);
  /// Every cross-rail replay verdict: a copy is counted and dropped with
  /// reliability on, a protocol violation without. Returns `replay`.
  bool replay_locked(PeerState& ps, bool replay, const char* what);

  void handle_eager_packet_locked(PeerState& ps, RailId rail,
                                  const Bytes& payload);
  void handle_bulk_packet_locked(PeerState& ps, RailId rail,
                                 const Bytes& payload);
  void deliver_data_frag_locked(PeerState& ps, const FragHeader& fh,
                                ByteSpan payload);
  /// The slot of `rx` that fragment `fh` of `len` bytes (`rdv`: its RTS)
  /// fills, or nullptr for a replay: a fragment of a finished message, or
  /// of a slot already filled. Callers also hold the channel's rx_mu.
  RxChannel::Slot* arrive_locked(PeerState& ps, RxChannel& rx,
                                 const FragHeader& fh, std::uint64_t len,
                                 bool rdv);
  void handle_rts_locked(PeerState& ps, const FragHeader& fh,
                         ByteSpan payload);
  void handle_cts_locked(PeerState& ps, ByteSpan payload);
  /// Queue the RdvCts answering the RTS `fh` of rendezvous `token`, whose
  /// RdvRx already knows where the bytes land. Callers pump.
  void send_cts_locked(PeerState& ps, const FragHeader& fh,
                       std::uint64_t token);
  /// The CTS of `token` arrived: place its chunks, by the cost model's
  /// stripe_shares under MultirailPolicy::Stripe.
  void place_chunks_locked(PeerState& ps, std::uint64_t token,
                           std::uint64_t total);
  /// Fragments of at least this many bytes go by rendezvous on `rail`: its
  /// threshold (or the override), cut so the largest eager packet still
  /// fits the peer's max_frame.
  std::size_t rdv_threshold(const PeerState& ps, const Rail& rail) const;
  /// Rendezvous chunk size toward `ps`: cfg.rdv_chunk, cut so a chunk and
  /// its BulkHeader fit the peer's max_frame.
  std::size_t chunk_size(const PeerState& ps) const;
  /// Open rendezvous `token` carrying `rdv` and turn `tf` into its RTS,
  /// with `body`'s target fields.
  void open_rdv_locked(PeerState& ps, RailId rail, std::uint64_t token,
                       RdvTx&& rdv, RtsBody body, TxFrag& tf);
  /// The last byte of rendezvous `token` landed: complete its target.
  void finish_rdv_rx_locked(PeerState& ps, RailId rail, std::uint64_t token,
                            const RdvRx& rx);

  // RMA internals.
  void handle_rma_put_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_get_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_get_data_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_ack_locked(PeerState& ps, ByteSpan payload);
  void push_rma_ack_locked(PeerState& ps, std::uint64_t ack_token);
  /// The shared start of rma_put and rma_get: the rail for `cls`, or null
  /// when every rail toward the peer is dead, which fails `state`.
  Rail* rma_rail_locked(PeerState& ps, TrafficClass cls, SendState& state);
  /// A handle's state toward `peer`, with `pending` completions to go.
  SendStateRef new_send_state(NodeId peer, TrafficClass cls,
                              std::uint32_t pending) const;
  /// Bounds-checked window lookup, BY VALUE under windows_mu_ (shared):
  /// callers hold a peer lock, never the window map's.
  RmaWindow window_checked(WindowId id, std::uint64_t offset,
                           std::uint64_t len) const;
  /// An engine-made fragment, stamped now and addressed to the RMA channel.
  TxFrag make_rma_frag_locked(PeerState& ps, FragKind kind);

  // ---- wait plumbing ---------------------------------------------------

  /// Wait on `w` until `pred` holds, which synchronizes itself: a peer's
  /// slot, which only that peer's completions wake, or the global one. On
  /// a peer's slot a pred that already holds returns at once, before any
  /// of the wait machinery; a global wait (flush, wait_until) drives the
  /// engine once first when no progress thread runs.
  template <class Pred>
  bool wait_on(WaitSlot& w, Pred&& pred, Nanos timeout);
  /// Yield a bounded number of times (kWaitYields), watching `w`'s epoch;
  /// true as soon as it moves off `epoch`. Takes no lock.
  static bool epoch_moved_while_yielding(const WaitSlot& w,
                                         std::uint64_t epoch);

  // ---- progress threads -------------------------------------------------

  /// One park/wakeup slot per progress thread. The armed/parked/ticket
  /// trio is an eventcount: the thread publishes `armed` (seq_cst), runs
  /// one last poll lap, then, under `mu`, publishes `parked` and parks only
  /// if `ticket` did not move — so a waker that bumps the ticket between
  /// the final poll and the cv wait is never lost (the wait is skipped).
  /// Wakers that see `parked` lock `mu` before notifying, so the notify
  /// cannot slip into the gap between the ticket check and the wait.
  struct ProgSlot {
    std::mutex mu;               ///< cv's mutex (park protocol only)
    std::condition_variable cv;
    std::atomic<bool> armed{false};   ///< thread is in its pre-park window
    std::atomic<bool> parked{false};  ///< thread is inside cv.wait_for
    std::atomic<std::uint64_t> ticket{0};  ///< activity epoch while armed

    // Cached per-thread counter cells (prog.t<i>.*).
    std::atomic<std::uint64_t>* laps = nullptr;
    std::atomic<std::uint64_t>* steals = nullptr;
    std::atomic<std::uint64_t>* wakeups = nullptr;
    std::atomic<std::uint64_t>* idle_sleeps = nullptr;
  };

  /// Unpark `s` if its thread is (about to go) idle; false if it is
  /// polling. The armed gate keeps the hot path cheap: while the thread
  /// polls, this is one load and nothing else. Callers first publish their
  /// work under a lock the thread's final poll lap also takes (a driver
  /// queue), with a seq_cst store that lap reads (the shm driver's rings),
  /// or followed by an atomic read-modify-write (the submit ring's
  /// counter, the timer host's listener lock), so either this load sees
  /// `armed` or that lap sees the work.
  bool wake_slot(ProgSlot& s) {
    if (!s.armed.load(std::memory_order_seq_cst)) return false;
    s.ticket.fetch_add(1, std::memory_order_seq_cst);
    if (s.parked.load(std::memory_order_seq_cst)) {
      // Lock/unlock before notifying: a notify issued while the parking
      // thread is between its ticket check and cv.wait would otherwise be
      // lost — exactly the race this slot protocol exists to close.
      { std::lock_guard<std::mutex> lk(s.mu); }
      s.cv.notify_one();
    }
    return true;
  }

  /// Unpark the first idle progress thread, if any.
  void wake_any_slot() {
    for (auto& s : prog_slots_)
      if (wake_slot(*s)) return;
  }

  /// Activity on `ps` (a driver ring, a parked submit): wake the owning
  /// thread only. An owner that is not parked will poll the shard itself —
  /// unless it is busy elsewhere or wedged, so then one idle thread is
  /// woken to steal the shard (with one progress thread, none exists). A
  /// shard someone is pumping needs no stealer: its pumper laps back to it.
  void note_activity(PeerState& ps) {
    if (!wake_slot(*prog_slots_[ps.owner]) &&
        !ps.pumping.load(std::memory_order_acquire))
      wake_any_slot();
  }

  /// Pump one shard end-to-end (endpoint poll under a lap, then one locked
  /// batch apply + ring drain + pump + acks), guarded by the pump claim.
  /// `events` is caller-owned scratch (capacity reuse across laps). An idle
  /// lap takes no lock. Returns true if the shard produced work; false also
  /// when another thread holds the claim.
  bool pump_shard(PeerState& ps, std::vector<RxEvent>& events);

  /// Body of progress thread `idx` (shard ownership, steal, park backoff).
  void progress_thread_main(std::size_t idx);

  /// Install the callback of `timer`, one of `rail`'s, unless it has one:
  /// a firing that no re-arm or cancel superseded runs body(ps, rail) under
  /// the peer lock, drains the submit ring, pumps the rail (or the whole
  /// peer, when `body` can move traffic to another rail), and wakes waiters.
  template <class Body>
  void rail_timer_locked(PeerState& ps, Rail& rail, TimerHandle& timer,
                         bool pump_peer, Body body);

  /// Wake this peer's waiters and any global (flush / wait_until) waiters.
  /// Cheap when nobody waits: two atomic loads. Otherwise bump the epoch
  /// the waiters re-check before parking, and lock/unlock their mutex
  /// before notifying, so the notify cannot slip between a waiter's epoch
  /// check and its cv wait (the ProgSlot protocol).
  void wake_peer(PeerState& ps) {
    wake(ps.waits);
    wake(global_waits_);
  }
  static void wake(WaitSlot& w) {
    if (w.waiters.load(std::memory_order_seq_cst) > 0) {
      w.epoch.fetch_add(1, std::memory_order_seq_cst);
      { std::lock_guard<std::mutex> lk(w.mu); }
      w.cv.notify_all();
    }
  }

  /// Emit a trace record if a tracer is attached. Callable under any peer
  /// lock or peers_mu_; every trace site MUST hold one of those (that is
  /// what makes set_tracer's detach-quiescence sweep sufficient).
  void trace_locked(TraceEvent ev, NodeId peer, RailId rail, std::uint64_t a,
                    std::uint64_t b = 0, std::uint64_t c = 0,
                    std::uint64_t d = 0) {
    Tracer* t = tracer_.load(std::memory_order_acquire);
    if (!t) return;
    TraceRecord rec;
    rec.time = timers_.now();
    rec.event = ev;
    rec.node = self_;
    rec.peer = peer;
    rec.rail = rail;
    rec.a = a;
    rec.b = b;
    rec.c = c;
    rec.d = d;
    t->record(rec);
  }

  // ---- data --------------------------------------------------------------

  const NodeId self_;
  EngineConfig cfg_;
  /// Progress-thread count (cfg_.progress_threads floored at 1). Fixed at
  /// construction: shard→owner assignment must never move under a running
  /// thread.
  const std::size_t prog_nthreads_;
  TimerHost& timers_;
  /// Prototype instance (name/introspection); each peer owns its own.
  std::unique_ptr<Strategy> strategy_;

  /// Peer map: read-mostly. Unique lock only in add_rail (topology setup);
  /// everything else takes it shared. PeerStates are never erased.
  mutable std::shared_mutex peers_mu_;
  std::map<NodeId, std::unique_ptr<PeerState>> peers_;

  /// RMA windows: written by expose_window, read (shared) by RX handlers
  /// under a peer lock — lock order ps.mu → windows_mu_.
  mutable std::shared_mutex windows_mu_;
  std::map<WindowId, RmaWindow> windows_;

  /// Root stats: engine-level counters (sched.*, prog.*, timer.*) plus
  /// aggregation over the per-peer shards registered as children.
  StatsRegistry stats_;
  EngineStats eng_stats_{stats_};
  /// Atomic so attach/detach is race-free against hot-path reads; see
  /// set_tracer for the detach-quiescence sweep.
  std::atomic<Tracer*> tracer_{nullptr};

  std::atomic<std::uint64_t> next_pkt_token_{1};
  std::atomic<std::uint64_t> next_rdv_token_{1};
  std::atomic<std::uint64_t> next_submit_order_{1};

  std::array<std::atomic<RailId>, kTrafficClassCount> class_rail_{};

  /// Global waiters (flush / generic wait_until). Peer-scoped waits use the
  /// peer's slot instead, so one peer's completions don't wake the world.
  WaitSlot global_waits_;

  /// Park/wakeup slots, one per progress thread, created in the
  /// constructor so note_activity() never races start/stop of the threads.
  /// unique_ptr: slots hold mutexes/cvs and must never move. Rings may
  /// arrive until ~Engine has closed every endpoint and left the timer
  /// host's listeners.
  std::vector<std::unique_ptr<ProgSlot>> prog_slots_;

  /// Guards the odds and ends below (external progress hook, rebalance
  /// interval/chain).
  mutable std::mutex misc_mu_;
  std::function<bool()> external_progress_;
  Nanos auto_rebalance_interval_ = 0;
  /// Owner of the self-re-arming rebalance tick. The scheduled copies hold
  /// only a weak_ptr back to it, so no reference cycle forms and the chain
  /// dies with the engine (see set_auto_rebalance).
  std::shared_ptr<std::function<void()>> rebalance_tick_;

  std::vector<std::thread> progress_threads_;
  std::atomic<bool> stop_progress_{false};
  /// True between start_progress_thread() and the end of
  /// stop_progress_thread(): wait loops park instead of self-pumping only
  /// while this holds.
  std::atomic<bool> prog_running_{false};
  std::shared_ptr<std::atomic<bool>> alive_;
};

template <class Pred>
bool Engine::wait_on(WaitSlot& w, Pred&& pred, Nanos timeout) {
  // A peer wait already satisfied (an arrived message, a completed send):
  // no hook copy, no waiter registration, no self-pump. A global wait
  // pumps once first when no progress thread runs.
  if (&w != &global_waits_ && pred()) return true;
  std::function<bool()> ext;
  {
    std::lock_guard<std::mutex> lk(misc_mu_);
    ext = external_progress_;
  }
  if (ext) {
    // Cooperative simulation mode: pump the world until pred holds or the
    // event queue drains (virtual time — wall timeout does not apply).
    for (;;) {
      if (pred()) return true;
      if (!ext()) return pred();
    }
  }
  const Nanos deadline = timers_.now() + timeout;
  w.waiters.fetch_add(1, std::memory_order_seq_cst);
  bool ok = false;
  for (;;) {
    // Epoch before pred: a wake() that lands after this load (even while
    // pred runs) moves the epoch, and the check below skips the park.
    const std::uint64_t epoch = w.epoch.load(std::memory_order_seq_cst);
    // Self-pump only when no progress thread is attached: with one (or N)
    // running, a waiter pumping too would double-poll endpoints and
    // contend every shard lock it touches (inflating opt.lock_wait_ns for
    // nothing) — wait and let the owners work instead. Checked every
    // iteration so a stop_progress_thread() mid-wait hands the pumping
    // duty back to the waiter.
    const bool threaded = prog_running_.load(std::memory_order_acquire);
    if (!threaded) {
      progress();
      eng_stats_.inc(Ctr::ProgSelfPumps);
    }
    if (pred()) {
      ok = true;
      break;
    }
    if (timers_.now() > deadline) break;
    // A progress thread usually delivers within a few µs: yield on the
    // epoch first, and park (which costs the waker a futex wake) only if
    // nothing woke the slot meanwhile.
    if (threaded && epoch_moved_while_yielding(w, epoch)) continue;
    std::unique_lock<std::mutex> lk(w.mu);
    if (w.epoch.load(std::memory_order_seq_cst) == epoch)
      w.cv.wait_for(lk, std::chrono::microseconds(200));
  }
  w.waiters.fetch_sub(1, std::memory_order_seq_cst);
  return ok;
}

}  // namespace mado::core
