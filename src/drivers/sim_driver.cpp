#include "drivers/sim_driver.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mado::drv {

/// Shared state of one full-duplex link. Direction d (0→1 or 1→0) has its
/// own serialization horizon `link_free[d]`, fault plan and fault RNG
/// stream. Handlers live here (not in the endpoints) so in-flight delivery
/// events can check liveness safely.
struct SimEndpoint::LinkState {
  sim::Fabric* fabric = nullptr;
  EndpointHandler* handler[2] = {nullptr, nullptr};
  bool alive[2] = {false, false};
  Nanos link_free[2] = {0, 0};
  // Fault injection, per TX direction.
  FaultPlan plan[2];
  Rng rng[2];
  FaultStats faults[2];
  bool failed = false;          ///< whole link is dead
  bool down_notified = false;   ///< on_link_down already dispatched

  /// Kill the link and notify both live sides exactly once. Runs from the
  /// fabric loop (driver contract: no synchronous handler calls).
  static void fail_now(const std::shared_ptr<LinkState>& link) {
    link->failed = true;
    if (link->down_notified) return;
    link->down_notified = true;
    for (int s = 0; s < 2; ++s)
      if (link->alive[s] && link->handler[s]) link->handler[s]->on_link_down();
  }
};

SimEndpoint::PairResult SimEndpoint::make_pair(sim::Fabric& fabric,
                                               const Capabilities& caps_a,
                                               const Capabilities& caps_b) {
  auto link = std::make_shared<LinkState>();
  link->fabric = &fabric;
  link->alive[0] = link->alive[1] = true;
  PairResult r;
  r.a.reset(new SimEndpoint(fabric, caps_a, link, 0));
  r.b.reset(new SimEndpoint(fabric, caps_b, link, 1));
  return r;
}

SimEndpoint::SimEndpoint(sim::Fabric& fabric, Capabilities caps,
                         std::shared_ptr<LinkState> link, int side)
    : fabric_(fabric), caps_(std::move(caps)), link_(std::move(link)),
      side_(side) {}

SimEndpoint::~SimEndpoint() {
  link_->alive[side_] = false;
  link_->handler[side_] = nullptr;
}

void SimEndpoint::set_handler(EndpointHandler* handler) {
  link_->handler[side_] = handler;
}

bool SimEndpoint::link_up() const { return !link_->failed; }

const FaultStats& SimEndpoint::fault_stats() const {
  return link_->faults[side_];
}

void SimEndpoint::set_fault_plan(const FaultPlan& plan) {
  link_->plan[side_] = plan;
  link_->rng[side_] = Rng(plan.seed + static_cast<std::uint64_t>(side_));
  if (plan.fail_at > 0) {
    auto link = link_;
    fabric_.post_at(plan.fail_at, [link] {
      if (!link->failed) LinkState::fail_now(link);
    });
  }
}

void SimEndpoint::fail_link() {
  if (link_->failed) return;
  // Mark dead immediately (sends stop; in-flight deliveries are lost), but
  // dispatch the notification from the fabric loop per the driver contract.
  link_->failed = true;
  auto link = link_;
  fabric_.post_at(fabric_.now(), [link] { LinkState::fail_now(link); });
}

void SimEndpoint::send(TrackId track, const GatherList& gl,
                       std::uint64_t token) {
  MADO_CHECK_MSG(track < caps_.track_count,
                 "track " << int(track) << " out of range for " << caps_.name);
  MADO_CHECK(link_->handler[side_] != nullptr);
  check_frame(caps_, gl);

  // Materialize the payload now: segment buffers are only guaranteed valid
  // until on_send_complete, and delivery happens after that.
  Bytes payload = gl.flatten();
  const std::size_t bytes = payload.size();

  // Charge segment handling per the capabilities: a gather-capable NIC pays
  // per-segment overhead; otherwise the host flattens first (memcpy cost).
  const sim::NicModel model(caps_.cost);
  std::size_t nsegs = gl.segment_count();
  Nanos flatten_cost = 0;
  const bool needs_flatten =
      nsegs > 1 &&
      (!caps_.gather_scatter || nsegs > caps_.max_gather_segments);
  if (needs_flatten) {
    flatten_cost = model.copy_time(bytes);
    nsegs = 1;
    ++flatten_copies_;
  }

  const Nanos busy = flatten_cost + model.busy_time(bytes, nsegs);
  const int d = side_;  // direction side_ -> peer
  const Nanos start = std::max(fabric_.now(), link_->link_free[d]);
  const Nanos accept = start + busy;
  link_->link_free[d] = accept;
  const Nanos deliver = accept + model.propagation_latency();

  ++packets_sent_;
  bytes_sent_ += bytes;
  MADO_TRACE("sim[" << caps_.name << "/" << d << "] send track="
                    << int(track) << " bytes=" << bytes << " segs=" << nsegs
                    << " accept@" << accept << " deliver@" << deliver);

  auto link = link_;
  const int me = side_;
  // The local NIC always accepts the packet (wire faults happen after the
  // DMA): completions fire even on lossy links, and on a dead link too —
  // the engine marks the rail Down from on_link_down and ignores them.
  fabric_.post_at(accept, [link, me, track, token] {
    if (link->alive[me] && link->handler[me])
      link->handler[me]->on_send_complete(track, token);
  });

  // Fault injection on the wire (this TX direction only).
  Nanos deliver_at = deliver;
  bool deliver_dup = false;
  const FaultPlan& plan = link->plan[d];
  if (plan.active() && !link->failed) {
    Rng& rng = link->rng[d];
    FaultStats& fs = link->faults[d];
    if (plan.drop > 0 && rng.chance(plan.drop)) {
      ++fs.dropped;
      MADO_TRACE("sim[" << caps_.name << "/" << d << "] DROP token=" << token);
      return;  // vanished in transit; completion above still fires
    }
    if (plan.corrupt > 0 && rng.chance(plan.corrupt) && bytes > 0) {
      const std::size_t at = rng.below(bytes);
      payload[at] = static_cast<Byte>(payload[at] ^ (1u << rng.below(8)));
      ++fs.corrupted;
      MADO_TRACE("sim[" << caps_.name << "/" << d << "] CORRUPT token="
                        << token << " byte=" << at);
    }
    if (plan.duplicate > 0 && rng.chance(plan.duplicate)) {
      ++fs.duplicated;
      deliver_dup = true;
    }
    if (plan.reorder > 0 && rng.chance(plan.reorder)) {
      // Push this delivery past packets sent after it: tracks are FIFO in
      // the fabric only by timestamp, so a later deadline = reordering.
      deliver_at += plan.reorder_delay;
      ++fs.reordered;
      MADO_TRACE("sim[" << caps_.name << "/" << d << "] REORDER token="
                        << token << " deliver@" << deliver_at);
    }
  }

  const int peer = 1 - side_;
  if (deliver_dup) {
    Bytes copy = payload;
    fabric_.post_at(deliver_at + 1,
                    [link, peer, track, p = std::move(copy)]() mutable {
                      if (!link->failed && link->alive[peer] &&
                          link->handler[peer])
                        link->handler[peer]->on_packet(track, std::move(p));
                    });
  }
  fabric_.post_at(deliver_at,
                  [link, peer, track, p = std::move(payload)]() mutable {
                    if (!link->failed && link->alive[peer] &&
                        link->handler[peer])
                      link->handler[peer]->on_packet(track, std::move(p));
                  });
}

std::string SimEndpoint::describe() const {
  std::ostringstream os;
  os << "sim:" << caps_.name << "[side " << side_ << "]";
  return os.str();
}

}  // namespace mado::drv
