#include "drivers/shm_driver.hpp"

#include "util/assert.hpp"

namespace mado::drv {

Capabilities shm_profile() {
  Capabilities c;
  c.name = "shm";
  c.max_eager = 16 * 1024;
  c.rdv_threshold = 64 * 1024;
  c.gather_scatter = false;  // frames are contiguous copies
  c.max_gather_segments = 1;
  c.track_count = 2;
  c.cost.pio_overhead = 80;          // one ring handoff
  c.cost.dma_overhead = 80;
  c.cost.per_segment = 0;
  c.cost.pio_threshold = 256;
  c.cost.pio_bytes_per_us = 4000.0;  // memcpy-bound
  c.cost.link_bytes_per_us = 4000.0;
  c.cost.gap = 20;
  c.cost.latency = 200;              // ~0.2 us cross-thread
  c.cost.copy_bytes_per_us = 4000.0;
  return c;
}

ShmEndpoint::PairResult ShmEndpoint::make_pair(const Capabilities& caps) {
  auto shared = std::make_shared<Shared>();
  PairResult r;
  r.a.reset(new ShmEndpoint(caps, shared, 0));
  r.b.reset(new ShmEndpoint(caps, shared, 1));
  return r;
}

ShmEndpoint::ShmEndpoint(Capabilities caps, std::shared_ptr<Shared> shared,
                         int side)
    : caps_(std::move(caps)), shared_(std::move(shared)), side_(side) {}

ShmEndpoint::~ShmEndpoint() { close(); }

void ShmEndpoint::set_handler(EndpointHandler* handler) {
  handler_ = handler;
  std::lock_guard<std::mutex> lk(shared_->ready_mu[side_]);
  shared_->ready[side_] = handler;
}

void ShmEndpoint::close() {
  std::lock_guard<std::mutex> lk(shared_->ready_mu[side_]);
  shared_->ready[side_] = nullptr;
}

void ShmEndpoint::send(TrackId track, const GatherList& gl,
                       std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  check_frame(caps_, gl);
  Frame f;
  f.track = track;
  f.payload = gl.flatten();
  ++packets_sent_;
  bytes_sent_ += f.payload.size();
  const int peer = 1 - side_;
  shared_->inbox[peer].push(std::move(f));
  {
    std::lock_guard<std::mutex> lk(shared_->ready_mu[peer]);
    if (EndpointHandler* h = shared_->ready[peer]) h->on_ready();
  }
  completions_.push(Completion{track, token});
  // No lock: our own handler's engine is the one calling send().
  if (handler_) handler_->on_ready();
}

void ShmEndpoint::progress() {
  if (!handler_) return;
  while (auto c = completions_.try_pop())
    handler_->on_send_complete(c->track, c->token);
  while (auto f = shared_->inbox[side_].try_pop())
    handler_->on_packet(f->track, std::move(f->payload));
}

}  // namespace mado::drv
