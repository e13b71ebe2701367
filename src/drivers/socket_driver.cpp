#include "drivers/socket_driver.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace mado::drv {

namespace {
constexpr std::size_t kFrameHeaderLen = 1 + 4;  // track + payload length
constexpr std::size_t kMaxFrame = 256 * 1024 * 1024;
}  // namespace

SocketEndpoint::PairResult SocketEndpoint::make_pair(
    const Capabilities& caps_a, const Capabilities& caps_b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::system_error(errno, std::generic_category(), "socketpair");
  PairResult r;
  r.a.reset(new SocketEndpoint(caps_a, fds[0]));
  r.b.reset(new SocketEndpoint(caps_b, fds[1]));
  return r;
}

SocketEndpoint::SocketEndpoint(Capabilities caps, int fd)
    : caps_(std::move(caps)), fd_(fd) {
  tx_thread_ = std::thread([this] { tx_loop(); });
  rx_thread_ = std::thread([this] { rx_loop(); });
}

SocketEndpoint::~SocketEndpoint() { close(); }

void SocketEndpoint::close() {
  if (!gate_.mark_closed_once()) return;
  stop_.store(true, std::memory_order_release);
  // The TX thread sleeps indefinitely in pop_blocking(); this sentinel is
  // its only wake-up, so shutdown is prompt and idle endpoints cost zero
  // wakeups in between.
  TxItem sentinel;
  sentinel.stop = true;
  tx_.push(std::move(sentinel));
  // Unblock the RX thread's read().
  ::shutdown(fd_, SHUT_RDWR);
  if (tx_thread_.joinable()) tx_thread_.join();
  if (rx_thread_.joinable()) rx_thread_.join();
  ::close(fd_);
  fd_ = -1;
}

void SocketEndpoint::send(TrackId track, const GatherList& gl,
                          std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  check_frame(caps_, gl);
  MADO_CHECK_MSG(!gate_.closed(), "send on closed endpoint");
  TxItem item;
  item.track = track;
  item.token = token;
  item.payload = gl.flatten();  // segments only live until completion
  gate_.accept();
  tx_.push(std::move(item));
}

void SocketEndpoint::deliver(Event ev) {
  events_.push(std::move(ev));
  if (EndpointHandler* h = handler_.load(std::memory_order_acquire))
    h->on_ready();
}

void SocketEndpoint::mark_broken() {
  gate_.mark_broken();
  if (EndpointHandler* h = handler_.load(std::memory_order_acquire))
    h->on_ready();
}

void SocketEndpoint::progress() {
  EndpointHandler* handler = handler_.load(std::memory_order_acquire);
  if (!handler) return;
  std::vector<Event> drained;
  events_.drain(drained);
  for (auto& ev : drained) {
    if (auto* done = std::get_if<EvSendComplete>(&ev)) {
      gate_.resolve();
      handler->on_send_complete(done->track, done->token);
    } else if (auto* failed = std::get_if<EvSendFailed>(&ev)) {
      gate_.resolve();
      handler->on_send_failed(failed->track, failed->token);
    } else {
      auto& pkt = std::get<EvPacket>(ev);
      handler->on_packet(pkt.track, std::move(pkt.payload));
    }
  }
  // Teardown ordering: a peer death is reported only AFTER every packet
  // that made it over the wire has been handed to the handler and every
  // accepted send has been resolved (completion or failure), and exactly
  // once. The outstanding gate matters: when the wire breaks the TX
  // thread turns into a drain pump that fails queued items one by one —
  // without the gate a progress() call could slip in between two of those
  // pushes and report link-down while doomed sends still await their
  // on_send_failed. A deliberate local close() is not a failure and is
  // never reported. The full protocol lives in LinkDownGate (shared with
  // the UDP driver).
  if (gate_.should_report_link_down()) handler->on_link_down();
}

bool SocketEndpoint::write_all(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that died mid-stream must surface as an error
    // (broken()), not as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool SocketEndpoint::read_all(void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd_, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void SocketEndpoint::tx_loop() {
  // Blocking pop: the thread sleeps until a send arrives or close() pushes
  // the stop sentinel. The previous 100 ms pop_wait poll tick woke every
  // idle endpoint 10×/s forever and made shutdown wait out a partial tick;
  // now an idle endpoint parks at zero cost and the sentinel is the sole,
  // prompt wake-up. tx_wakeups_ counts every wake so a regression back to
  // polling is visible to the tests.
  for (;;) {
    TxItem item = tx_.pop_blocking();
    tx_wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (item.stop) return;

    std::uint8_t hdr[kFrameHeaderLen];
    hdr[0] = item.track;
    const auto len = static_cast<std::uint32_t>(item.payload.size());
    hdr[1] = static_cast<std::uint8_t>(len & 0xff);
    hdr[2] = static_cast<std::uint8_t>((len >> 8) & 0xff);
    hdr[3] = static_cast<std::uint8_t>((len >> 16) & 0xff);
    hdr[4] = static_cast<std::uint8_t>((len >> 24) & 0xff);

    if (!write_all(hdr, sizeof hdr) ||
        !write_all(item.payload.data(), item.payload.size())) {
      // The wire broke under this item. Silently returning here used to
      // drop it AND everything still queued behind it — no completion, no
      // failure — so the engine's in-flight records for those tokens leaked
      // forever when reliability was off (and flush() hung on them). Fail
      // the current item, then stay alive as a drain pump so every queued
      // and every future send() gets exactly one failure event, delivered
      // by progress() before on_link_down.
      gate_.mark_broken();
      deliver(EvSendFailed{item.track, item.token});
      for (;;) {
        TxItem doomed = tx_.pop_blocking();
        tx_wakeups_.fetch_add(1, std::memory_order_relaxed);
        if (doomed.stop) return;
        deliver(EvSendFailed{doomed.track, doomed.token});
      }
    }
    packets_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(item.payload.size(), std::memory_order_relaxed);
    deliver(EvSendComplete{item.track, item.token});
  }
}

void SocketEndpoint::rx_loop() {
  for (;;) {
    std::uint8_t hdr[kFrameHeaderLen];
    if (!read_all(hdr, sizeof hdr)) {
      if (!stop_.load(std::memory_order_acquire)) mark_broken();
      return;
    }
    const TrackId track = hdr[0];
    const std::uint32_t len = static_cast<std::uint32_t>(hdr[1]) |
                              (static_cast<std::uint32_t>(hdr[2]) << 8) |
                              (static_cast<std::uint32_t>(hdr[3]) << 16) |
                              (static_cast<std::uint32_t>(hdr[4]) << 24);
    if (len > kMaxFrame) {
      MADO_ERROR("socket rx: oversized frame " << len << " bytes, closing");
      mark_broken();
      return;
    }
    Bytes payload(len);
    if (len > 0 && !read_all(payload.data(), len)) {
      if (!stop_.load(std::memory_order_acquire)) mark_broken();
      return;
    }
    deliver(EvPacket{track, std::move(payload)});
  }
}

}  // namespace mado::drv
