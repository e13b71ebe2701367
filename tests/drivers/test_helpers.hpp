// Shared test handler that records driver callbacks.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "drivers/driver.hpp"

namespace mado::drv::testing {

struct RecordingHandler final : EndpointHandler {
  struct Sent {
    TrackId track;
    std::uint64_t token;
  };
  struct Got {
    TrackId track;
    Bytes payload;
  };
  std::vector<Sent> completions;
  std::vector<Got> packets;
  std::vector<Sent> failures;
  int link_downs = 0;
  /// failures.size() at the moment on_link_down fired (contract: every
  /// doomed send is failed BEFORE link-down is reported).
  std::size_t failures_at_link_down = 0;
  /// on_ready() calls (clause 5); rung from driver IO threads.
  std::atomic<int> rings{0};

  void on_send_complete(TrackId track, std::uint64_t token) override {
    completions.push_back({track, token});
  }
  void on_packet(TrackId track, Bytes payload) override {
    packets.push_back({track, std::move(payload)});
  }
  void on_send_failed(TrackId track, std::uint64_t token) override {
    failures.push_back({track, token});
  }
  void on_link_down() override {
    ++link_downs;
    failures_at_link_down = failures.size();
  }
  void on_ready() override { rings.fetch_add(1, std::memory_order_relaxed); }
};

inline Bytes make_payload(std::size_t n, std::uint8_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

}  // namespace mado::drv::testing
