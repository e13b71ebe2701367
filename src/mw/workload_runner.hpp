// Replays a workload Schedule into a two-node SimWorld and reports the
// outcome metrics benchmarks care about (completion time, transactions,
// per-message latency). Shared by bench_paper (A4) and tests.
#pragma once

#include "core/world.hpp"
#include "mw/workload.hpp"

namespace mado::mw {

struct ReplayResult {
  Nanos completion = 0;        ///< virtual time when everything drained
  std::uint64_t packets = 0;   ///< sender network transactions
  std::uint64_t frags = 0;
  double mean_latency_us = 0;  ///< submit → receive-complete, averaged
  double frags_per_packet() const {
    return packets ? static_cast<double>(frags) / static_cast<double>(packets)
                   : 0;
  }
};

/// Drives `schedule` from node 0 to node 1 of a fresh SimWorld built with
/// `cfg` and one rail of `caps`. Single-fragment messages; receivers drain
/// per flow in order.
ReplayResult replay(const core::EngineConfig& cfg,
                    const drv::Capabilities& caps, const Schedule& schedule);

}  // namespace mado::mw
