// Ready-made multi-node worlds for tests, benchmarks and examples.
//
// SimWorld: N engines sharing one discrete-event fabric; fully
// deterministic, driven cooperatively (every blocking engine call pumps the
// fabric through the external-progress hook).
//
// SocketWorld / ShmWorld / UdpWorld: two engines with progress threads
// over real socketpair, shared-memory or UDP rails; used to validate the
// engine against genuine asynchrony.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/capabilities.hpp"
#include "drivers/sim_driver.hpp"
#include "drivers/udp_driver.hpp"
#include "sim/fabric.hpp"

namespace mado::core {

class SimWorld {
 public:
  /// All nodes share `cfg`.
  explicit SimWorld(std::size_t nodes, const EngineConfig& cfg = {});
  /// Per-node configs (nodes = configs.size()).
  explicit SimWorld(const std::vector<EngineConfig>& configs);

  /// Add one rail between nodes a and b (callable repeatedly for multirail).
  /// Returns the rail index (identical on both sides by construction).
  RailId connect(NodeId a, NodeId b, const drv::Capabilities& caps);
  RailId connect(NodeId a, NodeId b, const drv::Capabilities& caps_a,
                 const drv::Capabilities& caps_b);
  /// Lossy variant: `plan_ab` faults packets a→b, `plan_ba` faults b→a.
  RailId connect(NodeId a, NodeId b, const drv::Capabilities& caps,
                 const drv::FaultPlan& plan_ab, const drv::FaultPlan& plan_ba);

  /// The a-side simulated endpoint of rail `rail` between a and b (for
  /// fault plans / fault stats in tests).
  drv::SimEndpoint& endpoint(NodeId a, NodeId b, RailId rail);

  /// Hard-kill rail `rail` between a and b (both directions).
  void fail_link(NodeId a, NodeId b, RailId rail) {
    endpoint(a, b, rail).fail_link();
  }

  Engine& node(NodeId i) { return *engines_.at(i); }
  std::size_t size() const { return engines_.size(); }
  sim::Fabric& fabric() { return fabric_; }
  Nanos now() const { return fabric_.now(); }

  /// Drain all pending events (bounded); returns events executed.
  std::size_t run(std::size_t max_events = 100'000'000) {
    return fabric_.run_until_idle(max_events);
  }
  /// Run until `pred` holds or the fabric drains; returns pred().
  bool run_until(const std::function<bool()>& pred) {
    return fabric_.run_while_pending(pred);
  }

 private:
  sim::Fabric fabric_;
  SimTimerHost timers_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// (owner node, peer node, rail) → the owner-side endpoint. Raw pointers
  /// stay valid: the engines own the endpoints and outlive this map.
  std::map<std::tuple<NodeId, NodeId, RailId>, drv::SimEndpoint*> endpoints_;
};

/// Two engines (ids 0 and 1) on wall-clock timers, joined by `rails` rails
/// that `make_rail` creates (endpoint [0] for node 0, [1] for node 1).
/// Progress threads run from construction to destruction. The shared body
/// of the socket, shm and UDP worlds below.
class ThreadedWorld {
 public:
  using RailPair = std::array<std::unique_ptr<drv::DriverEndpoint>, 2>;
  ThreadedWorld(const ThreadedWorld&) = delete;
  ThreadedWorld& operator=(const ThreadedWorld&) = delete;

  Engine& node(NodeId i) { return *engines_.at(i); }

 protected:
  ThreadedWorld(const EngineConfig& cfg, std::size_t rails,
                const std::function<RailPair()>& make_rail);
  ~ThreadedWorld();

  /// The `node`-side endpoint of rail `rail` (0-based, in creation order).
  drv::DriverEndpoint& rail_endpoint(NodeId node, std::size_t rail) {
    return *rails_.at(rail).at(node);
  }

 private:
  std::vector<std::unique_ptr<RealTimerHost>> timers_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Non-owning: the engines own the endpoints.
  std::vector<std::array<drv::DriverEndpoint*, 2>> rails_;
};

/// Two engines over real socketpair rails carrying `caps`; used to validate
/// the engine against genuine asynchrony.
class SocketWorld : public ThreadedWorld {
 public:
  explicit SocketWorld(const EngineConfig& cfg,
                       const drv::Capabilities& caps, std::size_t rails = 1);
};

/// Two engines on one node talking through the shared-memory driver (the
/// intra-node transport). Use for thread-to-thread communication within one
/// process.
class ShmWorld : public ThreadedWorld {
 public:
  explicit ShmWorld(const EngineConfig& cfg, std::size_t rails = 1);
};

/// Two engines joined by real UDP loopback rails (lossy datagrams, each
/// delivered as it arrives; the engine's go-back-N layer orders them and
/// recovers loss — reliability is forced on because Engine::add_rail
/// rejects a lossy rail without it). Exposes the raw endpoints so tests can
/// inject receive-side loss or link failures.
class UdpWorld : public ThreadedWorld {
 public:
  explicit UdpWorld(const EngineConfig& cfg, std::size_t rails = 1);

  /// The `node`-side endpoint of rail `rail` (0-based, in creation order).
  drv::UdpEndpoint& endpoint(NodeId node, std::size_t rail = 0) {
    return static_cast<drv::UdpEndpoint&>(rail_endpoint(node, rail));
  }
};

}  // namespace mado::core
