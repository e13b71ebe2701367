#include "core/world.hpp"

#include <cstdlib>

#include "drivers/shm_driver.hpp"
#include "drivers/sim_driver.hpp"
#include "drivers/socket_driver.hpp"
#include "util/assert.hpp"

namespace mado::core {

namespace {
/// MADO_PROGRESS_THREADS=N re-runs the whole threaded-world test matrix
/// (socket/shm suites, lossy, stripe) under N progress threads without
/// recompiling — CI's TSan job uses 4. Applies only to the worlds that
/// start progress threads; SimWorld is cooperative and has none.
EngineConfig threaded_config(EngineConfig cfg) {
  if (const char* env = std::getenv("MADO_PROGRESS_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) cfg.progress_threads = static_cast<std::size_t>(n);
  }
  return cfg;
}
}  // namespace

SimWorld::SimWorld(std::size_t nodes, const EngineConfig& cfg)
    : SimWorld(std::vector<EngineConfig>(nodes, cfg)) {}

SimWorld::SimWorld(const std::vector<EngineConfig>& configs)
    : timers_(fabric_) {
  MADO_CHECK_MSG(!configs.empty(), "world needs at least one node");
  engines_.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    engines_.push_back(std::make_unique<Engine>(static_cast<NodeId>(i),
                                                configs[i], timers_));
    engines_.back()->set_external_progress([this] { return fabric_.step(); });
  }
}

RailId SimWorld::connect(NodeId a, NodeId b, const drv::Capabilities& caps) {
  return connect(a, b, caps, caps);
}

RailId SimWorld::connect(NodeId a, NodeId b, const drv::Capabilities& caps_a,
                         const drv::Capabilities& caps_b) {
  MADO_CHECK(a != b && a < engines_.size() && b < engines_.size());
  auto pair = drv::SimEndpoint::make_pair(fabric_, caps_a, caps_b);
  drv::SimEndpoint* side_a = pair.a.get();
  drv::SimEndpoint* side_b = pair.b.get();
  const RailId ra = engines_[a]->add_rail(b, std::move(pair.a));
  const RailId rb = engines_[b]->add_rail(a, std::move(pair.b));
  MADO_CHECK_MSG(ra == rb, "asymmetric rail counts between nodes");
  endpoints_[{a, b, ra}] = side_a;
  endpoints_[{b, a, rb}] = side_b;
  return ra;
}

RailId SimWorld::connect(NodeId a, NodeId b, const drv::Capabilities& caps,
                         const drv::FaultPlan& plan_ab,
                         const drv::FaultPlan& plan_ba) {
  const RailId rail = connect(a, b, caps, caps);
  endpoint(a, b, rail).set_fault_plan(plan_ab);
  endpoint(b, a, rail).set_fault_plan(plan_ba);
  return rail;
}

drv::SimEndpoint& SimWorld::endpoint(NodeId a, NodeId b, RailId rail) {
  auto it = endpoints_.find({a, b, rail});
  MADO_CHECK_MSG(it != endpoints_.end(),
                 "no sim rail " << int(rail) << " between " << a << " and "
                                << b);
  return *it->second;
}

ThreadedWorld::ThreadedWorld(const EngineConfig& cfg, std::size_t rails,
                             const std::function<RailPair()>& make_rail) {
  const EngineConfig tcfg = threaded_config(cfg);
  for (NodeId i = 0; i < 2; ++i) {
    timers_.push_back(std::make_unique<RealTimerHost>());
    engines_.push_back(std::make_unique<Engine>(i, tcfg, *timers_.back()));
  }
  for (std::size_t r = 0; r < rails; ++r) {
    RailPair pair = make_rail();
    rails_.push_back({pair[0].get(), pair[1].get()});
    engines_[0]->add_rail(1, std::move(pair[0]));
    engines_[1]->add_rail(0, std::move(pair[1]));
  }
  engines_[0]->start_progress_thread();
  engines_[1]->start_progress_thread();
}

ThreadedWorld::~ThreadedWorld() {
  engines_[0]->stop_progress_thread();
  engines_[1]->stop_progress_thread();
}

namespace {
template <class PairResult>
ThreadedWorld::RailPair rail_pair(PairResult p) {
  return {std::move(p.a), std::move(p.b)};
}

// UDP rails are lossy: the engine's reliability layer IS the loss recovery,
// so it is not optional there (add_rail would refuse).
EngineConfig reliable(EngineConfig cfg) {
  cfg.reliability = true;
  return cfg;
}
}  // namespace

SocketWorld::SocketWorld(const EngineConfig& cfg,
                         const drv::Capabilities& caps, std::size_t rails)
    : ThreadedWorld(cfg, rails, [&caps] {
        return rail_pair(drv::SocketEndpoint::make_pair(caps));
      }) {}

ShmWorld::ShmWorld(const EngineConfig& cfg, std::size_t rails)
    : ThreadedWorld(cfg, rails, [] {
        return rail_pair(drv::ShmEndpoint::make_pair());
      }) {}

UdpWorld::UdpWorld(const EngineConfig& cfg, std::size_t rails)
    : ThreadedWorld(reliable(cfg), rails, [] {
        return rail_pair(
            drv::UdpEndpoint::make_pair(drv::udp_loopback_profile()));
      }) {}

}  // namespace mado::core
