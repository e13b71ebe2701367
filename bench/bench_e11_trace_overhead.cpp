// E11 — what observability costs: real CPU time per message for the same
// workload with (a) no tracer ever attached, (b) a tracer attached then
// detached, and (c) a tracer attached and recording. Like E9 these are
// measured wall time — virtual-time results are identical by construction
// (tracing never changes a decision), so simulated time cannot see the
// overhead at all.
//
// Expected shape: Detached == Baseline (the hot path's only residue is one
// relaxed-ish atomic load per trace site), and Attached within a few
// percent of Baseline (one ring write per traced event; the ring never
// allocates after construction).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/trace.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"

namespace {

using namespace mado;
using namespace mado::core;

constexpr std::size_t kFlows = 8;
constexpr int kMsgsPerFlow = 25;
constexpr std::size_t kMsgSize = 64;

enum class TracerMode { Never, AttachedThenDetached, Attached };

void pump_workload(benchmark::State& state, TracerMode mode) {
  EngineConfig cfg;
  cfg.strategy = "aggreg";
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());

  Tracer tracer;
  if (mode != TracerMode::Never) {
    world.node(0).set_tracer(&tracer);
    world.node(1).set_tracer(&tracer);
    if (mode == TracerMode::AttachedThenDetached) {
      world.node(0).set_tracer(nullptr);
      world.node(1).set_tracer(nullptr);
    }
  }

  std::vector<Channel> tx, rx;
  for (ChannelId f = 0; f < kFlows; ++f) {
    tx.push_back(world.node(0).open_channel(1, f));
    rx.push_back(world.node(1).open_channel(0, f));
  }
  Bytes data(kMsgSize, Byte{1}), out(kMsgSize);

  std::uint64_t msgs = 0;
  for (auto _ : state) {
    for (int i = 0; i < kMsgsPerFlow; ++i)
      for (auto& ch : tx) {
        Message m;
        m.pack(data.data(), data.size(), SendMode::Safe);
        ch.post(std::move(m));
      }
    for (int i = 0; i < kMsgsPerFlow; ++i)
      for (auto& ch : rx) {
        IncomingMessage im = ch.begin_recv();
        im.unpack(out.data(), out.size(), RecvMode::Express);
        im.finish();
      }
    world.node(0).flush();
    msgs += kFlows * kMsgsPerFlow;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  // Proof obligations: a detached tracer must record NOTHING (zero residual
  // work beyond the per-site atomic load); an attached one must be busy.
  state.counters["traced_records"] = static_cast<double>(
      mode == TracerMode::Attached ? tracer.size() + tracer.dropped() : 0);
  if (mode == TracerMode::AttachedThenDetached &&
      (tracer.size() != 0 || tracer.dropped() != 0)) {
    std::fprintf(stderr, "FAIL: detached tracer recorded events\n");
    std::exit(1);
  }
}

void BM_E11_Baseline(benchmark::State& state) {
  pump_workload(state, TracerMode::Never);
}
void BM_E11_Detached(benchmark::State& state) {
  pump_workload(state, TracerMode::AttachedThenDetached);
}
void BM_E11_Attached(benchmark::State& state) {
  pump_workload(state, TracerMode::Attached);
}

}  // namespace

BENCHMARK(BM_E11_Baseline);
BENCHMARK(BM_E11_Detached);
BENCHMARK(BM_E11_Attached);

BENCHMARK_MAIN();
