// E9 — the optimizer's own cost: real CPU time per packet decision for each
// strategy in the database, on a standing backlog of 64 fragments across 16
// flows. This is the engine-side overhead the paper's future work #2 wants
// bounded; unlike E1–E8 these numbers are measured wall time, not
// simulated time.
//
// This binary also instruments the GLOBAL allocator: every decision loop
// reports `allocs_per_decision`, and the binary exits 1 if a decision
// allocates at all in steady state (the zero-allocation contract of the
// optimizer hot path — fragments ride inline SmallVector scratch, the flow
// index is maintained incrementally, and counter bumps use transparent
// string_view lookup).
//
// Expected shape: fifo < aggreg ~ priority < nagle << aggreg_exhaustive,
// and the exhaustive strategy's cost scales with its evaluation budget.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/strategies.hpp"
#include "core/strategy.hpp"
#include "drivers/profiles.hpp"

// ---- counting global allocator ---------------------------------------------
// Counts every operator-new call so the benchmark can prove the decision
// loop is allocation-free. Deallocation is not counted (popping a deque
// block releases memory but allocates nothing).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacement operator new below allocates with std::malloc, so releasing
// with std::free in operator delete is correct; GCC's heuristic cannot see
// through the replacement and flags the pairing, so silence it locally.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace mado;
using namespace mado::core;

constexpr std::size_t kFlows = 16;
constexpr std::size_t kPerFlow = 4;

TxBacklog make_backlog(std::size_t flows, std::size_t per_flow,
                       std::uint64_t& order) {
  TxBacklog b;
  for (std::size_t f = 0; f < flows; ++f)
    for (std::size_t i = 0; i < per_flow; ++i) {
      TxFrag frag;
      frag.channel = static_cast<ChannelId>(f);
      frag.msg_seq = static_cast<MsgSeq>(i);
      frag.idx = 0;
      frag.nfrags_total = 1;
      frag.last = true;
      frag.cls = f % 2 ? TrafficClass::SmallEager : TrafficClass::Bulk;
      frag.owned.assign(i % 2 ? 700 : 48, Byte{0x5a});
      frag.len = frag.owned.size();
      frag.order = order++;
      b.push(std::move(frag));
    }
  return b;
}

void decide_all(benchmark::State& state, const std::string& name,
                std::size_t eval_budget) {
  auto strategy = StrategyRegistry::instance().create(name);
  const drv::Capabilities caps = drv::mx_myrinet_profile();
  StatsRegistry registry;
  EngineStats stats(registry);
  StrategyEnv env{caps, 0, /*window=*/16, eval_budget, 0, &stats};
  std::uint64_t order = 1;
  std::uint64_t decisions = 0;
  std::uint64_t decision_allocs = 0;

  // Warm-up fill+drain: lets one-time allocations (stats counter nodes,
  // scratch growth past inline capacity) happen outside the measurement.
  {
    TxBacklog backlog = make_backlog(kFlows, kPerFlow, order);
    while (!backlog.empty()) {
      auto d = strategy->next_packet(backlog, env);
      if (d.action != PacketDecision::Action::Send) break;
    }
  }

  for (auto _ : state) {
    state.PauseTiming();
    TxBacklog backlog = make_backlog(kFlows, kPerFlow, order);
    state.ResumeTiming();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    while (!backlog.empty()) {
      auto d = strategy->next_packet(backlog, env);
      benchmark::DoNotOptimize(d.frags.data());
      ++decisions;
      if (d.action != PacketDecision::Action::Send) break;
    }
    decision_allocs += g_allocs.load(std::memory_order_relaxed) - a0;
  }
  state.counters["decisions_per_fill"] =
      static_cast<double>(decisions) / static_cast<double>(state.iterations());
  state.counters["allocs_per_decision"] =
      decisions ? static_cast<double>(decision_allocs) /
                      static_cast<double>(decisions)
                : 0.0;
  const std::string label =
      name + (eval_budget ? "/K=" + std::to_string(eval_budget) : "");
  state.SetLabel(label);
  if (decision_allocs != 0) {
    std::fprintf(stderr, "FAIL: %s allocated %lu times in %lu decisions\n",
                 label.c_str(), decision_allocs, decisions);
    std::exit(1);
  }
}

void BM_E9_Fifo(benchmark::State& state) { decide_all(state, "fifo", 0); }
void BM_E9_Aggreg(benchmark::State& state) { decide_all(state, "aggreg", 0); }
void BM_E9_Priority(benchmark::State& state) {
  decide_all(state, "priority", 0);
}
void BM_E9_Nagle(benchmark::State& state) { decide_all(state, "nagle", 0); }
void BM_E9_Adaptive(benchmark::State& state) {
  decide_all(state, "adaptive", 0);
}
void BM_E9_Exhaustive(benchmark::State& state) {
  decide_all(state, "aggreg_exhaustive",
             static_cast<std::size_t>(state.range(0)));
}

}  // namespace

BENCHMARK(BM_E9_Fifo);
BENCHMARK(BM_E9_Aggreg);
BENCHMARK(BM_E9_Priority);
BENCHMARK(BM_E9_Nagle);
BENCHMARK(BM_E9_Adaptive);
BENCHMARK(BM_E9_Exhaustive)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->ArgNames({"eval_budget"});

BENCHMARK_MAIN();
