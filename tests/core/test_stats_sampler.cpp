// StatsSampler: periodic counter snapshots driven by the engine's TimerHost.
// Under virtual time the series is fully deterministic (ticks land at exact
// multiples of the interval); under the socket world's wall-clock timers the
// same code samples from the real timer thread.
#include "core/stats_sampler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

constexpr Nanos kTick = 5 * kNanosPerMicro;

TEST(StatsSampler, VirtualTimeSeriesIsDeterministic) {
  SimWorld w(2);
  w.connect(0, 1, drv::test_profile());
  StatsSampler sampler(w.node(0), kTick);
  sampler.start();

  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  constexpr int kMsgs = 20;
  for (int i = 0; i < kMsgs; ++i) send_bytes(a, pattern(64));
  for (int i = 0; i < kMsgs; ++i) recv_bytes(b, 64);
  w.node(0).flush();
  // Let several more ticks elapse in virtual time (the self-re-arming tick
  // keeps the fabric non-idle, so run_until always makes progress).
  const Nanos target = w.now() + 4 * kTick;
  w.run_until([&] { return w.now() >= target; });
  sampler.stop();

  const auto samples = sampler.samples();
  ASSERT_GE(samples.size(), 4u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Ticks land at exact multiples of the interval — that is what makes
    // the series reproducible across runs.
    EXPECT_EQ(samples[i].time, (i + 1) * kTick);
  }
  // The last snapshot has seen the whole workload.
  const auto it = samples.back().counters.find("tx.msgs");
  ASSERT_NE(it, samples.back().counters.end());
  EXPECT_EQ(it->second, static_cast<std::uint64_t>(kMsgs));
}

TEST(StatsSampler, StopHaltsSampling) {
  SimWorld w(2);
  w.connect(0, 1, drv::test_profile());
  StatsSampler sampler(w.node(0), kTick);
  sampler.start();
  const Nanos t1 = w.now() + 3 * kTick;
  w.run_until([&] { return w.now() >= t1; });
  sampler.stop();
  const std::size_t n = sampler.samples().size();
  EXPECT_GE(n, 2u);
  // A dead sampler's closures no-op; nothing further is recorded. Post an
  // unrelated event so the fabric has something to run toward.
  const Nanos t2 = w.now() + 3 * kTick;
  w.fabric().post_at(t2, [] {});
  w.run_until([&] { return w.now() >= t2; });
  EXPECT_EQ(sampler.samples().size(), n);
}

TEST(StatsSampler, CsvHasHeaderAndDeltaRows) {
  SimWorld w(2);
  w.connect(0, 1, drv::test_profile());
  StatsSampler sampler(w.node(0), kTick);
  sampler.start();
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  for (int i = 0; i < 10; ++i) send_bytes(a, pattern(64));
  for (int i = 0; i < 10; ++i) recv_bytes(b, 64);
  w.node(0).flush();
  const Nanos target = w.now() + 2 * kTick;
  w.run_until([&] { return w.now() >= target; });
  sampler.stop();

  const std::string csv = sampler.to_csv();
  ASSERT_EQ(csv.rfind("time_ns,", 0), 0u) << csv;
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, sampler.samples().size() + 1);  // header + one per tick
  EXPECT_NE(csv.find(",tx.msgs"), std::string::npos);

  // Deltas must re-sum to the cumulative total (10 messages overall, spread
  // across however many ticks the run took).
  std::uint64_t sum = 0, prev = 0;
  for (const auto& s : sampler.samples()) {
    const auto it = s.counters.find("tx.msgs");
    const std::uint64_t cur = it == s.counters.end() ? 0 : it->second;
    sum += cur - prev;
    prev = cur;
  }
  EXPECT_EQ(sum, 10u);
}

TEST(StatsSampler, JsonSeriesShape) {
  SimWorld w(2);
  w.connect(0, 1, drv::test_profile());
  StatsSampler sampler(w.node(0), kTick);
  sampler.start();
  const Nanos target = w.now() + 2 * kTick;
  w.run_until([&] { return w.now() >= target; });
  sampler.stop();
  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("\"interval_ns\":5000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":["), std::string::npos);
  EXPECT_NE(json.find("\"t\":5000"), std::string::npos);
}

// A sampler started from an application thread schedules its first tick
// while the progress threads are parked with no deadline: the timer host's
// deadline listener must wake one, or no tick ever runs.
// SamplesOverWallClockTimers cannot catch that: its traffic wakes them.
TEST(StatsSampler, TicksOnIdleThreadedEngine) {
  ShmWorld w(EngineConfig{});
  // Let the progress threads run dry and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  StatsSampler sampler(w.node(0), kNanosPerMilli);
  sampler.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (sampler.samples().size() < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sampler.stop();
  EXPECT_GE(sampler.samples().size(), 3u);
}

TEST(StatsSampler, SamplesOverWallClockTimers) {
  // Socket world: RealTimerHost ticks fire from the engines' progress
  // machinery on real threads. Just prove the plumbing works — counts and
  // spacing are inherently nondeterministic here.
  SocketWorld w({}, drv::mx_myrinet_profile());
  StatsSampler sampler(w.node(0), kNanosPerMilli);
  sampler.start();
  Channel a = w.node(0).open_channel(1, 7);
  Channel b = w.node(1).open_channel(0, 7);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  std::size_t seen = 0;
  while (seen < 3 && std::chrono::steady_clock::now() < deadline) {
    send_bytes(a, pattern(64));
    recv_bytes(b, 64);
    seen = sampler.samples().size();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  ASSERT_GE(seen, 3u);
  const auto samples = sampler.samples();
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GT(samples[i].time, samples[i - 1].time);
}

}  // namespace
}  // namespace mado::core
