// bench_ledger: wall-clock benchmark of the engine over shm and UDP.
//
//   bench_ledger --workload W [--seed S] [--seconds N] [--trace PATH]
//                [--smoke] [--self-test]
//
// Prints one JSON line per metric, then a summary line; exits non-zero if
// any delivery check failed. See README.md for workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger --workload W [--seed S] [--seconds N] "
               "[--trace PATH] [--smoke] [--self-test]\nworkloads:");
  for (const auto& w : ledger::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace_path = argv[++i];
    } else if (a == "--smoke") {
      o.seconds = 1;
      o.warmup = 0.1;
      o.segments = 2;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) return usage();

  ledger::Report rep;
  try {
    rep = ledger::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: %s\n", e.what());
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  for (const auto& m : rep.metrics)
    std::printf(
        "{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%.17g,"
        "\"unit\":\"%s\",\"samples\":%llu,\"seed\":%llu,\"hw_threads\":%u}\n",
        o.workload.c_str(), m.name.c_str(), m.value, m.unit.c_str(),
        static_cast<unsigned long long>(m.samples),
        static_cast<unsigned long long>(o.seed), hw);
  std::printf(
      "{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu}\n",
      o.workload.c_str(), rep.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed));
  for (const auto& e : rep.errors)
    std::fprintf(stderr, "bench_ledger: check failed: %s\n", e.c_str());
  return rep.failed == 0 ? 0 : 1;
}
