// Wall-clock ledger harness: builds an engine pair, drives one workload
// from the calling thread, checks every delivered byte and reports
// end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< measured time, split evenly over the segments
  double warmup = 0.1;  ///< unmeasured time at the start of each segment
  std::size_t segments = 40;  ///< engine pairs built, warmed and measured
  std::string trace_path;  ///< non-empty: every other segment is traced
  bool self_test = false;  ///< corrupt one delivered byte; must fail
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< messages posted
  std::uint64_t failed = 0;     ///< failed checks (see Ctx::fail)
  std::vector<std::string> errors;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws on API misuse or an engine wait timeout.
Report run(const Options& o);

}  // namespace ledger
