#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: a timed run against the public API, a
// correctness gate, and (traced mode) a serial replay of the same seeded
// ops that times each layer's public calls from outside.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "schedule.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for WAL files (inside the benchmark's build tree).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Why `correct` is false, one line each.
  std::vector<std::string> problems;
  // Run metadata (printed before the result line).
  std::vector<std::pair<std::string, std::string>> meta;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
