#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

// Seeded inputs and op schedules for the benchmark's workloads.
//
// Everything a run does is fixed by (workload, seed, seconds) before any
// timing starts: op counts come from the schedule, never from "as many as
// fit in the run".  The seed drives the document's content, the inserted
// fragments and the read order.  The query and policy generators run with
// fixed seeds over a fixed-seed reference document, so every seed measures
// the same queries and rules and a seed change does not swap the cost mix.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/access_controller.h"

namespace perfbench {

// Static shape of a workload (see README.md for why each was chosen).
// Serve workloads run open loops: one read sender at `read_rate` reads/s
// and one committer at `commit_rate` commits/s that waits for each commit
// before sending the next, so every server batch holds one op.  The
// relational workload is one closed loop of `reads_per_commit` reads per
// commit; its op count is the run's seconds divided by `cycle_ms`, the
// measured mean wall time of one such cycle (README.md, Steadiness).
struct WorkloadSpec {
  std::string name;
  double xmark_factor = 0.1;
  std::vector<double> coverage;  // one subject per target
  size_t queries = 32;
  uint64_t query_seed = 23;  // the query generator's seed, fixed per workload
  double read_rate = 0;
  double commit_rate = 0;
  size_t reads_per_commit = 0;
  double cycle_ms = 0;
  bool relational = false;
  // Setup repetitions; the median is reported.  Sized so the repeats take
  // a few seconds in all.
  size_t setup_repeats = 5;
};

// Known workloads: serve_commit, paper_relational.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

// Generated inputs, as text: what the program is handed at setup.
struct Inputs {
  std::string dtd_text;
  std::string xml_text;
  std::vector<std::string> subject_names;
  std::vector<std::string> policy_texts;
  std::vector<std::string> queries;
  // The document text without the pre-seeded fragments, and each fragment's
  // text by index, so a reference document can be rebuilt for any window of
  // live fragments.
  std::string base_xml_text;
  std::vector<std::string> fragments;
  size_t fragment_window = 0;
};

// Builds the DTD, XMark document (plus `window` pre-seeded fragments),
// coverage policies and queries for `spec` and `seed`.
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      size_t commits);

// One read: indexes into Inputs::subject_names / Inputs::queries.
struct ReadOp {
  uint32_t subject = 0;
  uint32_t query = 0;
};

// `cycles` passes over every (subject, query) pair, each pass in its own
// seeded shuffled order, so every pair runs equally often and is spread
// evenly over the run.
std::vector<ReadOp> ReadSchedule(size_t subjects, size_t queries,
                                 size_t cycles, uint64_t seed);

// Commit i: even i inserts fragment window + i/2 under /site/people; odd i
// deletes fragment i/2, which was inserted (or pre-seeded) `window`
// inserts earlier (window = inputs.fragment_window).  The document keeps `window` fragments live, so its
// size stays steady and deletes never drain it.
std::vector<xmlac::engine::BatchOp> CommitSchedule(const Inputs& inputs,
                                                   size_t commits);

// Fragment k's XML text; its node count is the same for every k.
std::string FragmentXml(size_t k, uint64_t seed);

// Op counts for a run of `seconds`, never below what the reported
// exact-rank percentiles need (>= kMinBeyond samples beyond p99 for reads
// and beyond p50 for commits).
struct RunSize {
  size_t read_cycles = 0;
  size_t reads = 0;
  size_t commits = 0;
};
RunSize SizeRun(const WorkloadSpec& spec, double seconds);

// 64-bit FNV-1a, for state digests.
uint64_t Fnv1a(const std::string& data, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
