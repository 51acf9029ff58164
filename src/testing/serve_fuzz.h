#ifndef XMLAC_TESTING_SERVE_FUZZ_H_
#define XMLAC_TESTING_SERVE_FUZZ_H_

// Stateful fuzzing of the concurrent serving layer.
//
// One run generates an instance (schema, document, per-subject policies,
// update stream), starts a serve::Server, races reader threads against one
// updater over a seeded random schedule, and then replays every
// epoch-stamped answer against the brute-force OracleModel: updates are
// re-applied serially batch by batch in publication-epoch order, and each
// recorded read must match the oracle's answer for the epoch it was served
// at — granted bit, selected count and accessible count.  This checks the
// serving layer's linearizability claim (every answer is consistent with
// SOME epoch, namely the one it is stamped with) continuously instead of
// in a single hand-written stress test.

#include <cstdint>
#include <string>

#include "testing/diff.h"
#include "testing/generators.h"

namespace xmlac::testing {

struct ServeFuzzOptions {
  uint64_t seed = 1;
  // Schedule shape.
  int readers = 3;
  int reads_per_reader = 50;
  int update_ops = 10;
  int subjects = 3;
  int query_pool = 16;
  // Instance family (document/schema/policies are drawn from this).
  InstanceOptions instance;
  // serve::ServerOptions knobs that matter for the schedule.
  size_t workers = 3;
  size_t max_batch = 4;
  // Torn-epoch reads: every other read captures the current snapshot, then
  // deliberately stalls until the writer has published at least one NEWER
  // epoch (or the update stream is exhausted) before traversing the captured
  // one — forcing version publication between a reader's pin and its
  // traversal.  The answer is recorded at the captured epoch, so the oracle
  // replay asserts the immutability contract directly: publishing a new
  // index version must never perturb a version a reader already holds.
  bool torn_epochs = false;
  // kRecycleSkipDelete turns on ServerOptions::inject_recycle_skip_delete;
  // every other value leaves the server alone.
  InjectedBug bug = InjectedBug::kNone;
  // When non-empty, the server's flight recorder (trace.json + health.txt)
  // is dumped here on the FIRST failure — the span-level story of the run
  // that produced the mismatch, saved next to the repro files.
  std::string flight_recorder_dir;
};

struct ServeFuzzResult {
  bool ok = true;
  // First mismatch (or infrastructure error), human-readable.  Empty when ok.
  std::string failure;
  size_t reads_checked = 0;
  size_t updates_applied = 0;
  uint64_t final_epoch = 0;
};

// Deterministic in `options.seed` for the generated schedule; thread
// interleaving varies, but the replay check holds for every interleaving.
ServeFuzzResult RunServeFuzz(const ServeFuzzOptions& options);

// --- Crash-point recovery fuzzing ------------------------------------------
//
// One run generates an instance, serves a serial update stream through a
// durable serve::Server whose WAL "crashes" after a randomized number of
// records (simulating a SIGKILL between WAL append and apply — every later
// append silently vanishes, optionally leaving a torn frame prefix), then
// recovers the data directory into a fresh engine and checks:
//
//  * the recovered state equals a reference engine that applied exactly
//    the durable prefix of the stream (engine::DiffFleetState): the
//    document's serialization and version, and each subject's default
//    sign and marked ids;
//  * recovered answers match the brute-force oracle at the durable prefix
//    for a pool of probe queries (granted / selected / accessible).
//
// Checkpoint cadence, torn-tail length, and segment size are drawn from
// the seed, so the same harness covers replay-from-genesis, replay-from-
// checkpoint, segment rolling, and torn-tail truncation.
struct RecoveryFuzzOptions {
  uint64_t seed = 1;
  int update_ops = 8;
  int subjects = 2;
  int query_probes = 12;
  InstanceOptions instance;
  // Number of WAL records (the genesis install counts as one) that become
  // durable before the simulated kill, in [0, update_ops + 1].
  // -1 = drawn from the seed.
  int crash_point = -1;
  // Data directory for the run.  Empty = a unique directory under the
  // system temp dir, removed on success and kept (named in `failure`) on
  // mismatch.
  std::string data_dir;
};

struct RecoveryFuzzResult {
  bool ok = true;
  std::string failure;  // empty when ok
  int crash_point = 0;
  size_t durable_batches = 0;   // committed epochs the WAL retained
  size_t replayed_batches = 0;  // batches recovery replayed from the tail
  bool recovered = false;       // false when the crash predates genesis
  size_t probes_checked = 0;
};

RecoveryFuzzResult RunRecoveryFuzz(const RecoveryFuzzOptions& options);

}  // namespace xmlac::testing

#endif  // XMLAC_TESTING_SERVE_FUZZ_H_
