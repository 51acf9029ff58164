#ifndef XMLAC_TESTING_DIFF_H_
#define XMLAC_TESTING_DIFF_H_

// Differential checks: the fast implementations vs the brute-force oracle.
//
// Every check takes a generated Instance and returns "" when it passes, or
// a human-readable mismatch description when the implementations disagree
// with the oracle (or with each other).  The return convention matches
// testing/shrink.h's CheckFn, so a failing check plugs straight into the
// shrinker.
//
// Robustness rules, so the shrinker never latches onto degenerate
// instances: kUnsupported bailouts (relational translator branch budget,
// containment oracle limits) and setup errors count as "passes"; only a
// completed comparison can fail.

#include <memory>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "testing/shrink.h"

namespace xmlac::testing {

enum class BackendKind { kNative, kRow, kColumn };

const char* BackendName(BackendKind kind);
// `structural_accel` selects the accelerated storage/evaluation layout: the
// native backend's structural-join engine over interval labels, and the
// relational backends' (st, en) interval columns.  False pins the reference
// configuration (naive evaluator, schema-chain SQL translation).
std::unique_ptr<engine::Backend> MakeBackend(BackendKind kind,
                                             bool structural_accel = true);

// A deliberate semantics bug applied to the ENGINE side only (the oracle
// always evaluates the true policy).  kFlipCr/kFlipDs corrupt the engine's
// policy; kStaleCache leaves the policy alone and instead disables the
// trigger-driven rule-cache evictions inside the controllers (see
// ControllerOptions::inject_stale_cache), so stale bitmaps survive updates.
// kRecycleSkipDelete is the serving layer's: snapshot builds catch recycled
// documents up without their kDelete replays
// (ServerOptions::inject_recycle_skip_delete; serve fuzzing only).
// Used by harness self-tests and `xmlac_fuzz --inject-bug` to prove the
// pipeline catches and minimizes real semantic drift.
enum class InjectedBug {
  kNone,
  kFlipCr,
  kFlipDs,
  kStaleCache,
  kRecycleSkipDelete
};

policy::Policy ApplyBug(policy::Policy policy, InjectedBug bug);

struct DiffOptions {
  std::vector<BackendKind> backends = {BackendKind::kNative, BackendKind::kRow,
                                       BackendKind::kColumn};
  // Random probe queries per instance for the request-outcome comparison.
  int probe_queries = 12;
  // Random path pairs per instance for the containment comparison.
  int containment_pairs = 16;
  InjectedBug bug = InjectedBug::kNone;
  // Run the controllers with the rule node-set cache enabled.  CheckAll
  // additionally repeats the annotation/re-annotation checks with the cache
  // forced off, so one `--mode all` fuzz sweep covers both configurations.
  bool rule_cache = true;
  // Evaluate through the structural acceleration layer (see MakeBackend).
  // CheckAll repeats the annotation/re-annotation checks with it forced
  // off, so every sweep diffs the structural engine against both the naive
  // configuration and the oracle.
  bool structural_accel = true;
  // Run the controllers with shard-parallel execution (common/shard.h):
  // interval-range fan-out in the structural evaluator, word-range bitmap
  // combination, sharded relational scans.  CheckAll repeats the
  // annotation/re-annotation checks with sharding forced off, so every
  // sweep diffs the sharded engine against both the serial configuration
  // and the oracle (failure strings carry /shard vs /serial).
  bool shard_parallel = true;
};

// Annotation: Table 2 signs node by node, the four Fig. 5 annotation sets,
// and all-or-nothing request outcomes — oracle vs AccessController on each
// configured backend, with the policy optimizer both off and on.  When
// `options.rule_cache` is set this also replays annotation through a
// fleet-shared RuleScopeCache (one cold subject warming it, one warm
// subject served from its bitmaps) and diffs both against the oracle.
std::string CheckAnnotation(const Instance& instance,
                            const DiffOptions& options = {});

// Re-annotation after updates: Trigger-based partial re-annotation vs
// re-annotation-from-scratch vs the coalesced batch path, id-level on each
// backend kind; sign-level vs the oracle (which *defines* re-annotation as
// full re-annotation of the post-update document).
std::string CheckReannotation(const Instance& instance,
                              const DiffOptions& options = {});

// Optimizer: redundant-rule elimination must not change any sign.
std::string CheckOptimizer(const Instance& instance);

// Containment: the homomorphism test is sound — whenever it claims p ⊑ q,
// canonical-model enumeration must agree.
std::string CheckContainment(const Instance& instance,
                             const DiffOptions& options = {});

// All of the above, concatenated.
std::string CheckAll(const Instance& instance, const DiffOptions& options = {});

// CheckFn adapters for the shrinker / fuzz driver.
CheckFn AnnotationCheck(DiffOptions options = {});
CheckFn ReannotationCheck(DiffOptions options = {});
CheckFn AllChecks(DiffOptions options = {});

// One seeded property-test round: generate the instance for `seed`, run
// `check`, and on failure shrink it and return a report carrying the seed,
// the original failure, the minimized failure and the minimized instance —
// everything a CI log needs to reproduce.  Returns "" on pass, so suites
// assert `EXPECT_EQ(RunSeededCheck(...), "")`.  When `repro_dir` is
// non-empty the minimized instance is also dumped under
// `<repro_dir>/seed-<seed>` for `xmlac_fuzz --replay`.
std::string RunSeededCheck(uint64_t seed, InstanceOptions options,
                           const CheckFn& check,
                           const std::string& repro_dir = "");

}  // namespace xmlac::testing

#endif  // XMLAC_TESTING_DIFF_H_
