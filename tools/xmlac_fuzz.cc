// xmlac_fuzz — differential fuzzer for the access-control pipeline.
//
// Generates seeded random instances (schema, document, policy, update
// stream) and differentially checks the fast implementations against the
// brute-force oracle in src/testing/: Table 2 annotation on all three
// backends, all-or-nothing request outcomes, Trigger-based partial
// re-annotation vs re-annotation from scratch, the policy optimizer, and
// containment.  `--mode serve` instead drives serve::Server with a random
// concurrent read/update schedule and replays every epoch-stamped answer
// against the oracle model.
//
// On a mismatch the failing instance is greedily shrunk (drop rules, prune
// subtrees, drop updates, shorten paths) and the minimal repro is written
// as loadable files under --repro-dir; re-run it with --replay <dir>.
//
// Runs are deterministic in --seed: round r uses seed+r, and every
// generator in the pipeline is seeded from that.
//
//   xmlac_fuzz --rounds 100 --seed 7
//   xmlac_fuzz --mode serve --time-budget-s 60
//   xmlac_fuzz --mode serve --torn-epochs           # reader-held snapshots
//   xmlac_fuzz --mode serve --crash-after -1        # crash-recovery rounds
//   xmlac_fuzz --inject-bug flip-cr --rounds 50     # must fail + shrink
//   xmlac_fuzz --inject-bug stale-cache --rounds 50 # ditto, cache staleness
//   xmlac_fuzz --mode serve --torn-epochs --inject-bug recycle-skip-delete
//   xmlac_fuzz --replay repro/seed-13

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "testing/diff.h"
#include "testing/generators.h"
#include "testing/serve_fuzz.h"
#include "testing/shrink.h"

namespace {

namespace tst = xmlac::testing;

struct FuzzOptions {
  std::string mode = "all";  // annotate|reannotate|optimizer|containment|serve|all
  uint64_t seed = 1;
  int rounds = 50;
  double time_budget_s = 0;  // 0 = rounds only
  std::string backends = "native,row,column";
  // "", "flip-cr", "flip-ds", "stale-cache", "recycle-skip-delete"
  std::string inject_bug;
  std::string repro_dir = "repro";
  std::string replay;
  int shrink_attempts = 2000;
  // Instance family.
  int doc_nodes = 90;
  int rules = 6;
  int updates = 3;
  int element_types = 7;
  bool quiet = false;
  // Crash-recovery fuzzing (serve mode only): run each round as a durable
  // server killed after N WAL records, then recover and check equivalence
  // (testing/serve_fuzz.h).  -1 = randomized crash point per round;
  // INT_MIN = disabled.
  int crash_after = INT_MIN;
  // Torn-epoch reads (serve mode only): force index-version publication
  // between a reader's snapshot capture and its traversal
  // (ServeFuzzOptions::torn_epochs).
  bool torn_epochs = false;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --mode M              annotate|reannotate|optimizer|containment|\n"
      "                        serve|all (default all)\n"
      "  --seed N              base seed; round r uses seed+r (default 1)\n"
      "  --rounds N            instances to try (default 50)\n"
      "  --time-budget-s S     stop after S seconds (default: rounds only)\n"
      "  --backends LIST       subset of native,row,column (default all)\n"
      "  --inject-bug B        flip-cr|flip-ds: corrupt the engine-side\n"
      "                        policy; stale-cache: skip the rule cache's\n"
      "                        trigger-driven evictions — both prove the\n"
      "                        harness catches the drift;\n"
      "                        recycle-skip-delete (serve mode): snapshot\n"
      "                        builds drop the catch-up's deletes\n"
      "  --repro-dir DIR       where minimized repros are dumped (repro)\n"
      "  --replay DIR          re-check an instance written by a past run\n"
      "  --shrink-attempts N   shrink budget in check invocations (2000)\n"
      "  --crash-after N       (serve mode) crash-recovery rounds: kill the\n"
      "                        durable server after N WAL records, recover,\n"
      "                        check equivalence; -1 = random crash point\n"
      "  --torn-epochs         (serve mode) every other read holds its\n"
      "                        snapshot across a forced publication before\n"
      "                        traversing it, then diffs against the oracle\n"
      "                        at the pinned epoch\n"
      "  --doc-nodes N         instance document budget (default 90)\n"
      "  --rules N             max rules per instance (default 6)\n"
      "  --updates N           max updates per instance (default 3)\n"
      "  --element-types N     schema size (default 7)\n"
      "  --quiet               failures and the final summary only\n",
      argv0);
  return 2;
}

bool ParseBackends(const std::string& list,
                   std::vector<tst::BackendKind>* out) {
  out->clear();
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string name = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (name == "native") {
      out->push_back(tst::BackendKind::kNative);
    } else if (name == "row") {
      out->push_back(tst::BackendKind::kRow);
    } else if (name == "column") {
      out->push_back(tst::BackendKind::kColumn);
    } else if (!name.empty()) {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

tst::CheckFn CheckForMode(const std::string& mode,
                          const tst::DiffOptions& diff) {
  if (mode == "annotate") return tst::AnnotationCheck(diff);
  if (mode == "reannotate") return tst::ReannotationCheck(diff);
  if (mode == "optimizer") {
    return [](const tst::Instance& i) { return tst::CheckOptimizer(i); };
  }
  if (mode == "containment") {
    return [diff](const tst::Instance& i) {
      return tst::CheckContainment(i, diff);
    };
  }
  return tst::AllChecks(diff);
}

// Shrinks, dumps the repro, prints everything a human needs.  Returns the
// process exit code.
int ReportFailure(const FuzzOptions& opt, const tst::Instance& instance,
                  const std::string& failure, const tst::CheckFn& check) {
  std::fprintf(stderr, "seed %llu: MISMATCH\n  %s\n",
               static_cast<unsigned long long>(instance.seed),
               failure.c_str());
  std::fprintf(stderr, "shrinking (up to %d attempts)...\n",
               opt.shrink_attempts);
  tst::ShrinkResult shrunk =
      tst::Shrink(instance, check, opt.shrink_attempts);
  std::fprintf(stderr,
               "minimized to %zu nodes, %zu rules, %zu updates "
               "(%d accepted steps, %d attempts)\n  %s\n",
               shrunk.instance.doc.alive_count(),
               shrunk.instance.policy.size(), shrunk.instance.updates.size(),
               shrunk.steps, shrunk.attempts, shrunk.failure.c_str());
  std::string dir =
      opt.repro_dir + "/seed-" + std::to_string(instance.seed);
  xmlac::Status written = tst::WriteRepro(shrunk.instance, dir);
  if (written.ok()) {
    std::fprintf(stderr, "repro written to %s\nreplay: xmlac_fuzz --replay %s",
                 dir.c_str(), dir.c_str());
    if (!opt.inject_bug.empty()) {
      std::fprintf(stderr, " --inject-bug %s", opt.inject_bug.c_str());
    }
    std::fprintf(stderr, "\n");
  } else {
    std::fprintf(stderr, "repro dump failed: %s\n",
                 written.ToString().c_str());
  }
  std::fprintf(stderr, "%s", tst::FormatInstance(shrunk.instance).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--mode") opt.mode = next("--mode");
    else if (arg == "--seed") opt.seed = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--rounds") opt.rounds = std::atoi(next(arg.c_str()));
    else if (arg == "--time-budget-s") opt.time_budget_s = std::strtod(next(arg.c_str()), nullptr);
    else if (arg == "--backends") opt.backends = next("--backends");
    else if (arg == "--inject-bug") opt.inject_bug = next("--inject-bug");
    else if (arg == "--repro-dir") opt.repro_dir = next("--repro-dir");
    else if (arg == "--replay") opt.replay = next("--replay");
    else if (arg == "--shrink-attempts") opt.shrink_attempts = std::atoi(next(arg.c_str()));
    else if (arg == "--doc-nodes") opt.doc_nodes = std::atoi(next(arg.c_str()));
    else if (arg == "--rules") opt.rules = std::atoi(next(arg.c_str()));
    else if (arg == "--updates") opt.updates = std::atoi(next(arg.c_str()));
    else if (arg == "--element-types") opt.element_types = std::atoi(next(arg.c_str()));
    else if (arg == "--crash-after") opt.crash_after = std::atoi(next(arg.c_str()));
    else if (arg == "--torn-epochs") opt.torn_epochs = true;
    else if (arg == "--quiet") opt.quiet = true;
    else return Usage(argv[0]);
  }

  tst::DiffOptions diff;
  if (!ParseBackends(opt.backends, &diff.backends)) {
    std::fprintf(stderr, "bad --backends '%s'\n", opt.backends.c_str());
    return Usage(argv[0]);
  }
  if (opt.inject_bug == "flip-cr") {
    diff.bug = tst::InjectedBug::kFlipCr;
  } else if (opt.inject_bug == "flip-ds") {
    diff.bug = tst::InjectedBug::kFlipDs;
  } else if (opt.inject_bug == "stale-cache") {
    diff.bug = tst::InjectedBug::kStaleCache;
  } else if (opt.inject_bug == "recycle-skip-delete") {
    diff.bug = tst::InjectedBug::kRecycleSkipDelete;
    if (opt.mode != "serve") {
      std::fprintf(stderr, "--inject-bug recycle-skip-delete needs "
                           "--mode serve\n");
      return Usage(argv[0]);
    }
  } else if (!opt.inject_bug.empty()) {
    std::fprintf(stderr, "bad --inject-bug '%s'\n", opt.inject_bug.c_str());
    return Usage(argv[0]);
  }

  const bool known_mode =
      opt.mode == "annotate" || opt.mode == "reannotate" ||
      opt.mode == "optimizer" || opt.mode == "containment" ||
      opt.mode == "serve" || opt.mode == "all";
  if (!known_mode) {
    std::fprintf(stderr, "bad --mode '%s'\n", opt.mode.c_str());
    return Usage(argv[0]);
  }

  tst::CheckFn check = CheckForMode(opt.mode, diff);

  // --- Replay a dumped repro ------------------------------------------------
  if (!opt.replay.empty()) {
    auto loaded = tst::LoadRepro(opt.replay);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", opt.replay.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    std::string failure = check(*loaded);
    if (failure.empty()) {
      std::printf("replay %s: PASS\n", opt.replay.c_str());
      return 0;
    }
    std::fprintf(stderr, "replay %s: MISMATCH\n  %s\n%s", opt.replay.c_str(),
                 failure.c_str(), tst::FormatInstance(*loaded).c_str());
    return 1;
  }

  // --- Fuzz loop ------------------------------------------------------------
  xmlac::Timer timer;
  int rounds_run = 0;
  for (int r = 0; r < opt.rounds; ++r) {
    if (opt.time_budget_s > 0 &&
        timer.ElapsedMicros() > opt.time_budget_s * 1e6) {
      break;
    }
    uint64_t seed = opt.seed + static_cast<uint64_t>(r);
    ++rounds_run;

    if (opt.mode == "serve" && opt.crash_after != INT_MIN) {
      tst::RecoveryFuzzOptions recovery_options;
      recovery_options.seed = seed;
      recovery_options.instance.max_doc_nodes = opt.doc_nodes;
      recovery_options.instance.max_rules = opt.rules;
      recovery_options.instance.element_types = opt.element_types;
      recovery_options.update_ops = std::max(opt.updates, 4);
      recovery_options.crash_point = opt.crash_after;
      tst::RecoveryFuzzResult result = tst::RunRecoveryFuzz(recovery_options);
      if (!result.ok) {
        std::fprintf(stderr,
                     "seed %llu: RECOVERY MISMATCH (crash point %d)\n  %s\n"
                     "replay: xmlac_fuzz --mode serve --crash-after %d "
                     "--seed %llu --rounds 1\n",
                     static_cast<unsigned long long>(seed),
                     result.crash_point, result.failure.c_str(),
                     result.crash_point,
                     static_cast<unsigned long long>(seed));
        return 1;
      }
      if (!opt.quiet && (r + 1) % 10 == 0) {
        std::printf(
            "%d rounds, last: crash point %d, %zu durable batches "
            "(%zu replayed), %zu probes\n",
            r + 1, result.crash_point, result.durable_batches,
            result.replayed_batches, result.probes_checked);
      }
      continue;
    }

    if (opt.mode == "serve") {
      tst::ServeFuzzOptions serve_options;
      serve_options.seed = seed;
      serve_options.instance.max_doc_nodes = opt.doc_nodes;
      serve_options.instance.max_rules = opt.rules;
      serve_options.instance.element_types = opt.element_types;
      serve_options.update_ops = std::max(opt.updates, 4);
      serve_options.torn_epochs = opt.torn_epochs;
      serve_options.bug = diff.bug;
      // On failure the run's flight recorder lands next to the repro
      // artifacts: the tail-sampled traces show what the pool threads were
      // doing around the mismatching epoch.
      serve_options.flight_recorder_dir =
          opt.repro_dir + "/serve-seed-" + std::to_string(seed) + "-flight";
      tst::ServeFuzzResult result = tst::RunServeFuzz(serve_options);
      if (!result.ok) {
        std::fprintf(stderr,
                     "seed %llu: SERVE MISMATCH\n  %s\n"
                     "flight recorder: %s\n"
                     "replay: xmlac_fuzz --mode serve --seed %llu --rounds 1"
                     "%s%s%s\n",
                     static_cast<unsigned long long>(seed),
                     result.failure.c_str(),
                     serve_options.flight_recorder_dir.c_str(),
                     static_cast<unsigned long long>(seed),
                     opt.torn_epochs ? " --torn-epochs" : "",
                     opt.inject_bug.empty() ? "" : " --inject-bug ",
                     opt.inject_bug.c_str());
        return 1;
      }
      if (!opt.quiet && (r + 1) % 10 == 0) {
        std::printf("%d rounds, last: %zu reads checked over %llu epochs\n",
                    r + 1, result.reads_checked,
                    static_cast<unsigned long long>(result.final_epoch));
      }
      continue;
    }

    tst::InstanceOptions instance_options;
    instance_options.seed = seed;
    instance_options.max_doc_nodes = opt.doc_nodes;
    instance_options.max_rules = opt.rules;
    instance_options.max_updates = opt.updates;
    instance_options.element_types = opt.element_types;
    tst::Instance instance = tst::GenerateInstance(instance_options);
    std::string failure = check(instance);
    if (!failure.empty()) {
      return ReportFailure(opt, instance, failure, check);
    }
    if (!opt.quiet && (r + 1) % 10 == 0) {
      std::printf("%d/%d rounds clean\n", r + 1, opt.rounds);
    }
  }
  std::printf("%s: %d rounds clean (mode %s, base seed %llu)\n", argv[0],
              rounds_run, opt.mode.c_str(),
              static_cast<unsigned long long>(opt.seed));
  return 0;
}
