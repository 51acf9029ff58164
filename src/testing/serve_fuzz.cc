#include "testing/serve_fuzz.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/native_backend.h"
#include "serve/server.h"
#include "storage/recovery.h"
#include "testing/oracle.h"
#include "xpath/parser.h"

namespace xmlac::testing {
namespace {

struct RecordedRead {
  uint64_t epoch = 0;
  size_t subject = 0;
  size_t query = 0;
  bool granted = false;
  size_t selected = 0;
  size_t accessible = 0;
};

std::string SubjectName(size_t i) { return "s" + std::to_string(i); }

policy::Policy GeneratePolicy(const xml::Document& doc, Random& rng,
                              const InstanceOptions& options) {
  policy::Policy out(rng.OneIn(2) ? policy::DefaultSemantics::kAllow
                                  : policy::DefaultSemantics::kDeny,
                     rng.OneIn(2) ? policy::ConflictResolution::kAllowOverrides
                                  : policy::ConflictResolution::kDenyOverrides);
  RandomPathGenerator paths(doc, rng.Next(), options.paths);
  int rules =
      1 + static_cast<int>(rng.Uniform(
              static_cast<uint64_t>(std::max(1, options.max_rules))));
  for (int i = 0; i < rules; ++i) {
    policy::Rule rule;
    rule.resource = paths.Next();
    rule.effect = rng.NextDouble() < options.deny_rate ? policy::Effect::kDeny
                                                       : policy::Effect::kAllow;
    out.AddRule(std::move(rule));
  }
  return out;
}

}  // namespace

ServeFuzzResult RunServeFuzz(const ServeFuzzOptions& options) {
  ServeFuzzResult result;
  serve::Server* dump_server = nullptr;  // set once the server exists
  auto fail = [&result, &options, &dump_server](std::string why) {
    result.ok = false;
    if (result.failure.empty()) {
      result.failure = std::move(why);
      if (!options.flight_recorder_dir.empty() && dump_server != nullptr) {
        // Best effort: the repro files are the authoritative artifact, the
        // flight recorder adds the timing story behind the mismatch.
        (void)dump_server->DumpFlightRecorder(options.flight_recorder_dir);
      }
    }
    return result;
  };

  Random rng(options.seed * 0xD1B54A32D192ED03ULL + 5);
  InstanceOptions instance_options = options.instance;
  instance_options.seed = rng.Next();
  instance_options.max_updates = 0;  // the schedule brings its own
  Instance instance = GenerateInstance(instance_options);

  size_t subjects = static_cast<size_t>(std::max(1, options.subjects));
  std::vector<policy::Policy> policies;
  for (size_t i = 0; i < subjects; ++i) {
    policies.push_back(GeneratePolicy(instance.doc, rng, instance_options));
  }

  // Query pool and update stream, all seeded.
  std::vector<xpath::Path> queries;
  {
    RandomPathGenerator paths(instance.doc, rng.Next(),
                              instance_options.paths);
    for (int i = 0; i < std::max(1, options.query_pool); ++i) {
      queries.push_back(paths.Next());
    }
  }
  std::vector<engine::BatchOp> ops = GenerateUpdates(
      instance.doc, instance.dtd, rng, options.update_ops,
      instance_options.paths);

  // --- Server under test ----------------------------------------------------
  serve::ServerOptions server_options;
  server_options.workers = options.workers;
  server_options.max_batch = options.max_batch;
  server_options.inject_recycle_skip_delete =
      options.bug == InjectedBug::kRecycleSkipDelete;
  serve::Server server(server_options);
  dump_server = &server;
  Status st = server.LoadParsed(instance.dtd, instance.doc);
  if (!st.ok()) return fail("server Load: " + st.ToString());
  for (size_t i = 0; i < subjects; ++i) {
    st = server.AddSubject(SubjectName(i), policies[i].ToString());
    if (!st.ok()) {
      return fail("server AddSubject " + SubjectName(i) + ": " +
                  st.ToString());
    }
  }
  st = server.Start();
  if (!st.ok()) return fail("server Start: " + st.ToString());

  // Per-reader deterministic schedules (only thread interleaving varies).
  size_t readers = static_cast<size_t>(std::max(1, options.readers));
  std::vector<std::vector<RecordedRead>> recorded(readers);
  std::vector<std::string> thread_errors(readers);
  std::vector<uint64_t> reader_seeds;
  for (size_t r = 0; r < readers; ++r) reader_seeds.push_back(rng.Next());

  std::atomic<bool> updates_done{false};
  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Random reader_rng(reader_seeds[r]);
      for (int i = 0; i < options.reads_per_reader; ++i) {
        size_t s = reader_rng.Uniform(subjects);
        size_t q = reader_rng.Uniform(queries.size());
        if (options.torn_epochs && i % 2 == 0) {
          // Torn read: hold the snapshot across a publication.  Stall until
          // the writer moves past the captured epoch (or runs out of
          // updates), THEN traverse the captured documents and index
          // versions — the worst case for version lifetime: only the
          // snapshot's shared_ptrs still own them.
          serve::SnapshotPtr snap = server.CurrentSnapshot();
          while (server.epoch() == snap->epoch &&
                 !updates_done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          auto outcome =
              serve::QuerySnapshot(*snap, SubjectName(s), queries[q]);
          if (!outcome.ok()) {
            thread_errors[r] = "torn read failed (subject " + SubjectName(s) +
                               ", query " + xpath::ToString(queries[q]) +
                               "): " + outcome.status().ToString();
            return;
          }
          recorded[r].push_back({snap->epoch, s, q, outcome->granted,
                                 outcome->selected, outcome->accessible});
          continue;
        }
        serve::ServeResponse resp =
            server.Query(SubjectName(s), xpath::ToString(queries[q]));
        if (!resp.status.ok()) {
          thread_errors[r] = "read failed (subject " + SubjectName(s) +
                             ", query " + xpath::ToString(queries[q]) +
                             "): " + resp.status.ToString();
          return;
        }
        recorded[r].push_back({resp.epoch, s, q, resp.granted, resp.selected,
                               resp.accessible});
      }
    });
  }

  // Single updater; submission order is preserved by the FIFO write queue,
  // so within one publication epoch the oracle can replay ops in order.
  std::map<uint64_t, std::vector<engine::BatchOp>> ops_by_epoch;
  std::string updater_error;
  std::thread updater([&] {
    for (const engine::BatchOp& op : ops) {
      serve::ServeResponse resp =
          op.kind == engine::BatchOp::Kind::kDelete
              ? server.Update(op.xpath)
              : server.Insert(op.xpath, op.fragment_xml);
      if (!resp.status.ok()) {
        updater_error = "update '" + op.xpath +
                        "' failed: " + resp.status.ToString();
        break;
      }
      ops_by_epoch[resp.epoch].push_back(op);
      ++result.updates_applied;
    }
    // Release torn readers stalled waiting for a publication that will
    // never come.
    updates_done.store(true, std::memory_order_release);
  });

  for (std::thread& t : reader_threads) t.join();
  updater.join();
  result.final_epoch = server.epoch();
  server.Stop();

  for (const std::string& err : thread_errors) {
    if (!err.empty()) return fail(err);
  }
  if (!updater_error.empty()) return fail(updater_error);

  // --- Serial replay against the brute-force model --------------------------
  OracleModel oracle;
  oracle.Load(instance.doc);
  for (size_t i = 0; i < subjects; ++i) {
    st = oracle.AddSubject(SubjectName(i), policies[i]);
    if (!st.ok()) return fail("oracle AddSubject: " + st.ToString());
  }

  // Reads grouped by the epoch they were served at.
  std::map<uint64_t, std::vector<RecordedRead>> reads_by_epoch;
  for (const auto& reader_log : recorded) {
    for (const RecordedRead& read : reader_log) {
      reads_by_epoch[read.epoch].push_back(read);
    }
  }
  for (const auto& [epoch, batch] : ops_by_epoch) {
    if (epoch < 2 || epoch > result.final_epoch) {
      return fail("update cites impossible epoch " + std::to_string(epoch));
    }
    (void)batch;
  }

  auto next_batch = ops_by_epoch.begin();
  for (const auto& [epoch, reads] : reads_by_epoch) {
    if (epoch < 1 || epoch > result.final_epoch) {
      return fail("read cites impossible epoch " + std::to_string(epoch));
    }
    // Advance the oracle document to `epoch`: apply every batch whose
    // publication is included in it.
    for (; next_batch != ops_by_epoch.end() && next_batch->first <= epoch;
         ++next_batch) {
      st = oracle.ApplyBatch(next_batch->second);
      if (!st.ok()) {
        return fail("oracle replay of epoch " +
                    std::to_string(next_batch->first) +
                    " batch: " + st.ToString());
      }
    }
    for (const RecordedRead& read : reads) {
      auto expected = oracle.Query(SubjectName(read.subject),
                                   queries[read.query]);
      if (!expected.ok()) {
        return fail("oracle query failed: " + expected.status().ToString());
      }
      if (read.granted != expected->granted ||
          read.selected != expected->selected ||
          read.accessible != expected->accessible) {
        return fail(
            "epoch " + std::to_string(read.epoch) + " subject " +
            SubjectName(read.subject) + " query " +
            xpath::ToString(queries[read.query]) + ": served granted=" +
            (read.granted ? "1" : "0") + " selected=" +
            std::to_string(read.selected) + " accessible=" +
            std::to_string(read.accessible) + ", oracle granted=" +
            (expected->granted ? "1" : "0") + " selected=" +
            std::to_string(expected->selected) + " accessible=" +
            std::to_string(expected->accessible));
      }
      ++result.reads_checked;
    }
  }
  return result;
}

RecoveryFuzzResult RunRecoveryFuzz(const RecoveryFuzzOptions& options) {
  RecoveryFuzzResult result;
  Random rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);

  // Instance, policies, probe queries and the update stream.
  InstanceOptions instance_options = options.instance;
  instance_options.seed = rng.Next();
  instance_options.max_updates = 0;
  Instance instance = GenerateInstance(instance_options);
  size_t subjects = static_cast<size_t>(std::max(1, options.subjects));
  std::vector<policy::Policy> policies;
  for (size_t i = 0; i < subjects; ++i) {
    policies.push_back(GeneratePolicy(instance.doc, rng, instance_options));
  }
  std::vector<xpath::Path> probes;
  {
    RandomPathGenerator paths(instance.doc, rng.Next(),
                              instance_options.paths);
    for (int i = 0; i < std::max(1, options.query_probes); ++i) {
      probes.push_back(paths.Next());
    }
  }
  std::vector<engine::BatchOp> ops = GenerateUpdates(
      instance.doc, instance.dtd, rng, options.update_ops,
      instance_options.paths);

  // Crash point: how many WAL batch records survive.
  const int max_crash = static_cast<int>(ops.size());
  result.crash_point =
      options.crash_point >= 0
          ? std::min(options.crash_point, max_crash)
          : static_cast<int>(rng.Uniform(static_cast<uint64_t>(max_crash + 1)));
  result.durable_batches = static_cast<size_t>(result.crash_point);

  std::string dir = options.data_dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() /
           ("xmlac-recovery-fuzz-" + std::to_string(::getpid()) + "-" +
            std::to_string(options.seed)))
              .string();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto fail = [&result, &dir](std::string why) {
    result.ok = false;
    if (result.failure.empty()) {
      result.failure = std::move(why) + " (data dir kept: " + dir + ")";
    }
    return result;
  };

  // --- Durable server run, killed at the crash point ------------------------
  {
    serve::ServerOptions server_options;
    server_options.workers = 1;
    server_options.max_batch = 1;  // one op per epoch: crash points line up
    server_options.flight_recorder = false;
    server_options.durability.data_dir = dir;
    // Syncs are irrelevant to the model-level crash; skip them for speed.
    server_options.durability.level = storage::DurabilityLevel::kNone;
    server_options.durability.crash_after_records = result.crash_point;
    server_options.durability.torn_tail_bytes = rng.Uniform(32);
    const size_t kSegmentChoices[] = {256, 4096, 64u << 20};
    server_options.durability.segment_bytes = kSegmentChoices[rng.Uniform(3)];
    const size_t kCkptChoices[] = {0, 1, 3};
    server_options.durability.checkpoint_every = kCkptChoices[rng.Uniform(3)];

    serve::Server server(server_options);
    Status st = server.LoadParsed(instance.dtd, instance.doc);
    if (!st.ok()) return fail("server Load: " + st.ToString());
    for (size_t i = 0; i < subjects; ++i) {
      st = server.AddSubject(SubjectName(i), policies[i].ToString());
      if (!st.ok()) return fail("server AddSubject: " + st.ToString());
    }
    st = server.Start();
    if (!st.ok()) return fail("server Start: " + st.ToString());
    // Serial closed-loop stream: op k commits at epoch k+2 (epoch 1 is the
    // genesis checkpoint and initial publish), so WAL record k+1 is its
    // commit record.
    for (const engine::BatchOp& op : ops) {
      serve::ServeResponse resp =
          op.kind == engine::BatchOp::Kind::kDelete
              ? server.Update(op.xpath)
              : server.Insert(op.xpath, op.fragment_xml);
      // Post-crash updates still "succeed" in memory — exactly the window a
      // real kill would erase.
      if (!resp.status.ok()) {
        return fail("update '" + op.xpath + "': " + resp.status.ToString());
      }
    }
    server.Stop();
  }

  // --- Recovery into a fresh engine ----------------------------------------
  engine::MultiSubjectController recovered_controller(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  auto recovered = storage::RecoverState(dir, &recovered_controller);
  if (!recovered.ok()) {
    return fail("RecoverState: " + recovered.status().ToString());
  }
  result.replayed_batches = recovered->replayed_batches;
  if (!recovered->found) {
    return fail("no durable state found after crash point " +
                std::to_string(result.crash_point));
  }
  const uint64_t expected_epoch = 1 + result.durable_batches;
  if (recovered->epoch != expected_epoch) {
    return fail("recovered epoch " + std::to_string(recovered->epoch) +
                ", expected " + std::to_string(expected_epoch));
  }

  // --- Reference engine: the durable prefix, applied the normal way ---------
  engine::MultiSubjectController reference(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  Status st = reference.LoadParsed(instance.dtd, instance.doc);
  if (!st.ok()) return fail("reference Load: " + st.ToString());
  for (size_t i = 0; i < subjects; ++i) {
    st = reference.AddSubject(SubjectName(i), policies[i].ToString());
    if (!st.ok()) return fail("reference AddSubject: " + st.ToString());
  }
  for (size_t k = 0; k < result.durable_batches; ++k) {
    auto applied = reference.ApplyBatch({ops[k]});
    if (!applied.ok()) {
      return fail("reference ApplyBatch: " + applied.status().ToString());
    }
  }

  // Kill-and-recover equivalence: byte-identical document, equal signs.
  const std::string diff = engine::DiffFleetState(recovered_controller,
                                                  reference);
  if (!diff.empty()) {
    return fail("recovered state differs from reference at crash point " +
                std::to_string(result.crash_point) + ": " + diff);
  }

  // Oracle probes: recovered answers must match brute force at the prefix.
  OracleModel oracle;
  oracle.Load(instance.doc);
  for (size_t i = 0; i < subjects; ++i) {
    st = oracle.AddSubject(SubjectName(i), policies[i]);
    if (!st.ok()) return fail("oracle AddSubject: " + st.ToString());
  }
  for (size_t k = 0; k < result.durable_batches; ++k) {
    st = oracle.Apply(ops[k]);
    if (!st.ok()) return fail("oracle Apply: " + st.ToString());
  }
  for (const xpath::Path& probe : probes) {
    for (size_t i = 0; i < subjects; ++i) {
      auto served = recovered_controller.Query(SubjectName(i),
                                               xpath::ToString(probe));
      // The engine reports denial as a kAccessDenied status (all-or-nothing
      // semantics); anything else non-OK is an infrastructure failure.
      bool served_granted = served.ok();
      if (!served.ok() &&
          served.status().code() != StatusCode::kAccessDenied) {
        return fail("recovered query failed: " + served.status().ToString());
      }
      auto expected = oracle.Query(SubjectName(i), probe);
      if (!expected.ok()) {
        return fail("oracle query failed: " + expected.status().ToString());
      }
      if (served_granted != expected->granted ||
          (served_granted && (served->selected != expected->selected ||
                              served->accessible != expected->accessible))) {
        return fail("probe '" + xpath::ToString(probe) + "' subject " +
                    SubjectName(i) + ": recovered granted=" +
                    (served_granted ? "1" : "0") + ", oracle granted=" +
                    (expected->granted ? "1" : "0") + " selected=" +
                    std::to_string(expected->selected) + " accessible=" +
                    std::to_string(expected->accessible));
      }
      ++result.probes_checked;
    }
  }

  std::filesystem::remove_all(dir, ec);
  return result;
}

}  // namespace xmlac::testing
