#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "engine/access_controller.h"
#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "serve/queue.h"
#include "serve/snapshot.h"
#include "workload/hospital.h"
#include "workload/queries.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace xmlac::serve {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoAndSize) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    EXPECT_TRUE(q.Push(v));
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), 0);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.TryPush(a));
  EXPECT_TRUE(q.TryPush(b));
  EXPECT_FALSE(q.TryPush(c));
  // The failed TryPush did not consume the caller's item.
  EXPECT_EQ(c, 3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_TRUE(q.TryPush(c));
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> q(1);
  int first = 1;
  ASSERT_TRUE(q.Push(first));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    int second = 2;
    EXPECT_TRUE(q.Push(second));  // blocks: queue is full
    pushed.store(true);
  });
  // The producer cannot complete until we pop.  (No sleep-based assert on
  // "still blocked" — just that the handoff completes and order is kept.)
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> q(4);
  int a = 7, b = 8;
  ASSERT_TRUE(q.Push(a));
  ASSERT_TRUE(q.Push(b));
  q.Close();
  int c = 9;
  EXPECT_FALSE(q.Push(c));  // closed: rejected, caller keeps the item
  EXPECT_EQ(c, 9);
  // Pending items still drain before the nullopt shutdown signal.
  EXPECT_EQ(q.Pop(), 7);
  EXPECT_EQ(q.Pop(), 8);
  EXPECT_EQ(q.Pop(), std::nullopt);
  EXPECT_EQ(q.Pop(), std::nullopt);  // idempotent
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] { EXPECT_EQ(q.Pop(), std::nullopt); });
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, PopBatchCoalescesQueuedItems) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(q.Push(v));
  }
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 3), 3u);  // capped at max
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.PopBatch(&batch, 8), 2u);  // drains the rest
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3, 4}));
  q.Close();
  EXPECT_EQ(q.PopBatch(&batch, 8), 0u);  // closed and drained
}

// ---------------------------------------------------------------------------
// Server fixtures

ServerOptions SmallOptions(size_t workers = 2, size_t max_batch = 64) {
  ServerOptions opt;
  opt.workers = workers;
  opt.max_batch = max_batch;
  return opt;
}

xml::Document SmallHospital() {
  workload::HospitalOptions opt;
  opt.departments = 2;
  opt.patients_per_department = 12;
  return workload::HospitalGenerator().Generate(opt);
}

std::unique_ptr<Server> MakeHospitalServer(ServerOptions options) {
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  auto server = std::make_unique<Server>(options);
  Status loaded = server->LoadParsed(*dtd, SmallHospital());
  EXPECT_TRUE(loaded.ok()) << loaded;
  for (size_t i = 0; i < workload::kHospitalSubjectCount; ++i) {
    Status added = server->AddSubject(workload::kHospitalSubjects[i].subject,
                                      workload::kHospitalSubjects[i].policy_text);
    EXPECT_TRUE(added.ok()) << added;
  }
  return server;
}

// A serial oracle controller with the same document and subjects.
std::unique_ptr<engine::MultiSubjectController> MakeOracle() {
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  auto oracle = std::make_unique<engine::MultiSubjectController>(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  Status loaded = oracle->LoadParsed(*dtd, SmallHospital());
  EXPECT_TRUE(loaded.ok()) << loaded;
  for (size_t i = 0; i < workload::kHospitalSubjectCount; ++i) {
    Status added = oracle->AddSubject(workload::kHospitalSubjects[i].subject,
                                      workload::kHospitalSubjects[i].policy_text);
    EXPECT_TRUE(added.ok()) << added;
  }
  return oracle;
}

// ---------------------------------------------------------------------------
// Basic serving semantics

TEST(ServeTest, AnswersMatchDirectControllerQueries) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());
  auto oracle = MakeOracle();
  const char* kQueries[] = {"//patient", "//patient/name", "//bill",
                            "//treatment", "//staff", "//nobody"};
  for (size_t i = 0; i < workload::kHospitalSubjectCount; ++i) {
    const char* subject = workload::kHospitalSubjects[i].subject;
    for (const char* q : kQueries) {
      ServeResponse served = server->Query(subject, q);
      ASSERT_TRUE(served.status.ok()) << served.status;
      auto direct = oracle->Query(subject, q);
      // engine::Request reports denial as an AccessDenied status; the
      // serving layer reports it as granted=false with an OK status.
      if (direct.ok()) {
        EXPECT_TRUE(served.granted) << subject << " " << q;
        EXPECT_EQ(served.selected, direct->selected);
        EXPECT_EQ(served.accessible, direct->accessible);
      } else {
        EXPECT_EQ(direct.status().code(), StatusCode::kAccessDenied);
        EXPECT_FALSE(served.granted) << subject << " " << q;
      }
    }
  }
  server->Stop();
}

TEST(ServeTest, RejectsMalformedAndUnknown) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_FALSE(server->Query("nurse", "//patient[").status.ok());
  EXPECT_EQ(server->Query("intruder", "//patient").status.code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(server->Update("not an xpath [").status.ok());
  EXPECT_FALSE(server->Insert("//patients", "<unclosed>").status.ok());
  server->Stop();
}

TEST(ServeTest, StopFailsPendingAndLaterSubmissions) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());
  server->Stop();
  ServeResponse after = server->Query("nurse", "//patient");
  EXPECT_FALSE(after.status.ok());
  server->Stop();  // idempotent

  // Submissions queued on a never-started server also complete on Stop.
  auto cold = MakeHospitalServer(SmallOptions());
  auto pending = cold->SubmitQuery("nurse", "//patient");
  cold->Stop();
  EXPECT_FALSE(pending.get().status.ok());
}

// ---------------------------------------------------------------------------
// Snapshot isolation

TEST(ServeTest, HeldSnapshotIsImmuneToLaterUpdates) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());

  SnapshotPtr pinned = server->CurrentSnapshot();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  auto query = xpath::ParsePath("//patient");
  ASSERT_TRUE(query.ok());
  auto before = QuerySnapshot(*pinned, "doctor", *query);
  ASSERT_TRUE(before.ok());
  size_t patients_before = before->selected;
  ASSERT_GT(patients_before, 0u);

  ServeResponse upd = server->Update("//patient[psn=\"000\"]");
  ASSERT_TRUE(upd.status.ok()) << upd.status;
  EXPECT_GT(upd.epoch, 1u);
  EXPECT_GE(server->epoch(), upd.epoch);

  // The pinned snapshot still answers from epoch 1: same node count, even
  // though the live document lost a patient.
  auto after = QuerySnapshot(*pinned, "doctor", *query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->selected, patients_before);

  SnapshotPtr fresh = server->CurrentSnapshot();
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->epoch, pinned->epoch);
  auto live = QuerySnapshot(*fresh, "doctor", *query);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->selected, patients_before - 1);
  server->Stop();
}

// A view whose IndexVersion does not match its own document breaks the
// publish-with-snapshot invariant: the read fails as Internal and counts
// `serve.read.index_stale` rather than quietly answering through the naive
// evaluator.  A view without an index is the naive baseline and answers.
TEST(ServeTest, MismatchedSnapshotIndexIsAnInternalError) {
  auto oracle = MakeOracle();
  auto before = BuildSnapshot(*oracle, 1);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(
      oracle->ApplyBatch({engine::BatchOp::Delete("//patient[psn=\"000\"]")})
          .ok());
  auto after = BuildSnapshot(*oracle, 2);
  ASSERT_TRUE(after.ok()) << after.status();
  const std::string subject = "doctor";
  SubjectView view = (*after)->subjects.at(subject);
  view.index = (*before)->subjects.at(subject).index;
  ASSERT_NE(view.index, nullptr);
  ASSERT_FALSE(view.index->Matches(*view.doc));
  Snapshot torn;
  torn.epoch = 2;
  torn.subjects.emplace(subject, view);
  auto query = xpath::ParsePath("//patient");
  ASSERT_TRUE(query.ok());

  obs::MetricsRegistry metrics;
  obs::ScopedObsContext obs_ctx(&metrics, nullptr);
  auto stale = QuerySnapshot(torn, subject, *query);
  EXPECT_EQ(stale.status().code(), StatusCode::kInternal);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.read.index_stale"), 1u);

  torn.subjects.at(subject).index = nullptr;
  auto naive = QuerySnapshot(torn, subject, *query);
  auto indexed = QuerySnapshot(**after, subject, *query);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(naive->selected, indexed->selected);
  EXPECT_EQ(naive->granted, indexed->granted);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.read.index_stale"), 1u);
}

// A snapshot owns everything its reads touch: each view's document and the
// one IndexVersion they share stay alive, unchanged, through later batches
// and past the destruction of the controller that built them.
TEST(ServeTest, SnapshotOutlivesLaterBatchesAndItsController) {
  auto oracle = MakeOracle();
  auto built = BuildSnapshot(*oracle, 1);
  ASSERT_TRUE(built.ok()) << built.status();
  SnapshotPtr snapshot = *built;
  auto answers = [](const Snapshot& snap) {
    std::vector<std::string> out;
    for (const char* q : {"//patient", "//patient/name", "//bill",
                          "//treatment//med", "//staff"}) {
      auto query = xpath::ParsePath(q);
      EXPECT_TRUE(query.ok()) << q;
      for (const auto& [name, view] : snap.subjects) {
        auto outcome = QuerySnapshot(snap, name, *query);
        EXPECT_TRUE(outcome.ok()) << outcome.status();
        std::string line = name + " " + q + " " +
                           std::to_string(outcome->granted) + " " +
                           std::to_string(outcome->selected) + " " +
                           std::to_string(outcome->accessible);
        for (engine::UniversalId id : outcome->ids) {
          line += " " + std::to_string(id);
        }
        out.push_back(std::move(line));
      }
    }
    return out;
  };
  const std::vector<std::string> at_build = answers(*snapshot);

  for (const char* psn : {"000", "013"}) {
    ASSERT_TRUE(oracle
                    ->ApplyBatch({engine::BatchOp::Delete(
                        std::string("//patient[psn=\"") + psn + "\"]")})
                    .ok());
  }
  ASSERT_TRUE(oracle
                  ->ApplyBatch({engine::BatchOp::Insert(
                      "//patients",
                      "<patient><psn>900</psn><name>new</name></patient>")})
                  .ok());
  auto live = BuildSnapshot(*oracle, 4);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_NE(answers(**live), at_build);
  EXPECT_EQ(answers(*snapshot), at_build);

  live->reset();
  oracle.reset();
  // Only the snapshot's views own the shared version now.
  const SubjectView& first = snapshot->subjects.begin()->second;
  ASSERT_NE(first.index, nullptr);
  EXPECT_EQ(first.index.use_count(),
            static_cast<long>(snapshot->subjects.size()));
  EXPECT_EQ(answers(*snapshot), at_build);
}

// The fleet keeps one store for all of its subjects: one factory call per
// Load, one index publish per ApplyBatch, and one IndexVersion shared by
// every view of a snapshot.  No evaluation on the way falls back from the
// structural engine to the naive one.
TEST(ServeTest, FleetSharesOneStoreAndOneIndex) {
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  int factory_calls = 0;
  engine::MultiSubjectController fleet([&factory_calls] {
    ++factory_calls;
    return std::make_unique<engine::NativeXmlBackend>();
  });
  obs::MetricsRegistry metrics;
  obs::ScopedObsContext obs_ctx(&metrics, nullptr);
  ASSERT_TRUE(fleet.LoadParsed(*dtd, SmallHospital()).ok());
  constexpr size_t kSubjects = 8;
  for (size_t i = 0; i < kSubjects; ++i) {
    const auto& s =
        workload::kHospitalSubjects[i % workload::kHospitalSubjectCount];
    ASSERT_TRUE(
        fleet.AddSubject(s.subject + std::to_string(i), s.policy_text).ok());
  }
  EXPECT_EQ(factory_calls, 1);

  auto publishes = [&metrics] {
    return metrics.Snapshot()
        .histograms["xpath.structural.version_publish_us"]
        .count;
  };
  for (const char* psn : {"000", "001", "002"}) {
    const uint64_t before = publishes();
    auto stats = fleet.ApplyBatch({engine::BatchOp::Delete(
        std::string("//patient[psn=\"") + psn + "\"]")});
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->size(), kSubjects);
    EXPECT_EQ(stats->begin()->second.nodes_deleted,
              stats->rbegin()->second.nodes_deleted);
    EXPECT_EQ(publishes(), before + 1) << psn;
  }
  EXPECT_EQ(factory_calls, 1);

  auto snapshot = BuildSnapshot(fleet, 4);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_EQ((*snapshot)->subjects.size(), kSubjects);
  const xpath::IndexVersion* shared =
      fleet.native_store()->CurrentIndexVersion().get();
  ASSERT_NE(shared, nullptr);
  auto query = xpath::ParsePath("//patient/name");
  ASSERT_TRUE(query.ok());
  for (const auto& [name, view] : (*snapshot)->subjects) {
    EXPECT_EQ(view.index.get(), shared) << name;
    auto served = QuerySnapshot(**snapshot, name, *query);
    ASSERT_TRUE(served.ok()) << served.status();
    auto direct = fleet.Query(name, "//patient/name");
    EXPECT_EQ(served->granted, direct.ok()) << name;
    EXPECT_EQ(fleet.subject(name)
                  ->SnapshotMetrics()
                  .counters["xpath.structural.fallbacks"],
              0u)
        << name;
  }
  EXPECT_EQ(metrics.Snapshot().counters["xpath.structural.fallbacks"], 0u);
}

// ---------------------------------------------------------------------------
// Observability propagation (satellite: thread-local sinks on pool threads)

TEST(ServeTest, WorkerThreadsReportIntoServerRegistry) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());
  for (int i = 0; i < 8; ++i) {
    ServeResponse r = server->Query("doctor", "//patient");
    ASSERT_TRUE(r.status.ok()) << r.status;
  }
  ServeResponse upd = server->Update("//patient[psn=\"001\"]");
  ASSERT_TRUE(upd.status.ok()) << upd.status;
  server->Stop();

  obs::MetricsSnapshot m = server->SnapshotMetrics();
  // serve.* series are recorded by the pool threads themselves.
  EXPECT_GE(m.counters["serve.read.requests"], 8u);
  EXPECT_GE(m.counters["serve.updates.applied"], 1u);
  EXPECT_GE(m.counters["serve.snapshot.published"], 2u);
  // Deep-layer series (QuerySnapshot's requester.* counters, the writer's
  // snapshot-build timer) only appear here if the thread-local obs context
  // was installed on the pool threads — the assertion the satellite asks
  // for.  Without propagation these record into a null sink and vanish.
  EXPECT_GT(m.counters["requester.nodes_selected"], 0u);
  ASSERT_TRUE(m.histograms.count("serve.request.latency_us"));
  EXPECT_GE(m.histograms["serve.request.latency_us"].count, 8u);
  ASSERT_TRUE(m.histograms.count("serve.snapshot.build_us"));
  ASSERT_TRUE(m.histograms.count("serve.batch.size"));

  // Per-subject engine registries keep working too (annotator.* flows into
  // the subject's own registry, not the server's).
  auto subject_metrics = server->SubjectMetrics("doctor");
  ASSERT_TRUE(subject_metrics.ok());
  EXPECT_GT(subject_metrics->counters["annotator.reannotations"], 0u);
  // Every evaluation, before and after the update, found its index.
  EXPECT_EQ(m.counters["xpath.structural.fallbacks"], 0u);
  EXPECT_EQ(subject_metrics->counters["xpath.structural.fallbacks"], 0u);
  EXPECT_FALSE(server->SubjectMetrics("intruder").ok());
}

// ---------------------------------------------------------------------------
// Batch coalescing

TEST(ServeTest, PreStartSubmissionsCoalesceIntoOneBatch) {
  // Submissions before Start() queue up; the writer's first PopBatch takes
  // them all, so exactly one re-annotation per subject serves the lot.
  auto batched = MakeHospitalServer(SmallOptions(/*workers=*/1,
                                                 /*max_batch=*/16));
  std::vector<std::future<ServeResponse>> pending;
  for (int i = 0; i < 6; ++i) {
    char psn[8];
    std::snprintf(psn, sizeof(psn), "%03d", i);
    pending.push_back(
        batched->SubmitUpdate(std::string("//patient[psn=\"") + psn + "\"]"));
  }
  ASSERT_TRUE(batched->Start().ok());
  for (auto& f : pending) {
    ServeResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.epoch, 2u);       // one publication for the whole batch
    EXPECT_EQ(r.batch_size, 6u);  // all six coalesced
  }
  batched->Stop();

  uint64_t batched_reannotations = 0;
  for (const std::string& name : batched->SubjectNames()) {
    auto m = batched->SubjectMetrics(name);
    ASSERT_TRUE(m.ok());
    batched_reannotations += m->counters["annotator.reannotations"];
  }
  // One re-annotation per subject, total == subject count.
  EXPECT_EQ(batched_reannotations, workload::kHospitalSubjectCount);

  // The same six updates with max_batch=1 re-annotate once per update.
  auto serial = MakeHospitalServer(SmallOptions(/*workers=*/1,
                                                /*max_batch=*/1));
  std::vector<std::future<ServeResponse>> serial_pending;
  for (int i = 0; i < 6; ++i) {
    char psn[8];
    std::snprintf(psn, sizeof(psn), "%03d", i);
    serial_pending.push_back(
        serial->SubmitUpdate(std::string("//patient[psn=\"") + psn + "\"]"));
  }
  ASSERT_TRUE(serial->Start().ok());
  for (auto& f : serial_pending) {
    ServeResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.batch_size, 1u);
  }
  serial->Stop();
  uint64_t serial_reannotations = 0;
  for (const std::string& name : serial->SubjectNames()) {
    auto m = serial->SubjectMetrics(name);
    ASSERT_TRUE(m.ok());
    serial_reannotations += m->counters["annotator.reannotations"];
  }
  EXPECT_EQ(serial_reannotations, 6 * workload::kHospitalSubjectCount);
  EXPECT_LT(batched_reannotations, serial_reannotations);
}

// ---------------------------------------------------------------------------
// Flight recorder / health snapshot (tentpole: the recorder's view must
// reconcile exactly with a serial tally of what the test submitted)

TEST(ServeHealthTest, HealthSnapshotMatchesSerialTally) {
  constexpr size_t kReads = 32;
  ServerOptions opt = SmallOptions(/*workers=*/2, /*max_batch=*/4);
  opt.recorder.slow_threshold_us = 1;  // retain every request
  auto server = MakeHospitalServer(opt);
  ASSERT_TRUE(server->Start().ok());

  for (size_t i = 0; i < kReads; ++i) {
    ServeResponse r = server->Query("doctor", "//patient");
    ASSERT_TRUE(r.status.ok()) << r.status;
  }
  uint64_t batches = 0;
  uint64_t last_epoch = 0;
  for (int i = 0; i < 3; ++i) {
    char psn[8];
    std::snprintf(psn, sizeof(psn), "%03d", i);
    ServeResponse r =
        server->Update(std::string("//patient[psn=\"") + psn + "\"]");
    ASSERT_TRUE(r.status.ok()) << r.status;
    if (r.epoch != last_epoch) {
      ++batches;
      last_epoch = r.epoch;
    }
  }

  ServerHealth health = server->HealthSnapshot();

  // Request accounting is exact: the recorder saw every read as a
  // query.native request and every published batch as an update.native one.
  constexpr size_t kQn = static_cast<size_t>(obs::RequestClass::kQueryNative);
  constexpr size_t kUn = static_cast<size_t>(obs::RequestClass::kUpdateNative);
  EXPECT_EQ(health.recorder.latency_us[kQn].count, kReads);
  EXPECT_EQ(health.recorder.latency_us[kUn].count, batches);
  EXPECT_EQ(health.recorder.requests_seen, kReads + batches);

  // Percentiles of the streamed histogram are ordered and within range.
  const obs::HistogramData& reads = health.recorder.latency_us[kQn];
  double p50 = reads.Percentile(0.5);
  double p95 = reads.Percentile(0.95);
  double p99 = reads.Percentile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(reads.max));
  EXPECT_GE(p50, static_cast<double>(reads.min));

  // Queue watermarks: at least one request crossed each queue, and no
  // watermark can exceed capacity.
  EXPECT_GE(health.read_queue_watermark, 1u);
  EXPECT_LE(health.read_queue_watermark, opt.read_queue_capacity);
  EXPECT_GE(health.write_queue_watermark, 1u);
  EXPECT_EQ(health.read_queue_depth, 0u);  // everything answered

  // Nothing was dropped at this load, and the drained view is current:
  // the writer published `last_epoch` and HealthSnapshot() drains first.
  EXPECT_EQ(health.recorder.events_dropped, 0u);
  EXPECT_GT(health.recorder.events_appended, 0u);
  EXPECT_EQ(health.epoch, last_epoch);
  EXPECT_EQ(health.recorder.last_epoch, last_epoch);
  EXPECT_EQ(health.recorder_epoch, last_epoch);
  EXPECT_EQ(health.epoch_lag, 0u);

  // Every request was over the 1us retention threshold; retained traces are
  // bounded by the options but the eviction counter accounts for the rest.
  EXPECT_GT(health.recorder.retained_traces, 0u);
  EXPECT_LE(health.recorder.retained_traces, opt.recorder.max_retained_traces);
  EXPECT_EQ(health.recorder.retained_traces + health.recorder.evicted_traces,
            kReads + batches);

  // The flat export carries the same numbers.
  std::string text = HealthText(health);
  EXPECT_NE(text.find("serve.health.epoch_lag 0"), std::string::npos);
  EXPECT_NE(text.find("latency.query.native.count 32"), std::string::npos);
  EXPECT_NE(text.find("obs.ring.dropped 0"), std::string::npos);
  EXPECT_NE(text.find("obs.worker_ring_pool.misses " +
                      std::to_string(health.worker_ring_pool_misses)),
            std::string::npos);
  EXPECT_NE(text.find("queue.read_queue.watermark"), std::string::npos);

  server->Stop();
}

TEST(ServeHealthTest, DumpFlightRecorderWritesLoadableTrace) {
  ServerOptions opt = SmallOptions();
  opt.recorder.slow_threshold_us = 1;
  auto server = MakeHospitalServer(opt);
  ASSERT_TRUE(server->Start().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->Query("doctor", "//patient").status.ok());
  }
  std::string dir = ::testing::TempDir() + "serve_flight_dump";
  Status dumped = server->DumpFlightRecorder(dir);
  ASSERT_TRUE(dumped.ok()) << dumped;
  server->Stop();

  auto trace = ReadFile(dir + "/trace.json");
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->front(), '{');
  EXPECT_EQ(trace->back(), '}');
  EXPECT_NE(trace->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace->find("request query.native"), std::string::npos);
  EXPECT_NE(trace->find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace->find("worker-0"), std::string::npos);

  auto health = ReadFile(dir + "/health.txt");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("obs.ring.appended "), std::string::npos);
  EXPECT_NE(health->find("latency.query.native.count 4"), std::string::npos);
}

TEST(ServeHealthTest, RecorderCanBeDisabled) {
  ServerOptions opt = SmallOptions();
  opt.flight_recorder = false;
  auto server = MakeHospitalServer(opt);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(server->Query("doctor", "//patient").status.ok());
  EXPECT_EQ(server->flight_recorder(), nullptr);
  ServerHealth health = server->HealthSnapshot();
  EXPECT_EQ(health.recorder.requests_seen, 0u);
  EXPECT_EQ(health.epoch, 1u);
  EXPECT_FALSE(server->DumpFlightRecorder("/tmp/never").ok());
  server->Stop();
}

// ---------------------------------------------------------------------------
// Concurrency stress with a serial oracle
//
// N reader threads race one updater over the hospital document.  Every
// served answer is recorded with the epoch it was computed against; every
// update response records the epoch whose publication included it.  The
// oracle then replays the updates serially — batch by batch, in epoch
// order — on a fresh controller, rebuilding each epoch's snapshot, and
// every recorded answer must match QuerySnapshot against its epoch's
// oracle snapshot exactly.

struct RecordedRead {
  uint64_t epoch;
  size_t subject;
  size_t query;
  bool granted;
  size_t selected;
  size_t accessible;
};

TEST(ServeStressTest, ConcurrentReadsMatchSerialOraclePerEpoch) {
  constexpr size_t kReaders = 4;
  constexpr size_t kReadsPerReader = 120;
  constexpr size_t kUpdaterOps = 24;

  auto server = MakeHospitalServer(SmallOptions(/*workers=*/4,
                                                /*max_batch=*/8));
  ASSERT_TRUE(server->Start().ok());

  std::vector<std::string> queries;
  {
    workload::QueryWorkloadOptions opt;
    opt.count = 24;
    for (const auto& q :
         workload::GenerateQueries(SmallHospital(), opt)) {
      queries.push_back(xpath::ToString(q));
    }
  }

  // Updates: delete patient NNN, then insert a replacement under //patients
  // (keeps the document from draining and exercises both batch-op kinds).
  std::vector<engine::BatchOp> ops;
  for (size_t i = 0; i < kUpdaterOps / 2; ++i) {
    char psn[8];
    std::snprintf(psn, sizeof(psn), "%03d", static_cast<int>(i));
    ops.push_back(engine::BatchOp::Delete(std::string("//patient[psn=\"") +
                                          psn + "\"]"));
    ops.push_back(engine::BatchOp::Insert(
        "//patients", std::string("<patient><psn>5") + psn +
                          "</psn><name>stress test</name></patient>"));
  }

  std::vector<std::vector<RecordedRead>> recorded(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      recorded[r].reserve(kReadsPerReader);
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        size_t s = (r + i) % workload::kHospitalSubjectCount;
        size_t q = (r * 13 + i) % queries.size();
        ServeResponse resp =
            server->Query(workload::kHospitalSubjects[s].subject, queries[q]);
        ASSERT_TRUE(resp.status.ok()) << resp.status;
        recorded[r].push_back({resp.epoch, s, q, resp.granted, resp.selected,
                               resp.accessible});
      }
    });
  }

  // Updates indexed by the epoch that published them; submission order is
  // preserved (single updater, FIFO queue), so within an epoch the oracle
  // replays ops in the exact order the writer applied them.
  std::map<uint64_t, std::vector<engine::BatchOp>> ops_by_epoch;
  std::thread updater([&] {
    for (const engine::BatchOp& op : ops) {
      ServeResponse resp =
          op.kind == engine::BatchOp::Kind::kDelete
              ? server->Update(op.xpath)
              : server->Insert(op.xpath, op.fragment_xml);
      ASSERT_TRUE(resp.status.ok()) << resp.status;
      ops_by_epoch[resp.epoch].push_back(op);
    }
  });

  for (std::thread& t : readers) t.join();
  updater.join();
  uint64_t final_epoch = server->epoch();
  server->Stop();

  // --- Serial replay -----------------------------------------------------
  auto oracle = MakeOracle();
  std::map<uint64_t, SnapshotPtr> oracle_snapshots;
  {
    auto initial = BuildSnapshot(*oracle, 1);
    ASSERT_TRUE(initial.ok()) << initial.status();
    oracle_snapshots[1] = *initial;
  }
  uint64_t epoch = 1;
  for (const auto& [published_epoch, batch] : ops_by_epoch) {
    // Epochs advance by exactly one per published batch, with no gaps.
    ASSERT_EQ(published_epoch, epoch + 1);
    auto applied = oracle->ApplyBatch(batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    epoch = published_epoch;
    auto snap = BuildSnapshot(*oracle, epoch);
    ASSERT_TRUE(snap.ok()) << snap.status();
    oracle_snapshots[epoch] = *snap;
  }
  EXPECT_EQ(epoch, final_epoch);

  size_t checked = 0;
  for (const auto& reader_log : recorded) {
    for (const RecordedRead& read : reader_log) {
      auto it = oracle_snapshots.find(read.epoch);
      ASSERT_NE(it, oracle_snapshots.end())
          << "served answer cites unknown epoch " << read.epoch;
      auto query = xpath::ParsePath(queries[read.query]);
      ASSERT_TRUE(query.ok());
      auto expected = QuerySnapshot(
          *it->second, workload::kHospitalSubjects[read.subject].subject,
          *query);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(read.granted, expected->granted)
          << "epoch " << read.epoch << " subject "
          << workload::kHospitalSubjects[read.subject].subject << " query "
          << queries[read.query];
      EXPECT_EQ(read.selected, expected->selected);
      EXPECT_EQ(read.accessible, expected->accessible);
      ++checked;
    }
  }
  EXPECT_EQ(checked, kReaders * kReadsPerReader);
}

// ---------------------------------------------------------------------------
// Durability (docs/durability.md)

std::string DurableDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/xmlac_serve_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServerOptions DurableOptions(const std::string& dir,
                             uint64_t checkpoint_every = 0) {
  ServerOptions opt = SmallOptions();
  opt.durability.data_dir = dir;
  opt.durability.level = storage::DurabilityLevel::kNone;  // tmpfs-friendly
  opt.durability.checkpoint_every = checkpoint_every;
  return opt;
}

// Answers for every subject over a probe pool, for restart comparisons.
std::map<std::string, std::vector<uint64_t>> ProbeAll(Server* server) {
  const char* kProbes[] = {"//patient", "//patient/name", "//bill",
                           "//treatment", "//staff"};
  std::map<std::string, std::vector<uint64_t>> out;
  for (const std::string& subject : server->SubjectNames()) {
    std::vector<uint64_t>& row = out[subject];
    for (const char* q : kProbes) {
      ServeResponse resp = server->Query(subject, q);
      EXPECT_TRUE(resp.status.ok()) << resp.status;
      row.push_back(resp.granted ? 1 : 0);
      row.push_back(resp.selected);
      row.push_back(resp.accessible);
    }
  }
  return out;
}

TEST(ServeDurabilityTest, RestartRecoversCommittedState) {
  std::string dir = DurableDir("restart");
  std::map<std::string, std::vector<uint64_t>> before;
  {
    auto server = MakeHospitalServer(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    EXPECT_FALSE(server->recovered());
    ASSERT_NE(server->wal(), nullptr);
    ASSERT_TRUE(
        server->Update("//patient[psn=\"001\"]").status.ok());
    ASSERT_TRUE(server
                    ->Insert("//patients",
                             "<patient><psn>990</psn><name>durable</name>"
                             "</patient>")
                    .status.ok());
    before = ProbeAll(server.get());
    server->Stop();
  }
  {
    // No LoadParsed / AddSubject: everything comes back from the data dir.
    auto server = std::make_unique<Server>(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    EXPECT_TRUE(server->recovered());
    EXPECT_EQ(server->SubjectNames().size(),
              workload::kHospitalSubjectCount);
    EXPECT_EQ(ProbeAll(server.get()), before);
    // The recovered server keeps serving updates durably.
    ASSERT_TRUE(server->Update("//patient[psn=\"002\"]").status.ok());
    server->Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeDurabilityTest, CheckpointNowCoversWalTail) {
  std::string dir = DurableDir("checkpoint");
  std::map<std::string, std::vector<uint64_t>> before;
  {
    auto server = MakeHospitalServer(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    ASSERT_TRUE(server->Update("//patient[psn=\"001\"]").status.ok());
    ASSERT_TRUE(server->CheckpointNow().ok());
    // Post-checkpoint updates land in the WAL tail on top of it.
    ASSERT_TRUE(server->Update("//patient[psn=\"003\"]").status.ok());
    before = ProbeAll(server.get());
    server->Stop();
  }
  auto newest = storage::ReadNewestCheckpoint(dir);
  ASSERT_TRUE(newest.ok()) << newest.status();
  {
    auto server = std::make_unique<Server>(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    EXPECT_TRUE(server->recovered());
    EXPECT_EQ(ProbeAll(server.get()), before);
    server->Stop();
  }
  std::filesystem::remove_all(dir);
}

// CheckpointNow racing live writes (and the background checkpointer): the
// job capture runs on the writer thread via a queue barrier and checkpoint
// writes are mutex-serialized, so concurrent manual checkpoints must never
// corrupt the directory or lose committed updates.
TEST(ServeDurabilityTest, CheckpointNowDuringConcurrentWrites) {
  std::string dir = DurableDir("ckpt_concurrent");
  std::map<std::string, std::vector<uint64_t>> before;
  {
    ServerOptions opt = DurableOptions(dir, /*checkpoint_every=*/3);
    opt.durability.segment_bytes = 4096;
    auto server = MakeHospitalServer(opt);
    ASSERT_TRUE(server->Start().ok());
    std::thread writer([&server] {
      for (int i = 0; i < 20; ++i) {
        char psn[16];
        std::snprintf(psn, sizeof(psn), "9%02d", i);
        ServeResponse r = server->Insert(
            "//patients", std::string("<patient><psn>") + psn +
                              "</psn><name>conc</name></patient>");
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
    });
    for (int i = 0; i < 5; ++i) {
      Status s = server->CheckpointNow();
      ASSERT_TRUE(s.ok()) << s;
    }
    writer.join();
    before = ProbeAll(server.get());
    server->Stop();
  }
  {
    auto server = std::make_unique<Server>(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    EXPECT_TRUE(server->recovered());
    EXPECT_EQ(ProbeAll(server.get()), before);
    server->Stop();
  }
  std::filesystem::remove_all(dir);
}

// Once the WAL crashes, in-memory state holds commits clients were told
// are NOT durable — a manual checkpoint must refuse to persist it, same as
// the background scheduling gate.
TEST(ServeDurabilityTest, CheckpointNowRefusesAfterWalCrash) {
  std::string dir = DurableDir("ckpt_crash");
  ServerOptions opt = DurableOptions(dir);
  opt.durability.crash_after_records = 0;  // batch 1 "kills" it
  auto server = MakeHospitalServer(opt);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(server->Update("//patient[psn=\"001\"]").status.ok());
  ASSERT_NE(server->wal(), nullptr);
  ASSERT_TRUE(server->wal()->crashed());
  EXPECT_FALSE(server->CheckpointNow().ok());
  server->Stop();
  std::filesystem::remove_all(dir);
}

TEST(ServeDurabilityTest, BackgroundCheckpointerTruncatesSegments) {
  std::string dir = DurableDir("bg_checkpoint");
  {
    ServerOptions opt = DurableOptions(dir, /*checkpoint_every=*/2);
    opt.durability.segment_bytes = 4096;  // several rolls over the run
    auto server = MakeHospitalServer(opt);
    ASSERT_TRUE(server->Start().ok());
    for (int i = 1; i <= 10; ++i) {
      char psn[16];
      std::snprintf(psn, sizeof(psn), "%03d", i);
      ASSERT_TRUE(
          server->Update(std::string("//patient[psn=\"") + psn + "\"]")
              .status.ok());
    }
    server->Stop();  // joins the checkpointer
  }
  // At least one background checkpoint must have been written.
  auto newest = storage::ReadNewestCheckpoint(dir);
  ASSERT_TRUE(newest.ok()) << newest.status();
  EXPECT_GT(newest->epoch, 1u);
  // And the directory still recovers to the full committed state.
  auto server = std::make_unique<Server>(DurableOptions(dir));
  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(server->recovered());
  ServeResponse resp = server->Query(
      workload::kHospitalSubjects[0].subject, "//patient");
  EXPECT_TRUE(resp.status.ok());
  server->Stop();
  std::filesystem::remove_all(dir);
}

// A fresh durable start writes its genesis state as the epoch-1
// checkpoint: the WAL holds batch records only, and a restart with no
// commit in between recovers epoch 1 from the checkpoint alone.
TEST(ServeDurabilityTest, FreshStartWritesGenesisCheckpoint) {
  std::string dir = DurableDir("genesis");
  {
    auto server = MakeHospitalServer(DurableOptions(dir));
    ASSERT_TRUE(server->Start().ok());
    EXPECT_FALSE(server->recovered());
    server->Stop();
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint-000000000001.ckpt"));
  auto contents = storage::ReadWalDir(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->records.size(), 0u);
  EXPECT_GE(contents->segments, 1u);

  auto server = std::make_unique<Server>(DurableOptions(dir));
  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(server->recovered());
  EXPECT_EQ(server->epoch(), 1u);
  EXPECT_EQ(server->SubjectNames().size(), workload::kHospitalSubjectCount);
  server->Stop();
  std::filesystem::remove_all(dir);
}

std::vector<std::string> DirListing(const std::string& dir) {
  auto names = ListFiles(dir);
  EXPECT_TRUE(names.ok()) << names.status();
  if (!names.ok()) return {};
  std::sort(names->begin(), names->end());
  return *names;
}

void FlipByte(const std::string& path, size_t offset) {
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_LT(offset, bytes->size());
  std::string damaged = *bytes;
  damaged[offset] = static_cast<char>(damaged[offset] ^ 0x20);
  ASSERT_TRUE(WriteFile(path, damaged).ok());
}

// Restarts `dir` the way an operator would (same configuration, durable
// state expected to take over) and requires the start to be refused,
// counted, and to leave the directory exactly as it was: nothing is acked
// on top of the damage, by this start or the next.
void ExpectRestartRefused(const std::string& dir, const ServerOptions& opt,
                          const std::string& why) {
  const std::vector<std::string> before = DirListing(dir);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto server = MakeHospitalServer(opt);
    Status started = server->Start();
    ASSERT_FALSE(started.ok()) << "attempt " << attempt << " came back at epoch "
                               << server->epoch();
    EXPECT_EQ(started.code(), StatusCode::kInternal);
    EXPECT_NE(started.message().find(why), std::string::npos) << started;
    EXPECT_FALSE(server->recovered());
    EXPECT_FALSE(server->running());
    EXPECT_EQ(server->SnapshotMetrics().counters["serve.recovery.refused"], 1u);
    EXPECT_EQ(DirListing(dir), before);
  }
}

// Acked commits past the last checkpoint, whose covered segments are
// truncated, then every checkpoint damaged: there is no base to replay the
// WAL onto, so the restart is refused — not a fresh start at epoch 1.
TEST(ServeDurabilityTest, DamagedCheckpointRefusesStart) {
  std::string dir = DurableDir("damaged_checkpoint");
  ServerOptions opt = DurableOptions(dir);
  opt.durability.segment_bytes = 4096;
  {
    auto server = MakeHospitalServer(opt);
    ASSERT_TRUE(server->Start().ok());
    for (int i = 1; i <= 10; ++i) {
      char psn[16];
      std::snprintf(psn, sizeof(psn), "%03d", i);
      ASSERT_TRUE(
          server->Update(std::string("//patient[psn=\"") + psn + "\"]")
              .status.ok());
    }
    ASSERT_TRUE(server->CheckpointNow().ok());
    ASSERT_TRUE(server->Update("//patient[psn=\"011\"]").status.ok());
    EXPECT_EQ(server->epoch(), 12u);
    server->Stop();
  }
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/checkpoint-000000000001.ckpt"));
  size_t damaged = 0;
  for (const std::string& name : DirListing(dir)) {
    uint64_t epoch = 0;
    if (!storage::ParseCheckpointFileName(name, &epoch)) continue;
    FlipByte(dir + "/" + name, 20);
    ++damaged;
  }
  ASSERT_GE(damaged, 1u);
  ExpectRestartRefused(dir, opt, "no valid checkpoint");
  std::filesystem::remove_all(dir);
}

// A flipped byte in a sealed WAL segment hides every acked commit after
// it: the restart is refused, naming the segment, instead of serving the
// prefix and appending new commits after the damage.
TEST(ServeDurabilityTest, DamagedSealedSegmentRefusesStart) {
  std::string dir = DurableDir("damaged_segment");
  ServerOptions opt = DurableOptions(dir);
  opt.durability.segment_bytes = 512;
  {
    auto server = MakeHospitalServer(opt);
    ASSERT_TRUE(server->Start().ok());
    for (int i = 1; i <= 10; ++i) {
      char psn[16];
      std::snprintf(psn, sizeof(psn), "%03d", i);
      ASSERT_TRUE(
          server->Update(std::string("//patient[psn=\"") + psn + "\"]")
              .status.ok());
    }
    server->Stop();
  }
  auto contents = storage::ReadWalDir(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_GE(contents->segments, 3u);
  // The second segment's first frame fails its CRC.
  FlipByte(dir + "/" + storage::SegmentFileName(2), 5);
  ExpectRestartRefused(dir, opt, storage::SegmentFileName(2));
  std::filesystem::remove_all(dir);
}

// Two servers on one data dir would each append to the WAL and checkpoint
// over the other's acked commits; the second one must not start while the
// first holds the dir, and must start once the first has stopped.
TEST(ServeDurabilityTest, SecondServerOnLockedDataDirFailsToStart) {
  std::string dir = DurableDir("locked");
  ServerOptions opt = DurableOptions(dir);
  auto first = MakeHospitalServer(opt);
  ASSERT_TRUE(first->Start().ok());
  ASSERT_TRUE(first->Update("//patient[psn=\"001\"]").status.ok());
  const std::vector<std::string> before = DirListing(dir);
  EXPECT_NE(std::find(before.begin(), before.end(), "LOCK"), before.end());

  auto second = MakeHospitalServer(opt);
  Status started = second->Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kAlreadyExists) << started;
  EXPECT_NE(started.message().find(dir), std::string::npos) << started;
  EXPECT_FALSE(second->running());
  EXPECT_FALSE(second->recovered());
  EXPECT_EQ(second->SnapshotMetrics().counters["serve.data_dir.locked"], 1u);
  EXPECT_EQ(second->SnapshotMetrics().counters["serve.recovery.refused"], 0u);
  EXPECT_EQ(DirListing(dir), before);
  // The first server is unaffected and keeps committing.
  ASSERT_TRUE(first->Update("//patient[psn=\"002\"]").status.ok());
  const std::map<std::string, std::vector<uint64_t>> committed =
      ProbeAll(first.get());
  first->Stop();

  // Once the first server has stopped, the same second server starts and
  // recovers everything the first one acked.
  ASSERT_TRUE(second->Start().ok());
  EXPECT_TRUE(second->recovered());
  EXPECT_EQ(second->epoch(), 3u);
  EXPECT_EQ(ProbeAll(second.get()), committed);
  second->Stop();
  std::filesystem::remove_all(dir);
}

TEST(ServeDurabilityTest, NoDataDirMeansNoWal) {
  auto server = MakeHospitalServer(SmallOptions());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_EQ(server->wal(), nullptr);
  EXPECT_FALSE(server->recovered());
  server->Stop();
}

}  // namespace
}  // namespace xmlac::serve
