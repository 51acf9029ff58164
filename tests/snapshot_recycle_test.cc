// Recycled snapshot documents (serve::SnapshotBuilder) against the
// from-scratch reference build (serve::BuildSnapshot), and the release side
// of publication (SnapshotSlot, the document pool's lifetime).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "workload/hospital.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xmlac::serve {
namespace {

xml::Document SmallHospital() {
  workload::HospitalOptions opt;
  opt.departments = 2;
  opt.patients_per_department = 12;
  return workload::HospitalGenerator().Generate(opt);
}

// Default-allow policies, so a fleet mixes both default signs and a policy
// swap can flip one.
constexpr const char* kAllowPolicies[] = {
    R"(
default allow
conflict deny
deny //patient[treatment]
deny //bill
)",
    R"(
default allow
conflict allow
deny //experimental
allow //experimental/bill
)",
};

const char* PolicyFor(size_t i) {
  if (i % 4 == 3) return kAllowPolicies[(i / 4) % 2];
  return workload::kHospitalSubjects[i % workload::kHospitalSubjectCount]
      .policy_text;
}

std::string SubjectName(size_t i) { return "s" + std::to_string(i); }

uint64_t Counter(obs::MetricsRegistry& metrics, const std::string& name) {
  return metrics.counter(name)->value();
}

// Every view of `got` must equal the same subject's view of the reference
// build: serialization (tree and signs), default sign, structural version
// and arena size, and the shared IndexVersion must match it.
void ExpectSameViews(const Snapshot& got, const Snapshot& want,
                     const std::string& where) {
  ASSERT_EQ(got.subjects.size(), want.subjects.size()) << where;
  for (const auto& [name, ref] : want.subjects) {
    auto it = got.subjects.find(name);
    ASSERT_NE(it, got.subjects.end()) << where << " " << name;
    const SubjectView& view = it->second;
    EXPECT_EQ(view.default_sign, ref.default_sign) << where << " " << name;
    EXPECT_EQ(view.doc->version(), ref.doc->version()) << where << " " << name;
    EXPECT_EQ(view.doc->size(), ref.doc->size()) << where << " " << name;
    ASSERT_NE(view.index, nullptr) << where << " " << name;
    EXPECT_TRUE(view.index->Matches(*view.doc)) << where << " " << name;
    EXPECT_EQ(xml::Serialize(*view.doc), xml::Serialize(*ref.doc))
        << where << " " << name;
  }
}

std::string Digest(const Snapshot& snapshot) {
  std::string out;
  for (const auto& [name, view] : snapshot.subjects) {
    out += name + ' ' + view.default_sign + ' ' +
           std::to_string(view.doc->version()) + '\n' +
           xml::Serialize(*view.doc) + '\n';
  }
  return out;
}

// A random batch of 1-3 inserts and deletes over the hospital document.
std::vector<engine::BatchOp> RandomBatch(std::mt19937_64& rng, int* next_psn) {
  std::vector<engine::BatchOp> ops;
  const int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    switch (rng() % 5) {
      case 0:
      case 1: {
        const std::string psn = std::to_string(900 + (*next_psn)++);
        std::string fragment = "<patient><psn>" + psn +
                               "</psn><name>new patient</name>";
        if (rng() % 2 == 0) {
          fragment += "<treatment><regular><med>celecoxib</med><bill>" +
                      std::to_string(100 + rng() % 2000) +
                      "</bill></regular></treatment>";
        } else if (rng() % 2 == 0) {
          fragment +=
              "<treatment><experimental><test>mri scan</test><bill>700"
              "</bill></experimental></treatment>";
        }
        fragment += "</patient>";
        ops.push_back(engine::BatchOp::Insert("//patients", fragment));
        break;
      }
      case 2: {
        char psn[8];
        std::snprintf(psn, sizeof(psn), "%03d", static_cast<int>(rng() % 24));
        ops.push_back(engine::BatchOp::Delete(std::string("//patient[psn=\"") +
                                              psn + "\"]"));
        break;
      }
      case 3:
        ops.push_back(engine::BatchOp::Delete(
            "//patient[psn=\"" + std::to_string(900 + rng() % 40) + "\"]"));
        break;
      default:
        ops.push_back(engine::BatchOp::Delete(
            rng() % 2 == 0 ? "//patient[psn=\"" +
                                 std::to_string(900 + rng() % 40) +
                                 "\"]/treatment"
                           : "//experimental"));
        break;
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// SnapshotSlot

// store() drops the displaced snapshot after unlocking: with that
// snapshot's destruction blocked in its deleter, a reader's load() still
// returns, and sees the new snapshot.
TEST(SnapshotSlotTest, LoadReturnsWhileDisplacedSnapshotIsDestroyed) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SnapshotSlot slot;
  {
    auto first = new Snapshot;
    first->epoch = 1;
    slot.store(SnapshotPtr(first, [&entered, released](const Snapshot* s) {
      entered.set_value();
      released.wait();
      delete s;
    }));
  }
  std::thread writer([&slot] {
    auto second = std::make_shared<Snapshot>();
    second->epoch = 2;
    slot.store(std::move(second));
  });
  entered.get_future().wait();
  auto reader = std::async(std::launch::async, [&slot] { return slot.load(); });
  const bool returned =
      reader.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  writer.join();
  ASSERT_TRUE(returned) << "load() waited on the displaced snapshot's free";
  SnapshotPtr loaded = reader.get();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->epoch, 2u);
}

// ---------------------------------------------------------------------------
// Differential: recycled views == from-scratch views, at every epoch

TEST(SnapshotRecycleTest, RecycledViewsMatchFromScratchBuild) {
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    obs::MetricsRegistry metrics;
    obs::ScopedObsContext obs_ctx(&metrics, nullptr);
    engine::MultiSubjectController fleet(
        [] { return std::make_unique<engine::NativeXmlBackend>(); });
    ASSERT_TRUE(fleet.LoadParsed(*dtd, SmallHospital()).ok());
    const size_t subjects = 2 + static_cast<size_t>(seed);  // 3..8
    for (size_t i = 0; i + 1 < subjects; ++i) {
      ASSERT_TRUE(fleet.AddSubject(SubjectName(i), PolicyFor(i)).ok());
    }

    SnapshotBuilder builder;
    auto first = builder.Build(fleet, 1);
    ASSERT_TRUE(first.ok()) << first.status();
    SnapshotPtr current = std::move(*first);
    SnapshotPtr pinned;  // a reader holding an older snapshot for a while
    int next_psn = 0;
    constexpr uint64_t kEpochs = 24;
    for (uint64_t epoch = 2; epoch <= kEpochs; ++epoch) {
      const std::string where = "epoch " + std::to_string(epoch);
      if (epoch == 8) {
        // A subject joins mid-stream: its first view is a clone.
        ASSERT_TRUE(fleet
                        .AddSubject(SubjectName(subjects - 1),
                                    PolicyFor(subjects - 1))
                        .ok());
      }
      if (epoch == 14) {
        // Subject 0 swaps to a policy with the other default sign.
        const char flipped_from = fleet.subject("s0")->CurrentDefaultSign();
        ASSERT_TRUE(fleet.subject("s0")->SetPolicy(kAllowPolicies[0]).ok());
        ASSERT_NE(fleet.subject("s0")->CurrentDefaultSign(), flipped_from);
      }
      auto stats = fleet.ApplyBatch(RandomBatch(rng, &next_psn));
      ASSERT_TRUE(stats.ok()) << where << ": " << stats.status();
      if (pinned == nullptr && rng() % 5 == 0) pinned = current;
      auto built = builder.Build(fleet, epoch);
      ASSERT_TRUE(built.ok()) << where << ": " << built.status();
      current = std::move(*built);  // drops the superseded snapshot
      if (pinned != nullptr && rng() % 3 == 0) pinned.reset();
      builder.FreeSurplus();
      Result<SnapshotPtr> reference = Status::Internal("not built");
      {
        // The reference build's clones are not the builder's.
        obs::MetricsRegistry reference_metrics;
        obs::ScopedObsContext reference_ctx(&reference_metrics, nullptr);
        reference = BuildSnapshot(fleet, epoch);
      }
      ASSERT_TRUE(reference.ok()) << reference.status();
      ExpectSameViews(*current, **reference, where);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(Counter(metrics, "serve.snapshot.docs_recycled"), 0u);
    EXPECT_GE(Counter(metrics, "serve.snapshot.docs_cloned.default_sign"), 1u);
    EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_cloned.lineage"), 0u);
    EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_cloned.journal_window"),
              0u);
    EXPECT_EQ(Counter(metrics, "serve.snapshot.recycle_mismatch"), 0u);
    EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_cloned"),
              Counter(metrics, "serve.snapshot.docs_cloned.pinned") +
                  Counter(metrics, "serve.snapshot.docs_cloned.default_sign"));
  }
}

// A document returned after the store was re-loaded belongs to another
// lineage: the next build clones instead of replaying a foreign journal.
TEST(SnapshotRecycleTest, ReloadedStoreIsALineageFallback) {
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  obs::MetricsRegistry metrics;
  obs::ScopedObsContext obs_ctx(&metrics, nullptr);
  engine::MultiSubjectController fleet(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  ASSERT_TRUE(fleet.LoadParsed(*dtd, SmallHospital()).ok());
  ASSERT_TRUE(fleet.AddSubject("s0", PolicyFor(0)).ok());
  SnapshotBuilder builder;
  auto first = builder.Build(fleet, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  // Reload while the snapshot is alive; it retires into the pool after the
  // next build set the new lineage, so it is freed on return, and a
  // document pooled before the reload is a lineage fallback.
  auto second = builder.Build(fleet, 2);
  ASSERT_TRUE(second.ok()) << second.status();
  first->reset();  // pooled under the old lineage
  fleet.Reset();
  ASSERT_TRUE(fleet.LoadParsed(*dtd, SmallHospital()).ok());
  ASSERT_TRUE(fleet.AddSubject("s0", PolicyFor(0)).ok());
  auto third = builder.Build(fleet, 3);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_cloned.lineage"), 1u);
  second->reset();  // old lineage: freed on return, never pooled
  auto fourth = builder.Build(fleet, 4);
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_cloned.pinned"), 3u);
  EXPECT_EQ(Counter(metrics, "serve.snapshot.docs_recycled"), 0u);
  auto reference = BuildSnapshot(fleet, 4);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameViews(**fourth, **reference, "after reload");
}

// ---------------------------------------------------------------------------
// Through the server

std::unique_ptr<Server> MakeServer(ServerOptions options = {}) {
  options.workers = 2;
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  auto server = std::make_unique<Server>(options);
  EXPECT_TRUE(server->LoadParsed(*dtd, SmallHospital()).ok());
  for (size_t i = 0; i < workload::kHospitalSubjectCount; ++i) {
    EXPECT_TRUE(server
                    ->AddSubject(workload::kHospitalSubjects[i].subject,
                                 workload::kHospitalSubjects[i].policy_text)
                    .ok());
  }
  return server;
}

ServeResponse Commit(Server& server, int i) {
  if (i % 2 == 0) {
    return server.Insert("//patients",
                         "<patient><psn>" + std::to_string(950 + i) +
                             "</psn><name>x</name><treatment><regular><med>"
                             "metformin</med><bill>120</bill></regular>"
                             "</treatment></patient>");
  }
  char psn[8];
  std::snprintf(psn, sizeof(psn), "%03d", i);
  return server.Update(std::string("//patient[psn=\"") + psn + "\"]");
}

// Once two commits have retired the first two snapshots, every view of
// every later commit is a recycled document: docs_cloned stops growing.
TEST(SnapshotRecycleTest, SteadyStateCommitsCloneNothing) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start().ok());
  const uint64_t subjects = workload::kHospitalSubjectCount;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(Commit(*server, i).status.ok());
  ServerHealth health = server->HealthSnapshot();
  // Start's snapshot and commit 1's were built while nothing had retired.
  EXPECT_EQ(health.snapshot_docs.cloned, 2 * subjects);
  EXPECT_EQ(health.snapshot_docs.cloned_pinned, 2 * subjects);
  EXPECT_EQ(health.snapshot_docs.recycled, subjects);
  for (int i = 2; i < 8; ++i) {
    ASSERT_TRUE(Commit(*server, i).status.ok()) << i;
  }
  health = server->HealthSnapshot();
  EXPECT_EQ(health.snapshot_docs.cloned, 2 * subjects);
  EXPECT_EQ(health.snapshot_docs.recycled, 7 * subjects);
  EXPECT_EQ(health.snapshot_docs.recycle_mismatch, 0u);
  const std::string text = HealthText(health);
  EXPECT_NE(text.find("serve.snapshot.docs_recycled " +
                      std::to_string(7 * subjects) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve.snapshot.docs_cloned.journal_window 0\n"),
            std::string::npos)
      << text;

  // The served views equal a from-scratch build of the same state.
  SnapshotPtr served = server->CurrentSnapshot();
  engine::MultiSubjectController reference(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok());
  ASSERT_TRUE(reference.LoadParsed(*dtd, SmallHospital()).ok());
  for (size_t i = 0; i < workload::kHospitalSubjectCount; ++i) {
    ASSERT_TRUE(reference
                    .AddSubject(workload::kHospitalSubjects[i].subject,
                                workload::kHospitalSubjects[i].policy_text)
                    .ok());
  }
  for (int i = 0; i < 8; ++i) {
    const std::string psn = [i] {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%03d", i);
      return std::string(buf);
    }();
    std::vector<engine::BatchOp> op;
    if (i % 2 == 0) {
      op.push_back(engine::BatchOp::Insert(
          "//patients", "<patient><psn>" + std::to_string(950 + i) +
                            "</psn><name>x</name><treatment><regular><med>"
                            "metformin</med><bill>120</bill></regular>"
                            "</treatment></patient>"));
    } else {
      op.push_back(engine::BatchOp::Delete("//patient[psn=\"" + psn + "\"]"));
    }
    ASSERT_TRUE(reference.ApplyBatch(op).ok());
  }
  auto want = BuildSnapshot(reference, served->epoch);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameViews(*served, **want, "served");
  server->Stop();
}

// A reader pinning a snapshot across five commits keeps its documents
// byte-identical: no build rewrites a document somebody still holds.
TEST(SnapshotRecycleTest, PinnedSnapshotKeepsItsDigest) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(Commit(*server, i).status.ok());
  SnapshotPtr pinned = server->CurrentSnapshot();
  const std::string before = Digest(*pinned);
  for (int i = 3; i < 8; ++i) ASSERT_TRUE(Commit(*server, i).status.ok());
  EXPECT_EQ(Digest(*pinned), before);
  EXPECT_GT(server->CurrentSnapshot()->epoch, pinned->epoch + 4);
  // The pinned views were not available, so exactly one build cloned them.
  EXPECT_EQ(server->HealthSnapshot().snapshot_docs.cloned,
            3 * workload::kHospitalSubjectCount);
  pinned.reset();
  server->Stop();
}

// A snapshot that outlives its server frees its documents itself (the pool
// is closed); under ASan this is the use-after-free / leak check.
TEST(SnapshotRecycleTest, SnapshotOutlivesItsServer) {
  SnapshotPtr kept;
  {
    auto server = MakeServer();
    ASSERT_TRUE(server->Start().ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(Commit(*server, i).status.ok());
    kept = server->CurrentSnapshot();
    server->Stop();
  }
  auto query = xpath::ParsePath("//patient/name");
  ASSERT_TRUE(query.ok());
  for (const auto& [name, view] : kept->subjects) {
    auto outcome = QuerySnapshot(*kept, name, *query);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  kept.reset();
}

// A catch-up that leaves the document behind the store is refused loudly:
// Internal, counted, nothing published, and no silent re-clone.
TEST(SnapshotRecycleTest, MismatchedCatchUpIsInternalNotPublished) {
  ServerOptions options;
  options.inject_recycle_skip_delete = true;
  auto server = MakeServer(options);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(Commit(*server, 0).status.ok());  // insert: clones
  ASSERT_TRUE(Commit(*server, 2).status.ok());  // insert: recycles
  const uint64_t epoch = server->epoch();
  const uint64_t cloned = server->HealthSnapshot().snapshot_docs.cloned;
  ServeResponse failed = Commit(*server, 1);  // delete: replay skips it
  EXPECT_EQ(failed.status.code(), StatusCode::kInternal) << failed.status;
  EXPECT_EQ(server->epoch(), epoch);
  EXPECT_EQ(server->CurrentSnapshot()->epoch, epoch);
  const ServerHealth health = server->HealthSnapshot();
  EXPECT_EQ(health.snapshot_docs.recycle_mismatch, 1u);
  EXPECT_EQ(health.snapshot_docs.cloned, cloned);
  server->Stop();
}

}  // namespace
}  // namespace xmlac::serve
