// Shard-parallel execution (common/shard.h): the exchange-style fan-out /
// order-preserving-merge layer must be invisible in results — byte-identical
// output for ANY shard count, on every path that shards (structural eval,
// labeling) — while the plumbing
// (PlanShards, the worker ring pool) obeys its local contracts.  The
// ParallelFor pool itself is covered by parallel_test.

#include "common/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "obs/ring.h"
#include "workload/coverage.h"
#include "workload/hospital.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/structural_eval.h"
#include "xpath/structural_index.h"

namespace xmlac {
namespace {

using engine::AccessController;
using engine::UniversalId;
using xml::NodeId;

// ----- PlanShards --------------------------------------------------------

TEST(PlanShardsTest, EmptyInputYieldsNoShards) {
  ShardConfig config;
  EXPECT_TRUE(PlanShards(0, config).empty());
}

TEST(PlanShardsTest, DisabledYieldsOneShard) {
  ShardConfig config;
  config.enabled = false;
  config.threads = 8;
  auto ranges = PlanShards(1000, config);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 1000u);
}

TEST(PlanShardsTest, BelowMinWorkStaysSerial) {
  ShardConfig config;
  config.threads = 8;
  config.min_work = 512;
  EXPECT_EQ(PlanShards(511, config).size(), 1u);
  EXPECT_GT(PlanShards(512, config).size(), 1u);
}

TEST(PlanShardsTest, MinWorkSentinelUsesCallSiteDefault) {
  ShardConfig config;
  config.threads = 8;
  config.min_work = 0;  // sentinel: the call site's default applies
  EXPECT_EQ(PlanShards(100, config, /*default_min_work=*/256).size(), 1u);
  EXPECT_GT(PlanShards(300, config, /*default_min_work=*/256).size(), 1u);
  // An explicit min_work overrides the default in both directions.
  config.min_work = 1;
  EXPECT_GT(PlanShards(100, config, /*default_min_work=*/256).size(), 1u);
}

TEST(PlanShardsTest, WorkEstimateDecidesNotInputSize) {
  ShardConfig config;
  config.threads = 4;
  // A small input carrying much work shards; a large cheap one does not.
  EXPECT_EQ(PlanShards(10, /*work=*/5000, config, 2900).size(), 4u);
  EXPECT_EQ(PlanShards(10000, /*work=*/100, config, 2900).size(), 1u);
  // min_work still overrides the call site's threshold both ways.
  config.min_work = 1;
  EXPECT_EQ(PlanShards(10000, /*work=*/100, config, 2900).size(), 4u);
  config.min_work = 10000;
  EXPECT_EQ(PlanShards(10, /*work=*/5000, config, 2900).size(), 1u);
}

TEST(PlanShardsTest, RangesAreContiguousAndCoverInput) {
  for (size_t n : {1u, 2u, 7u, 64u, 1000u, 4097u}) {
    for (size_t threads : {1u, 2u, 3u, 7u, 16u, 64u}) {
      ShardConfig config;
      config.threads = threads;
      config.min_work = 1;
      auto ranges = PlanShards(n, config);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(ranges.size(), std::min(threads, n));
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, n);
      for (size_t i = 0; i + 1 < ranges.size(); ++i) {
        EXPECT_EQ(ranges[i].end, ranges[i + 1].begin);
        EXPECT_GT(ranges[i].size(), 0u);
      }
    }
  }
}

// ----- Worker ring pool --------------------------------------------------

TEST(WorkerRingPoolTest, AcquireReleaseCycle) {
  obs::EventRing a(64), b(64);
  obs::WorkerRingPool pool;
  pool.Add(&a);
  pool.Add(&b);
  obs::EventRing* r1 = pool.TryAcquire();
  obs::EventRing* r2 = pool.TryAcquire();
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_NE(r1, r2);
  EXPECT_EQ(pool.TryAcquire(), nullptr);  // dry
  pool.Release(r1);
  EXPECT_EQ(pool.TryAcquire(), r1);
  pool.Release(nullptr);  // no-op
}

TEST(WorkerRingPoolTest, ParallelForWorkersRecordIntoPoolRings) {
  // The satellite gap this closes: spans inside ParallelFor workers used to
  // vanish because workers had no ring.  With a pool installed, every body
  // invocation lands in SOME ring: the caller's own, or a claimed pool ring.
  constexpr size_t kN = 200;
  obs::EventRing caller_ring(1024);
  obs::EventRing pool_a(1024), pool_b(1024), pool_c(1024);
  obs::WorkerRingPool pool;
  pool.Add(&pool_a);
  pool.Add(&pool_b);
  pool.Add(&pool_c);
  const uint16_t name = obs::InternName("shard-test-event");
  {
    obs::ScopedRing ring_ctx(&caller_ring);
    obs::ScopedWorkerRingPool pool_ctx(&pool);
    ParallelFor(kN, /*threads=*/4, /*grain=*/1, [&](size_t i) {
      obs::EmitEvent(obs::EventType::kInstant, name, i);
    });
  }
  uint64_t total = caller_ring.appended() + pool_a.appended() +
                   pool_b.appended() + pool_c.appended();
  EXPECT_EQ(total, kN);
  // Drained events carry the payloads 0..kN-1 exactly once each.
  std::vector<obs::Event> events;
  for (obs::EventRing* r : {&caller_ring, &pool_a, &pool_b, &pool_c}) {
    EXPECT_EQ(r->Drain(&events), 0u);
  }
  std::set<uint64_t> args;
  for (const obs::Event& e : events) {
    EXPECT_EQ(e.name, name);
    args.insert(e.arg);
  }
  EXPECT_EQ(args.size(), kN);
}

// ----- Structural evaluation: sharded == serial == naive ------------------

xpath::Path MustParse(std::string_view expr) {
  auto p = xpath::ParsePath(expr);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

// Forced shard counts: results must be byte-identical for 1, 2, 7 and 16
// shards (min_work=1 engages the fan-out even on small contexts).
TEST(StructuralEvalShardTest, ShardCountsProduceIdenticalResults) {
  workload::XmarkGenerator gen;
  workload::XmarkOptions xopt;
  xopt.factor = 0.02;
  xopt.seed = 9;
  xml::Document doc = gen.Generate(xopt);
  xpath::StructuralIndex index(&doc);
  index.Publish();
  ASSERT_TRUE(index.ReadyFor(doc));
  const xpath::IndexVersion& version = *index.current();

  workload::QueryWorkloadOptions qopt;
  qopt.count = 40;
  qopt.seed = 31;
  std::vector<xpath::Path> queries = workload::GenerateQueries(doc, qopt);
  ASSERT_FALSE(queries.empty());
  for (const xpath::Path& q : queries) {
    std::vector<NodeId> naive = xpath::Evaluate(q, doc);
    std::vector<NodeId> serial = xpath::EvaluateStructural(q, doc, version);
    EXPECT_EQ(serial, naive) << xpath::ToString(q);
    for (size_t shards : {1u, 2u, 7u, 16u}) {
      ShardConfig config;
      config.threads = shards;
      config.min_work = 1;
      std::vector<NodeId> sharded =
          xpath::EvaluateStructural(q, doc, version, config);
      EXPECT_EQ(sharded, serial)
          << xpath::ToString(q) << " with " << shards << " shards";
    }
  }
}

TEST(StructuralEvalShardTest, EvaluateFromMatchesSerial) {
  workload::HospitalGenerator gen;
  workload::HospitalOptions hopt;
  hopt.departments = 3;
  hopt.patients_per_department = 40;
  xml::Document doc = gen.Generate(hopt);
  xpath::StructuralIndex index(&doc);
  index.Publish();
  const xpath::IndexVersion& version = *index.current();
  xpath::Path rel = MustParse("//patient/name");
  // Evaluate the relative tail from a few context nodes.
  std::vector<NodeId> contexts = xpath::Evaluate(MustParse("//dept"), doc);
  ASSERT_FALSE(contexts.empty());
  ShardConfig config;
  config.threads = 7;
  config.min_work = 1;
  for (NodeId ctx : contexts) {
    std::vector<NodeId> serial =
        xpath::EvaluateFromStructural(rel, doc, ctx, version);
    std::vector<NodeId> sharded =
        xpath::EvaluateFromStructural(rel, doc, ctx, version, config);
    EXPECT_EQ(sharded, serial);
  }
}

// ----- Labeling: sharded == serial ---------------------------------------

TEST(LabelingShardTest, ShardedLabelsAreByteIdentical) {
  workload::XmarkGenerator gen;
  workload::XmarkOptions xopt;
  xopt.factor = 0.02;
  xopt.seed = 5;
  xml::Document doc = gen.Generate(xopt);
  std::vector<xpath::IntervalLabel> serial = xpath::ComputeIntervalLabels(doc);
  for (size_t shards : {1u, 2u, 7u, 16u}) {
    ShardConfig config;
    config.threads = shards;
    config.min_work = 1;
    std::vector<xpath::IntervalLabel> sharded =
        xpath::ComputeIntervalLabels(doc, config);
    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i].start, serial[i].start) << "node " << i;
      EXPECT_EQ(sharded[i].end, serial[i].end) << "node " << i;
      EXPECT_EQ(sharded[i].level, serial[i].level) << "node " << i;
    }
  }
}

// ----- Controller end to end: shard on == shard off ----------------------

TEST(ControllerShardTest, SignsAndOutcomesMatchSerial) {
  workload::HospitalGenerator gen;
  workload::HospitalOptions hopt;
  hopt.departments = 3;
  hopt.patients_per_department = 30;
  xml::Document doc = gen.Generate(hopt);
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  workload::CoverageOptions copt;
  copt.target = 0.4;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  ASSERT_TRUE(policy.ok()) << policy.status();

  auto make = [&](bool shard_on) {
    engine::ControllerOptions options;
    options.shard_parallel = shard_on;
    options.shard_threads = shard_on ? 7 : 0;
    auto ac = std::make_unique<AccessController>(
        std::make_unique<engine::NativeXmlBackend>(), options);
    EXPECT_TRUE(ac->LoadParsed(*dtd, doc).ok());
    EXPECT_TRUE(ac->SetPolicyParsed(*policy).ok());
    return ac;
  };
  auto sharded = make(true);
  auto serial = make(false);

  for (NodeId id : doc.AllElements()) {
    auto a = sharded->backend()->GetSign(static_cast<UniversalId>(id));
    auto b = serial->backend()->GetSign(static_cast<UniversalId>(id));
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) EXPECT_EQ(*a, *b) << "node " << id;
  }

  for (const char* q : {"//patient", "//patient/name", "//dept/staffinfo",
                        "//treatment", "/hospital/dept"}) {
    auto a = sharded->Query(q);
    auto b = serial->Query(q);
    ASSERT_EQ(a.ok(), b.ok()) << q;
    if (a.ok()) {
      EXPECT_EQ(a->granted, b->granted) << q;
      EXPECT_EQ(a->selected, b->selected) << q;
      EXPECT_EQ(a->accessible, b->accessible) << q;
    }
  }

  // Updates drive the sharded re-annotation + index rebuild paths.
  auto ua = sharded->Update("//patient/treatment");
  auto ub = serial->Update("//patient/treatment");
  ASSERT_EQ(ua.ok(), ub.ok());
  if (ua.ok()) EXPECT_EQ(ua->nodes_deleted, ub->nodes_deleted);
  for (NodeId id : doc.AllElements()) {
    auto a = sharded->backend()->GetSign(static_cast<UniversalId>(id));
    auto b = serial->backend()->GetSign(static_cast<UniversalId>(id));
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) EXPECT_EQ(*a, *b) << "post-update node " << id;
  }
}

}  // namespace
}  // namespace xmlac
