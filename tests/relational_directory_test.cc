// The relational backend's id directory (universal id → table, row): it
// must equal a directory rebuilt from a catalog scan after every load,
// insert and delete, and GetSign and SetSigns must read through it —
// NotFound (GetSign) or nothing to update (SetSigns) for ids without a
// tuple, a loud Internal for an entry a foreign SQL statement made stale,
// and the same answers with or without the id/pid hash indexes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/relational_backend.h"
#include "obs/metrics.h"
#include "testing/generators.h"
#include "tests/testdata.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xmlac::engine {
namespace {

using StoreParams = std::tuple<reldb::StorageKind, bool>;

RelationalOptions Options(const StoreParams& p) {
  RelationalOptions opt;
  opt.storage = std::get<0>(p);
  opt.interval_columns = std::get<1>(p);
  return opt;
}

std::string ParamName(const ::testing::TestParamInfo<StoreParams>& info) {
  std::string out = std::get<0>(info.param) == reldb::StorageKind::kRowStore
                        ? "Row"
                        : "Column";
  return out + (std::get<1>(info.param) ? "Intervals" : "Chains");
}

xpath::Path MustParse(const std::string& text) {
  auto p = xpath::ParsePath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return p.ok() ? std::move(*p) : xpath::Path{};
}

// Hospital DTD + document (paper Figs. 1-2) loaded into `backend`.
void LoadHospital(RelationalBackend* backend) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(backend->Load(*dtd, *doc).ok());
}

// Ids with a readable sign, over the whole id range.
size_t TuplesWithSign(RelationalBackend* backend) {
  size_t n = 0;
  for (size_t id = 0; id < backend->IdBound(); ++id) {
    if (backend->GetSign(static_cast<UniversalId>(id)).ok()) ++n;
  }
  return n;
}

class DirectoryTest : public ::testing::TestWithParam<StoreParams> {};

TEST_P(DirectoryTest, MaintainedEqualsRebuiltUnderSeededUpdates) {
  int loaded = 0;
  int applied = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    testing::InstanceOptions io;
    io.seed = seed;
    io.max_updates = 8;
    testing::Instance inst = testing::GenerateInstance(io);
    RelationalBackend backend(Options(GetParam()));
    // Recursive DTDs load only with interval columns.
    if (!backend.Load(inst.dtd, inst.doc).ok()) continue;
    ++loaded;
    ASSERT_TRUE(backend.VerifyDirectory().ok())
        << "seed " << seed << " after load: " << backend.VerifyDirectory();
    for (size_t k = 0; k < inst.updates.size(); ++k) {
      const BatchOp& op = inst.updates[k];
      xpath::Path path = MustParse(op.xpath);
      Status st;
      if (op.kind == BatchOp::Kind::kDelete) {
        st = backend.DeleteWhere(path).status();
      } else {
        auto fragment = xml::ParseDocument(op.fragment_xml);
        ASSERT_TRUE(fragment.ok()) << fragment.status();
        st = backend.InsertUnder(path, *fragment).status();
      }
      // An exhausted interval gap refuses the insert before mutating.
      if (st.ok()) ++applied;
      Status verified = backend.VerifyDirectory();
      ASSERT_TRUE(verified.ok())
          << "seed " << seed << " after op " << k << " (" << op.xpath
          << "): " << verified;
      ASSERT_EQ(TuplesWithSign(&backend), backend.NodeCount())
          << "seed " << seed << " after op " << k;
    }
  }
  EXPECT_GT(loaded, 10);
  EXPECT_GT(applied, 50);
}

TEST_P(DirectoryTest, DeletedTupleIsNotFound) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  auto patients = backend.EvaluateQuery(MustParse("//patient"));
  ASSERT_TRUE(patients.ok());
  auto names = backend.EvaluateQuery(MustParse("//patient/name"));
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(patients->size(), 3u);
  for (UniversalId id : *patients) ASSERT_TRUE(backend.GetSign(id).ok());

  auto deleted = backend.DeleteWhere(MustParse("//patient"));
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  for (const std::vector<UniversalId>* ids : {&*patients, &*names}) {
    for (UniversalId id : *ids) {
      auto sign = backend.GetSign(id);
      ASSERT_FALSE(sign.ok());
      EXPECT_EQ(sign.status().code(), StatusCode::kNotFound) << sign.status();
    }
  }
  EXPECT_TRUE(backend.VerifyDirectory().ok()) << backend.VerifyDirectory();
  // Ids outside the directory, and text-node ids inside it, have no tuple.
  EXPECT_EQ(backend.GetSign(-1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(backend.GetSign(static_cast<UniversalId>(backend.IdBound()))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_P(DirectoryTest, DeleteBehindTheBackendIsAStaleInternalError) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  auto psns = backend.EvaluateQuery(MustParse("//psn"));
  ASSERT_TRUE(psns.ok());
  ASSERT_FALSE(psns->empty());
  const UniversalId victim = psns->front();

  auto sql = backend.executor()->Query("DELETE FROM psn WHERE id = " +
                                       std::to_string(victim));
  ASSERT_TRUE(sql.ok()) << sql.status();

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  auto sign = backend.GetSign(victim);
  ASSERT_FALSE(sign.ok());
  EXPECT_EQ(sign.status().code(), StatusCode::kInternal) << sign.status();
  EXPECT_EQ(registry.counter("reldb.directory_stale")->value(), 1u);
  EXPECT_FALSE(backend.VerifyDirectory().ok());
  // Untouched tuples still answer.
  for (size_t i = 1; i < psns->size(); ++i) {
    EXPECT_TRUE(backend.GetSign((*psns)[i]).ok());
  }
}

// SetSigns resolves every target through the directory: only ids with a
// live tuple get a point UPDATE.  A text-node id, a deleted tuple and ids
// outside [0, IdBound()) have nothing to update, and a repeated id is
// updated once.
TEST_P(DirectoryTest, SetSignsUpdatesOnlyTuplesTheDirectoryHolds) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  UniversalId text_id = -1;
  for (size_t id = 0; id < backend.IdBound() && text_id < 0; ++id) {
    if (!backend.GetSign(static_cast<UniversalId>(id)).ok()) {
      text_id = static_cast<UniversalId>(id);
    }
  }
  ASSERT_GE(text_id, 0) << "the hospital document has text nodes";
  auto live = backend.EvaluateQuery(MustParse("//patient[psn=\"033\"]/name"));
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_EQ(live->size(), 1u);
  auto doomed = backend.EvaluateQuery(MustParse("//patient[psn=\"099\"]"));
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  ASSERT_EQ(doomed->size(), 1u);
  ASSERT_TRUE(backend.DeleteWhere(MustParse("//patient[psn=\"099\"]")).ok());
  ASSERT_EQ(*backend.GetSign(live->front()), '-');

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  backend.executor()->ResetStats();
  const auto bound = static_cast<UniversalId>(backend.IdBound());
  ASSERT_TRUE(backend
                  .SetSigns({text_id, doomed->front(), live->front(), bound,
                             -1, live->front()},
                            '+')
                  .ok());
  EXPECT_EQ(registry.counter("reldb.sign_updates")->value(), 1u);
  EXPECT_EQ(backend.executor()->stats().statements, 1u);
  EXPECT_EQ(registry.counter("reldb.directory_stale")->value(), 0u);
  EXPECT_EQ(*backend.GetSign(live->front()), '+');
  EXPECT_TRUE(backend.VerifyDirectory().ok()) << backend.VerifyDirectory();
}

TEST_P(DirectoryTest, SetSignsOfNoIdsRunsNoStatement) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  backend.executor()->ResetStats();
  ASSERT_TRUE(backend.SetSigns({}, '+').ok());
  EXPECT_EQ(backend.executor()->stats().statements, 0u);
  EXPECT_EQ(backend.executor()->stats().rows_scanned, 0u);
  EXPECT_EQ(registry.counter("reldb.sign_updates")->value(), 0u);
}

// A stale entry among the targets fails SetSigns as a whole, loudly and
// before any UPDATE: a scan that skipped the vanished tuple would have
// answered OK.
TEST_P(DirectoryTest, DeleteBehindTheBackendFailsSetSignsWhole) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  auto psns = backend.EvaluateQuery(MustParse("//psn"));
  ASSERT_TRUE(psns.ok());
  ASSERT_GE(psns->size(), 2u);
  const UniversalId victim = psns->back();
  auto sql = backend.executor()->Query("DELETE FROM psn WHERE id = " +
                                       std::to_string(victim));
  ASSERT_TRUE(sql.ok()) << sql.status();

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  backend.executor()->ResetStats();
  Status st = backend.SetSigns({psns->front(), victim}, '+');
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
  EXPECT_EQ(registry.counter("reldb.directory_stale")->value(), 1u);
  EXPECT_EQ(backend.executor()->stats().statements, 0u);
  EXPECT_EQ(*backend.GetSign(psns->front()), '-');
}

TEST_P(DirectoryTest, InsertBehindTheBackendFailsDeleteWhereWhole) {
  RelationalBackend backend(Options(GetParam()));
  LoadHospital(&backend);
  auto patients = backend.EvaluateQuery(MustParse("//patient"));
  ASSERT_TRUE(patients.ok());
  ASSERT_FALSE(patients->empty());
  // A live psn tuple under the first patient that the directory never saw.
  const size_t foreign = backend.IdBound() + 3;
  auto sql = backend.executor()->Query(
      "INSERT INTO psn (id, pid, v, s) VALUES (" + std::to_string(foreign) +
      ", " + std::to_string(patients->front()) + ", '099', '-')");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_FALSE(backend.VerifyDirectory().ok());

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  // The pid walk reaches the foreign tuple; the delete fails before
  // deleting anything.
  const size_t rows = backend.NodeCount();
  auto deleted = backend.DeleteWhere(MustParse("//patient"));
  ASSERT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.status().code(), StatusCode::kInternal)
      << deleted.status();
  EXPECT_EQ(backend.NodeCount(), rows);
  EXPECT_EQ(registry.counter("reldb.directory_stale")->value(), 1u);
}

TEST_P(DirectoryTest, UnindexedStoreAnswersLikeIndexed) {
  RelationalOptions unindexed_opt = Options(GetParam());
  unindexed_opt.create_indexes = false;
  RelationalBackend indexed(Options(GetParam()));
  RelationalBackend unindexed(unindexed_opt);
  LoadHospital(&indexed);
  LoadHospital(&unindexed);
  EXPECT_TRUE(unindexed.VerifyDirectory().ok()) << unindexed.VerifyDirectory();
  for (RelationalBackend* b : {&indexed, &unindexed}) {
    auto granted = b->EvaluateQuery(MustParse("//patient//*"));
    ASSERT_TRUE(granted.ok()) << granted.status();
    ASSERT_FALSE(granted->empty());
    ASSERT_TRUE(b->SetSigns(*granted, '+').ok());
  }
  ASSERT_EQ(indexed.IdBound(), unindexed.IdBound());
  size_t tuples = 0;
  for (size_t i = 0; i < indexed.IdBound(); ++i) {
    const auto id = static_cast<UniversalId>(i);
    auto want = indexed.GetSign(id);
    auto got = unindexed.GetSign(id);
    ASSERT_EQ(got.ok(), want.ok()) << "tuple " << id;
    if (!want.ok()) continue;
    ++tuples;
    EXPECT_EQ(*got, *want) << "tuple " << id;
  }
  EXPECT_EQ(tuples, indexed.NodeCount());
}

INSTANTIATE_TEST_SUITE_P(
    Stores, DirectoryTest,
    ::testing::Combine(::testing::Values(reldb::StorageKind::kRowStore,
                                         reldb::StorageKind::kColumnStore),
                       ::testing::Bool()),
    ParamName);

}  // namespace
}  // namespace xmlac::engine
