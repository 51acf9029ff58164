// Property suite for the headline invariant: on random documents, random
// coverage policies and random update streams (deletes and inserts mixed),
// partial re-annotation leaves the store byte-identical in signs to a
// from-scratch annotation — across all three backends.
//
// The seeded sweep runs the shared differential harness (partial vs full vs
// batched re-annotation vs the brute-force oracle); the XMark test below
// pins the same invariant on the paper's benchmark schema.

#include <gtest/gtest.h>

#include <memory>

#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "policy/policy.h"
#include "testing/diff.h"
#include "testing/generators.h"
#include "workload/coverage.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xmlac::engine {
namespace {

namespace tst = xmlac::testing;

// Trigger-based partial re-annotation vs ReannotateFull vs ApplyBatch vs
// the oracle, on generated instances with update streams.  Failures print
// the seed and a minimized repro.
class SeededReannotationDiffTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SeededReannotationDiffTest, PartialEqualsFullEqualsOracle) {
  tst::InstanceOptions options;
  options.max_doc_nodes = 60;
  options.max_updates = 4;
  EXPECT_EQ(
      tst::RunSeededCheck(GetParam(), options, tst::ReannotationCheck()), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededReannotationDiffTest,
                         ::testing::Range<uint64_t>(1, 9));

// Minimized repros of `xmlac_fuzz --mode reannotate --updates 6` failures,
// pinned so the partial re-annotation they broke stays equal to the full
// one (and to the oracle) on every backend.
tst::Instance Repro(const char* dtd, const char* doc, const char* policy,
                    BatchOp update) {
  tst::Instance instance;
  instance.dtd_text = dtd;
  auto parsed_dtd = xml::ParseDtd(dtd);
  auto parsed_doc = xml::ParseDocument(doc);
  auto parsed_policy = policy::ParsePolicy(policy);
  EXPECT_TRUE(parsed_dtd.ok() && parsed_doc.ok() && parsed_policy.ok());
  instance.dtd = std::move(*parsed_dtd);
  instance.doc = std::move(*parsed_doc);
  instance.policy = std::move(*parsed_policy);
  instance.updates.push_back(std::move(update));
  return instance;
}

// Seed 9: `deny /e0//e3` and `allow //e0/e3` overlap on e3 without either
// containing the other.  The delete triggers only the allow rule; unless
// the dependency graph links the two, the deny is left out and e3 flips to
// '+'.
TEST(ReannotationReproTest, OverlappingOppositeRulesStayDependent) {
  tst::Instance instance =
      Repro("<!ELEMENT e0 (e1*, e3*)>\n"
            "<!ELEMENT e1 (e2*, e4*, e5*, e6*)>\n"
            "<!ELEMENT e2 (#PCDATA)>\n<!ELEMENT e3 (#PCDATA)>\n"
            "<!ELEMENT e4 (#PCDATA)>\n<!ELEMENT e5 (#PCDATA)>\n"
            "<!ELEMENT e6 (#PCDATA)>\n",
            "<e0><e3>x</e3></e0>",
            "default deny\nconflict deny\ndeny /e0//e3\nallow //e0/e3\n",
            BatchOp::Delete("/e2//e5/e0"));
  EXPECT_EQ(tst::CheckReannotation(instance), "");
}

// Seed 41: the insert's paths (//e3, //e3/e6) neither contain nor are
// contained by any expansion of `allow /*//*`, but they overlap; unless
// Trigger fires on overlap, the new e6 keeps the default '-'.
TEST(ReannotationReproTest, InsertOverlappingRuleScopeTriggers) {
  tst::Instance instance =
      Repro("<!ELEMENT e0 (e1*, e4*, e5*)>\n<!ELEMENT e1 (e2*, e3*, e6*)>\n"
            "<!ELEMENT e2 (e3*)>\n<!ELEMENT e3 (e6*)>\n"
            "<!ELEMENT e4 (#PCDATA)>\n<!ELEMENT e5 (#PCDATA)>\n"
            "<!ELEMENT e6 (#PCDATA)>\n",
            "<e0><e1><e3/></e1></e0>",
            "default deny\nconflict deny\nallow /*//*\n",
            BatchOp::Insert("//e3", "<e6>v1</e6>"));
  EXPECT_EQ(tst::CheckReannotation(instance), "");
}

struct Config {
  uint64_t seed;
  int backend;  // 0 native, 1 row, 2 column
};

std::unique_ptr<Backend> MakeBackend(int kind) {
  if (kind == 0) return std::make_unique<NativeXmlBackend>();
  RelationalOptions opt;
  opt.storage = kind == 1 ? reldb::StorageKind::kRowStore
                          : reldb::StorageKind::kColumnStore;
  return std::make_unique<RelationalBackend>(opt);
}

class ReannotationPropertyTest : public ::testing::TestWithParam<Config> {};

TEST_P(ReannotationPropertyTest, PartialEqualsFullAfterRandomUpdates) {
  const Config& cfg = GetParam();
  workload::XmarkGenerator gen;
  workload::XmarkOptions xopt;
  xopt.factor = 0.006;
  xopt.seed = cfg.seed;
  xml::Document doc = gen.Generate(xopt);
  auto dtd = workload::XmarkGenerator::ParseXmarkDtd();
  ASSERT_TRUE(dtd.ok());

  workload::CoverageOptions copt;
  copt.target = 0.3 + 0.05 * static_cast<double>(cfg.seed % 8);
  copt.seed = cfg.seed;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  ASSERT_TRUE(policy.ok()) << policy.status();

  auto partial = std::make_unique<AccessController>(MakeBackend(cfg.backend));
  auto oracle = std::make_unique<AccessController>(MakeBackend(cfg.backend));
  ASSERT_TRUE(partial->LoadParsed(*dtd, doc).ok());
  ASSERT_TRUE(oracle->LoadParsed(*dtd, doc).ok());
  ASSERT_TRUE(partial->SetPolicyParsed(*policy).ok());
  ASSERT_TRUE(oracle->SetPolicyParsed(*policy).ok());

  tst::RandomPathGenerator paths(doc, cfg.seed * 101 + 3);
  Random rng(cfg.seed * 13 + 1);
  // Schema-valid (target, fragment) pairs.
  struct InsertCase {
    const char* target;
    const char* fragment;
  };
  const InsertCase kInserts[] = {
      {"//person", "<watches><watch>item1</watch></watches>"},
      {"//open_auction",
       "<bidder><date>1/1/2000</date><time>1:00</time>"
       "<personref>person0</personref><increase>5.0</increase></bidder>"},
      {"//closed_auction",
       "<annotation><author>person1</author><description><text>hi</text>"
       "</description><happiness>5</happiness></annotation>"},
      {"//mailbox",
       "<mail><from>a</from><to>b</to><date>2/2/2002</date>"
       "<text>msg</text></mail>"},
  };

  for (int step = 0; step < 6; ++step) {
    if (rng.OneIn(3)) {
      const InsertCase& pick = kInserts[rng.Uniform(4)];
      const char* target = pick.target;
      const char* fragment = pick.fragment;
      auto a = partial->Insert(target, fragment);
      ASSERT_TRUE(a.ok()) << a.status() << " inserting under " << target;
      auto t = xpath::ParsePath(target);
      auto f = xml::ParseDocument(fragment);
      ASSERT_TRUE(t.ok() && f.ok());
      ASSERT_TRUE(oracle->backend()->InsertUnder(*t, *f).ok());
    } else {
      xpath::Path u = paths.Next();
      auto a = partial->Update(xpath::ToString(u));
      if (!a.ok() && a.status().code() == StatusCode::kUnsupported) {
        // Wildcard-heavy paths can exceed the relational translator's
        // branch budget; nothing was applied, so skip the step.
        continue;
      }
      ASSERT_TRUE(a.ok()) << a.status() << " deleting " << xpath::ToString(u);
      ASSERT_TRUE(oracle->backend()->DeleteWhere(u).ok());
    }
    ASSERT_TRUE(oracle->ReannotateFull().ok());

    auto all = xpath::ParsePath("//*");
    ASSERT_TRUE(all.ok());
    auto ids = partial->backend()->EvaluateQuery(*all);
    auto oracle_ids = oracle->backend()->EvaluateQuery(*all);
    ASSERT_TRUE(ids.ok() && oracle_ids.ok());
    ASSERT_EQ(*ids, *oracle_ids) << "step " << step;
    for (UniversalId id : *ids) {
      auto a = partial->backend()->GetSign(id);
      auto b = oracle->backend()->GetSign(id);
      ASSERT_TRUE(a.ok() && b.ok())
          << "id " << id << " partial: " << a.status()
          << " oracle: " << b.status();
      ASSERT_EQ(*a, *b) << "node " << id << " at step " << step
                        << " (seed " << cfg.seed << ")";
    }
  }
}

std::vector<Config> MakeConfigs() {
  std::vector<Config> out;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (int b = 0; b < 3; ++b) out.push_back({seed, b});
  }
  return out;
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  static const char* const kNames[] = {"Native", "Row", "Column"};
  return std::string(kNames[info.param.backend]) + "Seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndBackends, ReannotationPropertyTest,
                         ::testing::ValuesIn(MakeConfigs()), ConfigName);

}  // namespace
}  // namespace xmlac::engine
