// NodeBitmap sign algebra and the RuleScopeCache epoch protocol: exact-epoch
// hits, no-downgrade inserts, promotion of non-triggered entries, and the
// logical-eviction rules that keep parallel subjects from clobbering each
// other (docs/performance.md).  Plus the fleet-level property the cache
// exists for: subjects of a MultiSubjectController share rule bitmaps and
// still answer exactly like an uncached fleet.

#include "engine/rule_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "engine/node_bitmap.h"

namespace xmlac::engine {
namespace {

// ---------------------------------------------------------------------------
// NodeBitmap: the Table 2 / Fig. 5 set algebra as word-wise bit operations

TEST(NodeBitmapTest, SetTestCountAndGrowth) {
  NodeBitmap bm;
  EXPECT_TRUE(bm.Empty());
  EXPECT_FALSE(bm.Test(0));
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);   // forces a second word
  bm.Set(500);  // grows well past the current size
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(500));
  EXPECT_FALSE(bm.Test(65));
  EXPECT_FALSE(bm.Test(100000));  // out of range reads as clear
  EXPECT_EQ(bm.Count(), 4u);
  EXPECT_EQ(bm.ToIds(), (std::vector<UniversalId>{0, 63, 64, 500}));
  bm.Clear();
  EXPECT_TRUE(bm.Empty());
}

TEST(NodeBitmapTest, UnionIsFig5Union) {
  NodeBitmap a = NodeBitmap::FromIds({1, 2, 70});
  NodeBitmap b = NodeBitmap::FromIds({2, 3, 200});
  a.Union(b);
  EXPECT_EQ(a.ToIds(), (std::vector<UniversalId>{1, 2, 3, 70, 200}));
}

TEST(NodeBitmapTest, SubtractIsFig5Except) {
  NodeBitmap a = NodeBitmap::FromIds({1, 2, 70, 200});
  NodeBitmap b = NodeBitmap::FromIds({2, 200, 300});
  a.Subtract(b);
  EXPECT_EQ(a.ToIds(), (std::vector<UniversalId>{1, 70}));
}

TEST(NodeBitmapTest, IntersectAndSignDiff) {
  NodeBitmap a = NodeBitmap::FromIds({1, 2, 70, 200});
  NodeBitmap b = NodeBitmap::FromIds({2, 70, 300});
  NodeBitmap i = a;
  i.Intersect(b);
  EXPECT_EQ(i.ToIds(), (std::vector<UniversalId>{2, 70}));
  // The sign diff: set in a, clear in b — exactly the nodes to re-sign.
  std::vector<UniversalId> diff;
  a.DifferenceInto(b, &diff);
  EXPECT_EQ(diff, (std::vector<UniversalId>{1, 200}));
}

// ---------------------------------------------------------------------------
// RuleScopeCache: the epoch protocol

RuleScopeCache::BitmapPtr Bitmap(std::vector<UniversalId> ids) {
  return std::make_shared<const NodeBitmap>(NodeBitmap::FromIds(ids));
}

TEST(RuleScopeCacheTest, HitsOnlyOnExactEpoch) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e, Bitmap({1, 2}));
  ASSERT_NE(cache.Lookup("xmldb", "//a", e), nullptr);
  EXPECT_EQ(cache.Lookup("xmldb", "//a", e + 1), nullptr);  // future epoch
  EXPECT_EQ(cache.Lookup("xmldb", "//b", e), nullptr);      // other path
  EXPECT_EQ(cache.Lookup("reldb/row", "//a", e), nullptr);  // other store
  // A forgotten invalidation degrades to a miss, never a stale hit.
  cache.AdvanceEpoch();
  EXPECT_EQ(cache.Lookup("xmldb", "//a", cache.epoch()), nullptr);
}

TEST(RuleScopeCacheTest, InsertNeverDowngrades) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e + 1, Bitmap({7}));
  // A straggler finishing an old computation must not replace newer state.
  cache.Insert("xmldb", "//a", e, Bitmap({1}));
  auto hit = cache.Lookup("xmldb", "//a", e + 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->Test(7));
  EXPECT_EQ(cache.Lookup("xmldb", "//a", e), nullptr);
}

TEST(RuleScopeCacheTest, PromoteCarriesNonTriggeredEntryAcrossTheEpoch) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e, Bitmap({1, 2}));
  uint64_t post = cache.AdvanceEpoch();
  cache.Promote("xmldb", "//a", post);
  auto hit = cache.Lookup("xmldb", "//a", post);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->Count(), 2u);
  // Promotion is one step only: an entry two epochs behind stays behind.
  uint64_t later = cache.AdvanceEpoch();
  cache.AdvanceEpoch();
  cache.Promote("xmldb", "//a", later + 1);
  EXPECT_EQ(cache.Lookup("xmldb", "//a", later + 1), nullptr);
}

TEST(RuleScopeCacheTest, EvictionIsLogicalForPreEpochEntries) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e, Bitmap({1}));
  uint64_t post = cache.AdvanceEpoch();
  cache.Evict("xmldb", "//a", post);
  // Retired, not erased: a slow subject still snapshotting the pre-update
  // scope at the old epoch gets its hit...
  EXPECT_NE(cache.Lookup("xmldb", "//a", e), nullptr);
  // ...but the entry can never be promoted past the update.
  cache.Promote("xmldb", "//a", post);
  EXPECT_EQ(cache.Lookup("xmldb", "//a", post), nullptr);
}

TEST(RuleScopeCacheTest, EvictErasesPromotedButKeepsFreshInserts) {
  // Two subjects disagree about whether an update triggers a shared rule
  // (their dependency closures differ).  Whatever the interleaving, evict
  // must win over promote, while a fresh post-update recomputation is kept.
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e, Bitmap({1}));
  uint64_t post = cache.AdvanceEpoch();
  // promote-then-evict: the carried-over bitmap must go.
  cache.Promote("xmldb", "//a", post);
  cache.Evict("xmldb", "//a", post);
  EXPECT_EQ(cache.Lookup("xmldb", "//a", post), nullptr);
  // A sibling's fresh recomputation at the post epoch survives eviction.
  cache.Insert("xmldb", "//a", post, Bitmap({2}));
  cache.Evict("xmldb", "//a", post);
  auto hit = cache.Lookup("xmldb", "//a", post);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->Test(2));
}

TEST(RuleScopeCacheTest, InsertClearsRetirement) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Insert("xmldb", "//a", e, Bitmap({1}));
  uint64_t post = cache.AdvanceEpoch();
  cache.Evict("xmldb", "//a", post);
  cache.Insert("xmldb", "//a", post, Bitmap({2}));
  // The recomputed entry is a first-class citizen again: promotable.
  uint64_t next = cache.AdvanceEpoch();
  cache.Promote("xmldb", "//a", next);
  EXPECT_NE(cache.Lookup("xmldb", "//a", next), nullptr);
}

TEST(RuleScopeCacheTest, StatsAndClear) {
  RuleScopeCache cache;
  uint64_t e = cache.epoch();
  cache.Lookup("xmldb", "//a", e);  // miss
  cache.Insert("xmldb", "//a", e, Bitmap({1}));
  cache.Lookup("xmldb", "//a", e);  // hit
  uint64_t post = cache.AdvanceEpoch();
  cache.Evict("xmldb", "//a", post);
  RuleScopeCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Fleet-level sharing: cached and uncached fleets answer identically

constexpr char kDtd[] =
    "<!ELEMENT r (a*, b*)>\n"
    "<!ELEMENT a (#PCDATA)>\n"
    "<!ELEMENT b (#PCDATA)>\n";
constexpr char kXml[] = "<r><a>1</a><a>2</a><b>3</b><b>4</b></r>";
constexpr char kPolicy[] = "default deny\nallow //a\ndeny //b\n";

std::unique_ptr<Backend> NativeFactory() {
  return std::make_unique<NativeXmlBackend>();
}

void ExpectSameAnswers(MultiSubjectController& cached,
                       MultiSubjectController& plain) {
  for (const std::string& subject : cached.SubjectNames()) {
    for (const char* q : {"//a", "//b", "/r"}) {
      auto rc = cached.Query(subject, q);
      auto rp = plain.Query(subject, q);
      ASSERT_EQ(rc.ok(), rp.ok()) << subject << " " << q;
      if (!rc.ok()) continue;
      EXPECT_EQ(rc->ids, rp->ids) << subject << " " << q;
    }
  }
}

TEST(MultiSubjectCacheTest, SubjectsShareBitmapsAndMatchUncachedFleet) {
  MultiSubjectOptions on;
  on.enable_rule_cache = true;
  MultiSubjectOptions off;
  off.enable_rule_cache = false;
  MultiSubjectController cached(NativeFactory, on);
  MultiSubjectController plain(NativeFactory, off);
  ASSERT_TRUE(cached.Load(kDtd, kXml).ok());
  ASSERT_TRUE(plain.Load(kDtd, kXml).ok());
  for (const char* subject : {"s1", "s2", "s3"}) {
    ASSERT_TRUE(cached.AddSubject(subject, kPolicy).ok());
    ASSERT_TRUE(plain.AddSubject(subject, kPolicy).ok());
  }
  // Subjects share rule resource paths, so only the first annotation pays
  // for evaluation — the rest replay bitmaps.
  RuleScopeCache::Stats stats = cached.rule_cache().GetStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  ExpectSameAnswers(cached, plain);

  // A broadcast update drives the trigger-based maintenance (evictions for
  // triggered rules, promotions for the rest) and must keep the fleets in
  // lockstep.
  ASSERT_TRUE(cached.ApplyBatch({BatchOp::Delete("//b")}).ok());
  ASSERT_TRUE(plain.ApplyBatch({BatchOp::Delete("//b")}).ok());
  stats = cached.rule_cache().GetStats();
  EXPECT_GT(stats.evictions + stats.promotions, 0u);
  ExpectSameAnswers(cached, plain);
}

}  // namespace
}  // namespace xmlac::engine
