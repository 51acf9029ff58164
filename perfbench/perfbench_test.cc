// Tests of the benchmark's own statistics, span accounting and schedules.

#include <gtest/gtest.h>

#include <vector>

#include "schedule.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(ExactPercentile, PicksTheCeilRankSample) {
  // n = 100: p50 is rank 50, p90 rank 90 (10 beyond).
  EXPECT_EQ(ExactPercentile(Range(100), 0.5), 50.0);
  EXPECT_EQ(ExactPercentile(Range(100), 0.9), 90.0);
  // Rank ceil(0.5 * 21) = 11.
  EXPECT_EQ(ExactPercentile(Range(21), 0.5), 11.0);
}

TEST(ExactPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(ExactPercentile(Range(99), 0.9).has_value());  // 9 beyond
  EXPECT_TRUE(ExactPercentile(Range(100), 0.9).has_value());  // 10 beyond
  EXPECT_FALSE(ExactPercentile(Range(999), 0.99).has_value());
  EXPECT_EQ(ExactPercentile(Range(1000), 0.99), 990.0);
  EXPECT_FALSE(ExactPercentile(Range(19), 0.5).has_value());
  EXPECT_TRUE(ExactPercentile(Range(20), 0.5).has_value());
  EXPECT_FALSE(ExactPercentile({}, 0.5, 0).has_value());
  EXPECT_EQ(ExactPercentile({7.0}, 0.5, 0), 7.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span S(const char* name, int64_t b, int64_t e, int parent) {
  Span s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsNestedChildrenOnce) {
  // op [0,100): children [10,30) and [40,70); grandchild [12,20) inside the
  // first child must not count against op.
  std::vector<Span> spans = {S("op", 0, 100, -1), S("a", 10, 30, 0),
                             S("b", 40, 70, 0), S("a.x", 12, 20, 1)};
  EXPECT_EQ(SelfTimeNs(spans, 0), 50);
  EXPECT_EQ(SelfTimeNs(spans, 1), 12);
  EXPECT_EQ(SelfTimeNs(spans, 3), 8);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  // Children [10,50) and [30,60) overlap (fanned out to two threads):
  // covered = [10,60) = 50.  A child poking past the parent is clipped.
  std::vector<Span> spans = {S("op", 0, 100, -1), S("a", 10, 50, 0),
                             S("b", 30, 60, 0), S("c", 90, 120, 0)};
  EXPECT_EQ(SelfTimeNs(spans, 0), 100 - 50 - 10);
}

TEST(UnattributedShare, PerTopLevelName) {
  std::vector<Span> spans = {
      S("read", 0, 100, -1),    S("parse", 0, 90, 0),   // 10 uncovered
      S("read", 200, 300, -1),  S("query", 200, 300, 2),  // 0 uncovered
      S("commit", 400, 500, -1), S("apply", 400, 450, 4),  // 50 uncovered
  };
  std::map<std::string, double> share = UnattributedShare(spans);
  ASSERT_EQ(share.size(), 2u);
  EXPECT_DOUBLE_EQ(share["read"], 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(share["commit"], 0.5);
}

TEST(SpansToChromeJson, OneCompleteEventPerSpan) {
  std::vector<Span> spans = {S("op", 1000, 5000, -1), S("a", 2000, 3000, 0)};
  const std::string json = SpansToChromeJson(spans);
  EXPECT_NE(json.find("\"name\": \"op\", \"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.000, \"dur\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0}"), std::string::npos);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  const int s = log.Begin("x", -1, 1);
  log.End(s);
  EXPECT_EQ(s, -1);
  EXPECT_EQ(log.Add("y", -1, 1, 0, 10), -1);
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLog, AddedChildrenCountTowardTheirOp) {
  // Spans timed elsewhere (a library tracer's, at their recorded times)
  // attribute an op the same way as spans the log timed itself.
  SpanLog log(true);
  const int op = log.Add("read", -1, 7, 1000, 2000);
  ASSERT_EQ(op, 0);
  EXPECT_EQ(log.Add("reldb.select", op, 7, 1000, 1300), 1);
  log.Add("request.sign_check", op, 7, 1400, 1950);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].op, 7u);
  EXPECT_EQ(SelfTimeNs(log.spans(), 0), 150);
  EXPECT_DOUBLE_EQ(UnattributedShare(log.spans())["read"], 0.15);
}

TEST(Schedule, ReadsCoverEveryPairEquallyInShuffledOrder) {
  const std::vector<ReadOp> reads = ReadSchedule(3, 5, 4, 7);
  ASSERT_EQ(reads.size(), 60u);
  std::vector<int> counts(15, 0);
  for (const ReadOp& r : reads) ++counts[r.subject * 5 + r.query];
  for (int c : counts) EXPECT_EQ(c, 4);
  // Every pass of 15 holds each pair once.
  for (size_t pass = 0; pass < 4; ++pass) {
    std::vector<int> seen(15, 0);
    for (size_t i = pass * 15; i < (pass + 1) * 15; ++i) {
      ++seen[reads[i].subject * 5 + reads[i].query];
    }
    for (int c : seen) EXPECT_EQ(c, 1);
  }
}

bool SameReads(const std::vector<ReadOp>& a, const std::vector<ReadOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].subject != b[i].subject || a[i].query != b[i].query) return false;
  }
  return true;
}

TEST(Schedule, DeterministicPerSeed) {
  EXPECT_TRUE(SameReads(ReadSchedule(3, 64, 5, 42), ReadSchedule(3, 64, 5, 42)));
  EXPECT_FALSE(SameReads(ReadSchedule(3, 64, 5, 42), ReadSchedule(3, 64, 5, 43)));

  WorkloadSpec spec;
  ASSERT_TRUE(LookupWorkload("serve_commit", &spec));
  spec.xmark_factor = 0.02;  // small document, same generators
  const Inputs a = GenerateInputs(spec, 5, 20);
  const Inputs b = GenerateInputs(spec, 5, 20);
  const Inputs c = GenerateInputs(spec, 6, 20);
  EXPECT_EQ(a.xml_text, b.xml_text);
  EXPECT_EQ(a.policy_texts, b.policy_texts);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_NE(a.xml_text, c.xml_text);
  EXPECT_NE(a.fragments, c.fragments);

  const auto ca = CommitSchedule(a, 20);
  const auto cb = CommitSchedule(b, 20);
  ASSERT_EQ(ca.size(), 20u);
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].xpath, cb[i].xpath);
    EXPECT_EQ(ca[i].fragment_xml, cb[i].fragment_xml);
  }
}

TEST(Schedule, CommitsAlternateAndDeleteTheWindowedInsert) {
  WorkloadSpec spec;
  ASSERT_TRUE(LookupWorkload("paper_relational", &spec));
  spec.xmark_factor = 0.02;
  const Inputs in = GenerateInputs(spec, 1, 6);
  const auto commits = CommitSchedule(in, 6);
  const size_t w = in.fragment_window;
  ASSERT_EQ(commits.size(), 6u);
  for (size_t i = 0; i < commits.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(commits[i].kind, xmlac::engine::BatchOp::Kind::kInsert);
      EXPECT_EQ(commits[i].fragment_xml, in.fragments[w + i / 2]);
    } else {
      EXPECT_EQ(commits[i].kind, xmlac::engine::BatchOp::Kind::kDelete);
      EXPECT_NE(commits[i].xpath.find("bench-" + std::to_string(i / 2) + "\""),
                std::string::npos);
    }
  }
  // The pre-seeded window sits in the loaded document.
  for (size_t k = 0; k < w; ++k) {
    EXPECT_NE(in.xml_text.find(in.fragments[k]), std::string::npos);
  }
}

TEST(Schedule, RelationalRunIsSizedByCycleCost) {
  WorkloadSpec spec;
  ASSERT_TRUE(LookupWorkload("paper_relational", &spec));
  ASSERT_GT(spec.cycle_ms, 0.0);
  // 30 s of cycles, each of reads_per_commit reads and one commit; reads
  // round up to whole passes over the pairs, commits to even.
  const RunSize size = SizeRun(spec, 30);
  const double cycles = 30e3 / spec.cycle_ms;
  EXPECT_NEAR(static_cast<double>(size.commits), cycles, 0.02 * cycles);
  // Enough commits to interleave every read, rounded up to even.
  const size_t rpc = spec.reads_per_commit;
  const size_t need = (size.reads + rpc - 1) / rpc;
  EXPECT_EQ(size.commits, need + need % 2);
}

TEST(Schedule, RunSizeMeetsPercentileNeeds) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    ASSERT_TRUE(LookupWorkload(name, &spec));
    for (double seconds : {1.0, 10.0}) {
      const RunSize size = SizeRun(spec, seconds);
      EXPECT_GE(size.reads, 1000u) << name;  // p99 with 10 beyond
      EXPECT_GE(size.commits, 20u) << name;  // p50 with 10 beyond
      EXPECT_EQ(size.commits % 2, 0u) << name;
      EXPECT_EQ(size.reads % (spec.coverage.size() * spec.queries), 0u)
          << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
