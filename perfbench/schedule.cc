#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "stats.h"
#include "workload/coverage.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/serializer.h"
#include "xpath/ast.h"

namespace perfbench {

namespace {

// Fixed generator seeds: the query and rule shapes are the same for every
// run seed (see schedule.h).
constexpr uint64_t kShapeSeed = 42;
constexpr uint64_t kPolicySeed = 11;
// Live inserted fragments kept in the document.
constexpr size_t kFragmentWindow = 8;

std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "serve_commit";
    s.xmark_factor = 0.2;
    s.coverage = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    s.queries = 32;
    // 19 of this seed's 32 queries take the sharded fan-out path (0.1-0.7 ms
    // serial, 0.4-0.6 ms served, mostly thread start-up) and 13 cost under
    // 50 us serial.  With about a third of the reads overlapping a commit,
    // that split puts read p50 inside the fan-out band.  The default seed's
    // split (15 to 17) put it between the two bands, where it moved from
    // 0.24 to 0.36 ms between runs.
    s.query_seed = 46;
    s.read_rate = 100;
    s.commit_rate = 5;
    s.setup_repeats = 15;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "paper_relational";
    s.xmark_factor = 0.5;
    s.coverage = {0.6};
    s.queries = 55;
    s.reads_per_commit = 4;
    s.cycle_ms = 36;
    s.relational = true;
    specs.push_back(s);
  }
  return specs;
}

std::string SubjectName(double target) {
  return "cov" + std::to_string(static_cast<int>(std::lround(target * 100)));
}

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

// Smallest n whose exact-rank p-percentile has kMinBeyond samples beyond.
size_t MinSamples(double p) {
  size_t n = 1;
  while (n - static_cast<size_t>(std::ceil(p * static_cast<double>(n))) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

size_t RoundUpEven(size_t n) { return n + (n % 2); }

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : Specs()) out.push_back(s.name);
  return out;
}

std::string FragmentXml(size_t k, uint64_t seed) {
  xmlac::Random rng(seed * 1000003 + k);
  const std::string id = std::to_string(k);
  return "<person><name>bench-" + id + "</name><emailaddress>mailto:bench" +
         id + "." + std::to_string(rng.UniformRange(1000, 9999)) +
         "@example.org</emailaddress></person>";
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      size_t commits) {
  namespace wl = xmlac::workload;
  Inputs in;
  in.dtd_text = wl::kXmarkDtd;
  in.fragment_window = kFragmentWindow;
  {
    // Policies and queries come from a reference document with a fixed
    // seed: the coverage generator's greedy rule choice follows exact label
    // counts, so deriving it from the run's document would change the rules
    // (and the cost mix) with every seed.
    wl::XmarkOptions xopt;
    xopt.factor = spec.xmark_factor;
    xopt.seed = kShapeSeed;
    const xmlac::xml::Document shape = wl::XmarkGenerator().Generate(xopt);
    for (double target : spec.coverage) {
      wl::CoverageOptions copt;
      copt.target = target;
      copt.seed = kPolicySeed + static_cast<uint64_t>(std::lround(target * 100));
      auto policy = wl::GenerateCoveragePolicy(shape, copt);
      XMLAC_CHECK_MSG(policy.ok(), policy.status().ToString());
      in.subject_names.push_back(SubjectName(target));
      in.policy_texts.push_back(policy->ToString());
    }
    wl::QueryWorkloadOptions qopt;
    qopt.count = spec.queries;
    qopt.seed = spec.query_seed;
    for (const auto& q : wl::GenerateQueries(shape, qopt)) {
      in.queries.push_back(xmlac::xpath::ToString(q));
    }
  }
  {
    wl::XmarkOptions xopt;
    xopt.factor = spec.xmark_factor;
    xopt.seed = seed;
    in.base_xml_text =
        xmlac::xml::Serialize(wl::XmarkGenerator().Generate(xopt));
  }  // generated documents are freed before anything is loaded
  const size_t inserts = CeilDiv(commits, 2);
  for (size_t k = 0; k < kFragmentWindow + inserts; ++k) {
    in.fragments.push_back(FragmentXml(k, seed));
  }
  std::string seeded;
  for (size_t k = 0; k < kFragmentWindow; ++k) seeded += in.fragments[k];
  in.xml_text = in.base_xml_text;
  const size_t at = in.xml_text.find("</people>");
  XMLAC_CHECK_MSG(at != std::string::npos, "generated document has no people");
  in.xml_text.insert(at, seeded);
  return in;
}

std::vector<ReadOp> ReadSchedule(size_t subjects, size_t queries,
                                 size_t cycles, uint64_t seed) {
  xmlac::Random rng(seed ^ 0x5eed5eedull);
  std::vector<ReadOp> pass;
  for (size_t s = 0; s < subjects; ++s) {
    for (size_t q = 0; q < queries; ++q) {
      pass.push_back(ReadOp{static_cast<uint32_t>(s), static_cast<uint32_t>(q)});
    }
  }
  std::vector<ReadOp> out;
  out.reserve(pass.size() * cycles);
  for (size_t c = 0; c < cycles; ++c) {
    for (size_t i = pass.size(); i > 1; --i) {
      std::swap(pass[i - 1], pass[rng.Uniform(i)]);
    }
    out.insert(out.end(), pass.begin(), pass.end());
  }
  return out;
}

std::vector<xmlac::engine::BatchOp> CommitSchedule(const Inputs& inputs,
                                                   size_t commits) {
  using xmlac::engine::BatchOp;
  std::vector<BatchOp> out;
  out.reserve(commits);
  for (size_t i = 0; i < commits; ++i) {
    const size_t k = i / 2;
    if (i % 2 == 0) {
      out.push_back(BatchOp::Insert(
          "/site/people", inputs.fragments.at(inputs.fragment_window + k)));
    } else {
      out.push_back(BatchOp::Delete("/site/people/person[name=\"bench-" +
                                    std::to_string(k) + "\"]"));
    }
  }
  return out;
}

RunSize SizeRun(const WorkloadSpec& spec, double seconds) {
  RunSize r;
  const size_t pairs = spec.coverage.size() * spec.queries;
  double reads = spec.read_rate * seconds;
  double commits = spec.commit_rate * seconds;
  if (spec.relational) {
    commits = seconds * 1000.0 / spec.cycle_ms;
    reads = commits * static_cast<double>(spec.reads_per_commit);
  }
  r.read_cycles =
      std::max(CeilDiv(MinSamples(0.99), pairs),
               static_cast<size_t>(std::lround(reads / static_cast<double>(pairs))));
  r.reads = r.read_cycles * pairs;
  r.commits = static_cast<size_t>(std::lround(commits));
  if (spec.relational) {
    r.commits = CeilDiv(r.reads, spec.reads_per_commit);
  }
  r.commits = RoundUpEven(std::max(r.commits, MinSamples(0.5)));
  return r;
}

uint64_t Fnv1a(const std::string& data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
