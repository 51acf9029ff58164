#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

std::optional<double> ExactPercentile(std::vector<double> samples, double p,
                                      size_t min_beyond) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

int SpanLog::Begin(const std::string& name, int parent, uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int SpanLog::Add(const std::string& name, int parent, uint64_t op,
                 int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

namespace {

// Children of every span, built once per analysis.
std::vector<std::vector<size_t>> ChildIndex(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  return children;
}

int64_t SelfTimeWith(const std::vector<Span>& spans,
                     const std::vector<size_t>& kids, size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(kids.size());
  for (size_t k : kids) {
    int64_t b = std::max(spans[k].start_ns, s.start_ns);
    int64_t e = std::min(spans[k].end_ns, s.end_ns);
    if (e > b) covered.emplace_back(b, e);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t cur_b = 0;
  int64_t cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : covered) {
    if (!open || b > cur_e) {
      if (open) union_ns += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) union_ns += cur_e - cur_b;
  return (s.end_ns - s.start_ns) - union_ns;
}

}  // namespace

int64_t SelfTimeNs(const std::vector<Span>& spans, size_t i) {
  std::vector<size_t> kids;
  for (size_t k = 0; k < spans.size(); ++k) {
    if (spans[k].parent == static_cast<int>(i)) kids.push_back(k);
  }
  return SelfTimeWith(spans, kids, i);
}

std::map<std::string, double> UnattributedShare(
    const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children = ChildIndex(spans);
  std::map<std::string, std::pair<int64_t, int64_t>> sums;  // self, total
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    auto& [self, total] = sums[spans[i].name];
    self += SelfTimeWith(spans, children[i], i);
    total += spans[i].end_ns - spans[i].start_ns;
  }
  std::map<std::string, double> out;
  for (const auto& [name, st] : sums) {
    out[name] = st.second > 0 ? static_cast<double>(st.first) /
                                    static_cast<double>(st.second)
                              : 0.0;
  }
  return out;
}

std::string SpansToChromeJson(const std::vector<Span>& spans) {
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"traceEvents\": [\n";
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, ",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"args\": {\"op\": %llu, \"parent\": %d}}",
                  static_cast<unsigned long long>(s.op), s.parent);
    out += buf;
  }
  return out + "\n]}\n";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
