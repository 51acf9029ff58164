#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and span accounting for the benchmark.
//
// Percentiles are exact ranks over raw per-op samples (no histograms), and
// a percentile is only reported when at least `kMinBeyond` samples lie
// beyond it, so a tail figure never rests on a handful of ops.  Spans are
// recorded by the benchmark around public calls into each layer; a span's
// self time is its duration minus the part of it that its children cover.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinBeyond = 10;

// The sample at 1-based rank ceil(p * n) of the sorted samples, or nullopt
// when fewer than `min_beyond` samples rank above it (or n == 0).
std::optional<double> ExactPercentile(std::vector<double> samples, double p,
                                      size_t min_beyond = kMinBeyond);

// Middle sample of an odd count; mean of the two middle samples of an even
// count.  For small repeat counts such as setup times.  0 when empty.
double Median(std::vector<double> samples);

// One recorded interval.  `parent` indexes the span list (-1 for an op's
// top-level span); `op` groups the spans of one operation.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t op = 0;
};

// In-memory span log.  When disabled, Begin/End record nothing and cost one
// branch, which is how the untraced replay runs the same code.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Returns the span's index, or -1 when disabled.
  int Begin(const std::string& name, int parent, uint64_t op);
  void End(int index);
  // Records a span that was timed elsewhere; returns its index, or -1.
  int Add(const std::string& name, int parent, uint64_t op, int64_t start_ns,
          int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Duration of spans[i] minus the union of its direct children's intervals,
// each clipped to spans[i].  Overlapping children (work fanned out to
// several threads) are counted once.
int64_t SelfTimeNs(const std::vector<Span>& spans, size_t i);

// Per top-level span name: the summed self time of those spans over their
// summed duration, i.e. the share of the op type's time that no child span
// accounts for.
std::map<std::string, double> UnattributedShare(const std::vector<Span>& spans);

// The spans as Chrome trace-event JSON ("X" events, microseconds), loadable
// in chrome://tracing or Perfetto; each event carries its op id and parent.
std::string SpansToChromeJson(const std::vector<Span>& spans);

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
