#ifndef XMLAC_OBS_RECORDER_H_
#define XMLAC_OBS_RECORDER_H_

// The always-on flight recorder: the consumer side of the per-thread event
// rings (obs/ring.h).
//
// A FlightRecorder owns one EventRing per producer thread plus the state
// needed to make sense of their merged streams:
//   - Streaming latency histograms per request class (query/update/
//     reannotate x native/relational), fed by kRequestEnd events.  These
//     are ordinary obs::Histograms, so p50/p95/p99 come out of the same
//     log-scale interpolation as every other metric.
//   - Tail sampling.  Rings carry every span of every request, but only
//     requests over the slow threshold keep their full span tree.  The
//     threshold is either fixed (RecorderOptions::slow_threshold_us) or
//     adaptive: once a class has seen `adaptive_warmup` requests, a request
//     is retained when it lands at or above the class's trailing
//     `adaptive_percentile` (p99 by default).  Retained traces live in a
//     bounded deque — oldest evicted first — and export as Chrome
//     trace_event JSON (obs/chrome_export.h).
//   - Queue depth / epoch bookkeeping from kQueueDepth and kEpochPublish
//     events (last value + high watermark per queue, latest epoch seen).
//
// Request assembly needs no request ids: each serve thread processes one
// request at a time, so on any single ring the events between a
// kRequestBegin and the next kRequestEnd belong to that request.
//
// Threading: producers append to their rings lock-free; everything else
// (Drain, Health, RetainedTraces) is serialized by an internal mutex, so
// the background drainer and ad-hoc health probes can't race.  Rings must
// not be appended to after the recorder is destroyed (the server joins its
// worker threads first).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace xmlac::obs {

// Slots per producer ring.  Sized so a worker saturated at ~100k events/s
// has >100ms of history between drains — the server's 50ms drain cadence
// never loses events.
inline constexpr size_t kRingCapacity = 1 << 14;

struct RecorderOptions {
  // Fixed slow-request threshold in microseconds; 0 selects the adaptive
  // trailing-percentile estimate instead.
  uint64_t slow_threshold_us = 0;
  // Adaptive mode: retain everything until a class has this many requests,
  // then retain requests at or above this trailing percentile.
  size_t adaptive_warmup = 64;
  double adaptive_percentile = 0.99;
  // Bound on retained slow-request traces (oldest evicted first).
  size_t max_retained_traces = 32;
  // Bound on spans kept per retained trace (the rest are dropped and
  // counted in RetainedTrace::dropped_spans).
  size_t max_trace_spans = 4096;
};

// One completed span inside a retained trace.
struct RetainedSpan {
  uint16_t name = 0;   // InternName id (NameOf to resolve)
  uint32_t depth = 0;  // nesting depth below the request, 0 = top level
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

// A tail-sampled request: its class, timing, and full span tree (flattened
// depth-first; nesting is recoverable from [start, start+duration) overlap).
struct RetainedTrace {
  size_t ring = 0;  // index into FlightRecorder ring labels
  RequestClass klass = RequestClass::kQueryNative;
  uint64_t start_ns = 0;
  uint64_t latency_us = 0;
  std::vector<RetainedSpan> spans;
  // Counter events observed during the request (name id -> accumulated).
  std::vector<std::pair<uint16_t, uint64_t>> counters;
  uint64_t dropped_spans = 0;  // spans over max_trace_spans
};

// Point-in-time health summary of the recorder.
struct RecorderHealth {
  uint64_t events_appended = 0;
  uint64_t events_dropped = 0;  // ring overwrites, exact at drain boundaries
  uint64_t requests_seen = 0;
  uint64_t retained_traces = 0;
  uint64_t evicted_traces = 0;
  uint64_t last_epoch = 0;
  // Latency distribution per request class, microseconds.
  std::array<HistogramData, kRequestClassCount> latency_us{};
  // Last reported depth and high watermark per instrumented queue.
  struct QueueStat {
    uint64_t depth = 0;
    uint64_t watermark = 0;
  };
  std::map<std::string, QueueStat> queues;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderOptions options = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Creates (and owns) a ring for one producer thread.  The returned ring
  // stays valid for the recorder's lifetime.  `label` names the producer in
  // exported traces ("worker-0", "writer").
  EventRing* AddRing(std::string label);

  // Drains every ring and folds the events into histograms, queue stats and
  // retained traces.  Returns the number of events consumed.  Safe to call
  // from the drainer thread while producers append.
  uint64_t Drain();

  RecorderHealth Health() const;

  // Copy of the currently retained slow-request traces, oldest first.
  std::vector<RetainedTrace> RetainedTraces() const;
  std::vector<std::string> RingLabels() const;

  const RecorderOptions& options() const { return options_; }

 private:
  // Per-ring stream assembly: the open request and its span stack.
  struct RingState {
    std::unique_ptr<EventRing> ring;
    std::string label;
    bool in_request = false;
    RequestClass klass = RequestClass::kQueryNative;
    uint64_t request_start_ns = 0;
    std::vector<std::pair<uint16_t, uint64_t>> open_spans;  // (name, start)
    std::vector<RetainedSpan> spans;
    std::vector<std::pair<uint16_t, uint64_t>> counters;
    uint64_t dropped_spans = 0;
  };

  // Both called with mu_ held.
  void Consume(size_t ring_index, const Event& e);
  void FinishRequest(size_t ring_index, const Event& end);
  bool ShouldRetain(RequestClass klass, uint64_t latency_us);

  const RecorderOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RingState>> rings_;
  std::array<Histogram, kRequestClassCount> latency_us_;
  std::map<std::string, RecorderHealth::QueueStat> queues_;
  std::deque<RetainedTrace> retained_;
  std::vector<Event> scratch_;
  uint64_t requests_seen_ = 0;
  uint64_t evicted_ = 0;
  uint64_t drain_dropped_ = 0;
  uint64_t last_epoch_ = 0;
};

}  // namespace xmlac::obs

#endif  // XMLAC_OBS_RECORDER_H_
