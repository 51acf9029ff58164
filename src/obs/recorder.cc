#include "obs/recorder.h"

#include <algorithm>
#include <utility>

namespace xmlac::obs {

FlightRecorder::FlightRecorder(RecorderOptions options)
    : options_(options) {}

EventRing* FlightRecorder::AddRing(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<RingState>();
  state->ring = std::make_unique<EventRing>(kRingCapacity);
  state->label = std::move(label);
  EventRing* ring = state->ring.get();
  rings_.push_back(std::move(state));
  return ring;
}

uint64_t FlightRecorder::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t consumed = 0;
  for (size_t r = 0; r < rings_.size(); ++r) {
    scratch_.clear();
    drain_dropped_ += rings_[r]->ring->Drain(&scratch_);
    consumed += scratch_.size();
    for (const Event& e : scratch_) Consume(r, e);
  }
  return consumed;
}

void FlightRecorder::Consume(size_t ring_index, const Event& e) {
  RingState& rs = *rings_[ring_index];
  switch (e.type) {
    case EventType::kRequestBegin:
      // Producers fold the queue snapshot into the begin event (one append
      // instead of a separate kQueueDepth on the hot path).
      if (e.name != 0) {
        auto& stat = queues_[NameOf(e.name)];
        stat.depth = e.arg;
        stat.watermark = std::max(stat.watermark, e.arg);
      }
      // A begin while a request is open means its end event was lost to an
      // overwrite; abandon the half-assembled request.
      rs.in_request = true;
      rs.klass = static_cast<RequestClass>(e.klass % kRequestClassCount);
      rs.request_start_ns = e.ts_ns;
      rs.open_spans.clear();
      rs.spans.clear();
      rs.counters.clear();
      rs.dropped_spans = 0;
      break;
    case EventType::kRequestEnd:
      if (rs.in_request) FinishRequest(ring_index, e);
      rs.in_request = false;
      break;
    case EventType::kSpanBegin:
      if (rs.in_request) rs.open_spans.emplace_back(e.name, e.ts_ns);
      break;
    case EventType::kSpanEnd:
      if (rs.in_request && !rs.open_spans.empty()) {
        // Pop to the innermost matching name: a lost begin event must not
        // permanently skew the stack.
        size_t i = rs.open_spans.size();
        while (i > 0 && rs.open_spans[i - 1].first != e.name) --i;
        if (i == 0) break;
        auto [name, start] = rs.open_spans[i - 1];
        rs.open_spans.resize(i - 1);
        if (rs.spans.size() < options_.max_trace_spans) {
          RetainedSpan span;
          span.name = name;
          span.depth = static_cast<uint32_t>(i - 1);
          span.start_ns = start;
          span.duration_ns = e.ts_ns >= start ? e.ts_ns - start : 0;
          rs.spans.push_back(span);
        } else {
          ++rs.dropped_spans;
        }
      }
      break;
    case EventType::kCounter:
    case EventType::kInstant:
      if (rs.in_request) {
        auto it = std::find_if(
            rs.counters.begin(), rs.counters.end(),
            [&](const auto& kv) { return kv.first == e.name; });
        if (it != rs.counters.end()) {
          it->second += e.arg;
        } else {
          rs.counters.emplace_back(e.name, e.arg);
        }
      }
      break;
    case EventType::kEpochPublish:
      last_epoch_ = std::max(last_epoch_, e.arg);
      break;
    case EventType::kQueueDepth: {
      auto& stat = queues_[NameOf(e.name)];
      stat.depth = e.arg;
      stat.watermark = std::max(stat.watermark, e.arg);
      break;
    }
    case EventType::kNone:
      break;
  }
}

bool FlightRecorder::ShouldRetain(RequestClass klass, uint64_t latency_us) {
  if (options_.slow_threshold_us > 0) {
    return latency_us >= options_.slow_threshold_us;
  }
  // Adaptive: keep everything until the class distribution is warm, then
  // keep the trailing tail.
  const HistogramData d = latency_us_[static_cast<size_t>(klass)].Data();
  if (d.count < options_.adaptive_warmup) return true;
  return static_cast<double>(latency_us) >=
         d.Percentile(options_.adaptive_percentile);
}

void FlightRecorder::FinishRequest(size_t ring_index, const Event& end) {
  RingState& rs = *rings_[ring_index];
  const uint64_t latency_us = end.arg;
  latency_us_[static_cast<size_t>(rs.klass)].Record(latency_us);
  ++requests_seen_;
  if (!ShouldRetain(rs.klass, latency_us)) return;
  RetainedTrace trace;
  trace.ring = ring_index;
  trace.klass = rs.klass;
  trace.start_ns = rs.request_start_ns;
  trace.latency_us = latency_us;
  trace.spans = std::move(rs.spans);
  trace.counters = std::move(rs.counters);
  trace.dropped_spans = rs.dropped_spans;
  rs.spans.clear();
  rs.counters.clear();
  retained_.push_back(std::move(trace));
  while (retained_.size() > options_.max_retained_traces) {
    retained_.pop_front();
    ++evicted_;
  }
}

RecorderHealth FlightRecorder::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecorderHealth h;
  for (const auto& rs : rings_) h.events_appended += rs->ring->appended();
  h.events_dropped = drain_dropped_;
  h.requests_seen = requests_seen_;
  h.retained_traces = retained_.size();
  h.evicted_traces = evicted_;
  h.last_epoch = last_epoch_;
  for (size_t i = 0; i < kRequestClassCount; ++i) {
    h.latency_us[i] = latency_us_[i].Data();
  }
  h.queues = queues_;
  return h;
}

std::vector<RetainedTrace> FlightRecorder::RetainedTraces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {retained_.begin(), retained_.end()};
}

std::vector<std::string> FlightRecorder::RingLabels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> labels;
  labels.reserve(rings_.size());
  for (const auto& rs : rings_) labels.push_back(rs->label);
  return labels;
}

}  // namespace xmlac::obs
