// xmlac_top — live terminal monitor for a running serve workload.
//
// Attaches to the flat "key value" health file a load generator (or any
// embedder of serve::Server) rewrites periodically:
//
//   xmlac_loadgen --workload hospital --duration-ms 60000 \
//                 --health-file /tmp/xmlac-health.txt &
//   xmlac_top /tmp/xmlac-health.txt
//
// Redraws an ANSI dashboard — epoch and recorder lag, queue depths against
// their watermarks, ring drop counters, per-class latency percentiles —
// every refresh interval until interrupted.  The file is replaced
// atomically by the writer (temp + rename), so a read never sees a torn
// snapshot; a missing file just renders as "waiting".
//
//   xmlac_top [--interval-ms N] [--once] FILE
//
// --once prints a single parsed snapshot without ANSI control codes (CI
// smoke tests use this).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"

namespace {

struct HealthView {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const char* fallback = "0") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

// Parses the "key value" line format (docs/observability.md).  Unknown
// keys are kept verbatim, so the monitor keeps working as new stats appear.
HealthView Parse(const std::string& text) {
  HealthView view;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t space = line.find(' ');
    if (space == std::string::npos || space == 0) continue;
    view.values[line.substr(0, space)] = line.substr(space + 1);
  }
  return view;
}

const char* const kClasses[] = {
    "query.native",      "query.relational",      "update.native",
    "update.relational", "reannotate.native",     "reannotate.relational",
};

void Render(const HealthView& v, bool ansi) {
  if (ansi) std::printf("\x1b[H\x1b[2J");
  std::printf("xmlac_top — serve health\n\n");
  std::printf("epoch        %8s   recorder epoch %8s   lag %s\n",
              v.Get("serve.health.epoch").c_str(),
              v.Get("serve.health.recorder_epoch").c_str(),
              v.Get("serve.health.epoch_lag").c_str());
  std::printf("ring events  %8s   dropped %s   pool misses %s\n",
              v.Get("obs.ring.appended").c_str(),
              v.Get("obs.ring.dropped").c_str(),
              v.Get("obs.worker_ring_pool.misses").c_str());
  std::printf("requests     %8s   traces retained %s  evicted %s\n\n",
              v.Get("obs.recorder.requests_seen").c_str(),
              v.Get("obs.recorder.retained_traces").c_str(),
              v.Get("obs.recorder.evicted_traces").c_str());
  std::printf("%-12s %8s %10s\n", "queue", "depth", "watermark");
  std::printf("%-12s %8s %10s\n", "read",
              v.Get("serve.health.read_queue.depth").c_str(),
              v.Get("serve.health.read_queue.watermark").c_str());
  std::printf("%-12s %8s %10s\n\n", "write",
              v.Get("serve.health.write_queue.depth").c_str(),
              v.Get("serve.health.write_queue.watermark").c_str());
  std::printf("%-22s %10s %9s %9s %9s %9s\n", "class", "count", "p50us",
              "p95us", "p99us", "maxus");
  for (const char* klass : kClasses) {
    std::string prefix = std::string("latency.") + klass + ".";
    if (!v.Has(prefix + "count")) continue;
    std::printf("%-22s %10s %9s %9s %9s %9s\n", klass,
                v.Get(prefix + "count").c_str(),
                v.Get(prefix + "p50_us", "-").c_str(),
                v.Get(prefix + "p95_us", "-").c_str(),
                v.Get(prefix + "p99_us", "-").c_str(),
                v.Get(prefix + "max_us", "-").c_str());
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--interval-ms N] [--once] HEALTH_FILE\n"
               "  --interval-ms N   refresh period (default 500)\n"
               "  --once            print one snapshot and exit (no ANSI)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int64_t interval_ms = 500;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--once") {
      once = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);
  if (interval_ms < 50) interval_ms = 50;

  while (true) {
    auto text = xmlac::ReadFile(path);
    if (text.ok()) {
      Render(Parse(*text), /*ansi=*/!once);
    } else if (once) {
      std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      return 1;
    } else {
      std::printf("\x1b[H\x1b[2Jxmlac_top — waiting for %s\n", path.c_str());
    }
    if (once) return 0;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
