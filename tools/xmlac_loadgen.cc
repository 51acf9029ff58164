// xmlac_loadgen — closed-loop load generator for the serving layer.
//
// Drives a serve::Server over the hospital or XMark workload with a
// configurable read/update mix: N client threads each submit a request,
// wait for its response, and submit the next (closed loop), while the
// server's worker pool answers reads from published snapshots and its
// writer thread coalesces updates into re-annotation batches.  Reports
// requests/sec, latency percentiles (from the server's own serve.* metric
// histograms) and batching behavior; --report-json dumps the summary plus
// the full metrics snapshot for trend tracking.
//
//   xmlac_loadgen --workload hospital --workers 4 --clients 8
//                 --duration-ms 2000 --read-ratio 0.95
//
//   xmlac_loadgen --workload xmark --factor 0.01 --requests 5000

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "common/timer.h"
#include "obs/export.h"
#include "serve/server.h"
#include "storage/wal.h"
#include "workload/coverage.h"
#include "workload/hospital.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xpath/ast.h"

namespace {

using xmlac::Random;
using xmlac::Status;
using xmlac::Timer;
using xmlac::serve::ServeResponse;
using xmlac::serve::Server;
using xmlac::serve::ServerOptions;

struct LoadgenOptions {
  std::string workload = "hospital";
  size_t workers = 4;
  size_t clients = 8;
  int64_t duration_ms = 2000;
  uint64_t requests = 0;  // 0 = run for the duration instead
  double read_ratio = 0.95;
  size_t max_batch = 64;
  size_t queue_capacity = 1024;
  int departments = 4;        // hospital scale
  int patients = 50;          // per department
  double factor = 0.01;       // xmark scale
  uint64_t seed = 42;
  std::string report_json;
  bool quiet = false;
  // Flight recorder surface (docs/observability.md, "Flight recorder").
  bool recorder = true;
  std::string flight_recorder_dir;  // dump trace.json + health.txt on exit
  std::string health_file;          // periodically rewritten for xmlac_top
  int64_t health_interval_ms = 200;
  uint64_t slow_threshold_us = 0;  // 0 = adaptive trailing p99
  // Durability surface (docs/durability.md).  Empty data_dir = WAL off.
  std::string data_dir;
  xmlac::storage::DurabilityLevel durability =
      xmlac::storage::DurabilityLevel::kFdatasync;
  uint64_t checkpoint_every = 0;  // 0 = no background checkpoints
  // Shard-parallel execution inside the engine (docs/performance.md).
  bool shard_parallel = true;
  size_t shard_threads = 0;  // 0 = auto
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload hospital|xmark   document + policies (default hospital)\n"
      "  --workers N                 server worker pool size (default 4)\n"
      "  --clients N                 closed-loop client threads (default 8)\n"
      "  --duration-ms N             run length (default 2000)\n"
      "  --requests N                stop after N requests instead\n"
      "  --read-ratio R              fraction of reads in [0,1] (default 0.95)\n"
      "  --max-batch N               writer batch coalescing cap (default 64)\n"
      "  --queue-capacity N          bounded queue size (default 1024)\n"
      "  --departments N --patients N   hospital document scale (4 x 50)\n"
      "  --factor F                  xmark scale factor (default 0.01)\n"
      "  --seed N                    workload seed (default 42)\n"
      "  --report-json FILE          write summary + metrics as JSON\n"
      "  --quiet                     summary line only\n"
      "  --recorder on|off           flight recorder (default on)\n"
      "  --flight-recorder DIR       dump trace.json + health.txt on exit\n"
      "  --health-file FILE          rewrite live health stats for xmlac_top\n"
      "  --health-interval-ms N      health file refresh period (default 200)\n"
      "  --slow-threshold-us N       retain traces of requests over N us\n"
      "  --shard-threads N           shard-parallel engine threads (0 = auto)\n"
      "  --no-shard                  disable shard-parallel execution\n"
      "                              (default 0 = adaptive trailing p99)\n"
      "  --data-dir DIR              durable mode: WAL + checkpoints in DIR\n"
      "                              (recovers existing state on start)\n"
      "  --durability LEVEL          none|fdatasync|fsync (default fdatasync)\n"
      "  --checkpoint-every N        checkpoint every N batches (default 0 =\n"
      "                              never; recovery replays the WAL\n"
      "                              from the epoch-1 checkpoint)\n",
      argv0);
  return 2;
}

struct ClientTally {
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t granted = 0;
  uint64_t denied = 0;
  uint64_t errors = 0;
};

struct Workload {
  std::vector<std::string> subjects;
  std::vector<std::string> queries;
  // Closed set of update ops the clients cycle through.
  std::vector<xmlac::engine::BatchOp> updates;
};

Status SetupHospital(const LoadgenOptions& opt, Server* server,
                     Workload* workload) {
  namespace wl = xmlac::workload;
  XMLAC_ASSIGN_OR_RETURN(xmlac::xml::Dtd dtd,
                         wl::HospitalGenerator::ParseHospitalDtd());
  wl::HospitalOptions hopt;
  hopt.departments = opt.departments;
  hopt.patients_per_department = opt.patients;
  hopt.seed = opt.seed;
  wl::HospitalGenerator gen;
  xmlac::xml::Document doc = gen.Generate(hopt);
  XMLAC_RETURN_IF_ERROR(server->LoadParsed(dtd, doc));
  for (size_t i = 0; i < wl::kHospitalSubjectCount; ++i) {
    XMLAC_RETURN_IF_ERROR(server->AddSubject(
        wl::kHospitalSubjects[i].subject, wl::kHospitalSubjects[i].policy_text));
    workload->subjects.emplace_back(wl::kHospitalSubjects[i].subject);
  }
  wl::QueryWorkloadOptions qopt;
  qopt.count = 64;
  qopt.seed = opt.seed + 1;
  for (const auto& q : wl::GenerateQueries(doc, qopt)) {
    workload->queries.push_back(xmlac::xpath::ToString(q));
  }
  // Deletes walk the patient id space; inserts re-add fresh patients, so a
  // long run keeps the document from draining.
  int total_patients = opt.departments * opt.patients;
  for (int i = 0; i < total_patients; ++i) {
    char psn[16];
    std::snprintf(psn, sizeof(psn), "%03d", i);
    workload->updates.push_back(xmlac::engine::BatchOp::Delete(
        std::string("//patient[psn=\"") + psn + "\"]"));
    workload->updates.push_back(xmlac::engine::BatchOp::Insert(
        "//patients", std::string("<patient><psn>") + psn +
                          "</psn><name>loadgen</name></patient>"));
  }
  return Status::OK();
}

Status SetupXmark(const LoadgenOptions& opt, Server* server,
                  Workload* workload) {
  namespace wl = xmlac::workload;
  XMLAC_ASSIGN_OR_RETURN(xmlac::xml::Dtd dtd,
                         wl::XmarkGenerator::ParseXmarkDtd());
  wl::XmarkOptions xopt;
  xopt.factor = opt.factor;
  xopt.seed = opt.seed;
  wl::XmarkGenerator gen;
  xmlac::xml::Document doc = gen.Generate(xopt);
  XMLAC_RETURN_IF_ERROR(server->LoadParsed(dtd, doc));
  // Subjects with increasing visibility, from the coverage policy
  // generator (paper Sec. 7.1).
  const double kTargets[] = {0.3, 0.6, 0.9};
  for (double target : kTargets) {
    wl::CoverageOptions copt;
    copt.target = target;
    copt.seed = opt.seed + static_cast<uint64_t>(target * 100);
    XMLAC_ASSIGN_OR_RETURN(xmlac::policy::Policy policy,
                           wl::GenerateCoveragePolicy(doc, copt));
    std::string name = "cov" + std::to_string(static_cast<int>(target * 100));
    XMLAC_RETURN_IF_ERROR(server->AddSubject(name, policy.ToString()));
    workload->subjects.push_back(name);
  }
  wl::QueryWorkloadOptions qopt;
  qopt.count = 64;
  qopt.seed = opt.seed + 1;
  std::vector<xmlac::xpath::Path> queries = wl::GenerateQueries(doc, qopt);
  for (const auto& q : queries) {
    workload->queries.push_back(xmlac::xpath::ToString(q));
  }
  // XMark updates: deletes drawn from the same query shapes (the paper
  // re-runs its query set as delete updates for Fig. 12).
  for (size_t i = 0; i < queries.size() && i < 16; ++i) {
    workload->updates.push_back(
        xmlac::engine::BatchOp::Delete(workload->queries[i]));
  }
  return Status::OK();
}

void ClientLoop(Server* server, const Workload& workload,
                const LoadgenOptions& opt, uint64_t client_index,
                const std::atomic<bool>* stop_flag,
                std::atomic<uint64_t>* remaining, ClientTally* tally) {
  Random rng(opt.seed + 1000 + client_index);
  while (!stop_flag->load(std::memory_order_relaxed)) {
    if (opt.requests > 0) {
      // Quota mode: claim one request; stop when the shared budget runs out.
      uint64_t left = remaining->load(std::memory_order_relaxed);
      do {
        if (left == 0) return;
      } while (!remaining->compare_exchange_weak(left, left - 1,
                                                 std::memory_order_relaxed));
    }
    if (rng.NextDouble() < opt.read_ratio || workload.updates.empty()) {
      const std::string& subject =
          workload.subjects[rng.Uniform(workload.subjects.size())];
      const std::string& query =
          workload.queries[rng.Uniform(workload.queries.size())];
      ServeResponse resp = server->Query(subject, query);
      ++tally->reads;
      if (!resp.status.ok()) {
        ++tally->errors;
      } else if (resp.granted) {
        ++tally->granted;
      } else {
        ++tally->denied;
      }
    } else {
      const xmlac::engine::BatchOp& op =
          workload.updates[rng.Uniform(workload.updates.size())];
      ServeResponse resp =
          op.kind == xmlac::engine::BatchOp::Kind::kDelete
              ? server->Update(op.xpath)
              : server->Insert(op.xpath, op.fragment_xml);
      ++tally->updates;
      if (!resp.status.ok()) ++tally->errors;
    }
  }
}

double HistPercentile(const xmlac::obs::MetricsSnapshot& snapshot,
                      const char* name, double p) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.Percentile(p);
}

uint64_t CounterValue(const xmlac::obs::MetricsSnapshot& snapshot,
                      const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Atomic replace (write temp + rename) so xmlac_top never reads a torn
// half-written health file.
void WriteHealthFile(Server* server, const std::string& path) {
  std::string text = xmlac::serve::HealthText(server->HealthSnapshot());
  std::string tmp = path + ".tmp";
  Status written = xmlac::WriteFile(tmp, text);
  if (written.ok()) std::rename(tmp.c_str(), path.c_str());
}

void HealthSamplerLoop(Server* server, const LoadgenOptions* opt,
                       const std::atomic<bool>* stop_flag) {
  const auto interval =
      std::chrono::milliseconds(std::max<int64_t>(1, opt->health_interval_ms));
  while (!stop_flag->load(std::memory_order_relaxed)) {
    WriteHealthFile(server, opt->health_file);
    std::this_thread::sleep_for(interval);
  }
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = next("--workload");
    else if (arg == "--workers") opt.workers = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--clients") opt.clients = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--duration-ms") opt.duration_ms = std::strtoll(next(arg.c_str()), nullptr, 10);
    else if (arg == "--requests") opt.requests = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--read-ratio") opt.read_ratio = std::strtod(next(arg.c_str()), nullptr);
    else if (arg == "--max-batch") opt.max_batch = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--queue-capacity") opt.queue_capacity = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--departments") opt.departments = std::atoi(next(arg.c_str()));
    else if (arg == "--patients") opt.patients = std::atoi(next(arg.c_str()));
    else if (arg == "--factor") opt.factor = std::strtod(next(arg.c_str()), nullptr);
    else if (arg == "--seed") opt.seed = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--report-json") opt.report_json = next("--report-json");
    else if (arg == "--quiet") opt.quiet = true;
    else if (arg == "--recorder") opt.recorder = std::strcmp(next(arg.c_str()), "off") != 0;
    else if (arg == "--flight-recorder") opt.flight_recorder_dir = next(arg.c_str());
    else if (arg == "--health-file") opt.health_file = next(arg.c_str());
    else if (arg == "--health-interval-ms") opt.health_interval_ms = std::strtoll(next(arg.c_str()), nullptr, 10);
    else if (arg == "--slow-threshold-us") opt.slow_threshold_us = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--data-dir") opt.data_dir = next(arg.c_str());
    else if (arg == "--durability") {
      const char* level = next(arg.c_str());
      auto parsed = xmlac::storage::ParseDurabilityLevel(level);
      if (!parsed) {
        std::fprintf(stderr, "unknown durability level '%s'\n", level);
        return Usage(argv[0]);
      }
      opt.durability = *parsed;
    }
    else if (arg == "--checkpoint-every") opt.checkpoint_every = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--shard-threads") opt.shard_threads = std::strtoull(next(arg.c_str()), nullptr, 10);
    else if (arg == "--no-shard") opt.shard_parallel = false;
    else return Usage(argv[0]);
  }
  if (opt.clients == 0) opt.clients = 1;

  ServerOptions server_options;
  server_options.workers = opt.workers;
  server_options.max_batch = opt.max_batch;
  server_options.read_queue_capacity = opt.queue_capacity;
  server_options.write_queue_capacity = opt.queue_capacity;
  server_options.flight_recorder = opt.recorder;
  server_options.shard_parallel = opt.shard_parallel;
  server_options.shard_threads = opt.shard_threads;
  server_options.recorder.slow_threshold_us = opt.slow_threshold_us;
  server_options.durability.data_dir = opt.data_dir;
  server_options.durability.level = opt.durability;
  server_options.durability.checkpoint_every = opt.checkpoint_every;
  Server server(server_options);

  Workload workload;
  Status setup = opt.workload == "hospital"
                     ? SetupHospital(opt, &server, &workload)
                     : opt.workload == "xmark"
                           ? SetupXmark(opt, &server, &workload)
                           : Status::InvalidArgument("unknown workload '" +
                                                     opt.workload + "'");
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (server.recovered() && !opt.quiet) {
    std::printf("recovered committed state from %s (epoch resumes there)\n",
                opt.data_dir.c_str());
  }

  std::atomic<bool> stop_flag{false};
  std::atomic<uint64_t> remaining{opt.requests};
  std::vector<ClientTally> tallies(opt.clients);
  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  std::atomic<bool> health_stop{false};
  std::thread health_sampler;
  if (!opt.health_file.empty()) {
    health_sampler =
        std::thread(HealthSamplerLoop, &server, &opt, &health_stop);
  }
  Timer wall;
  for (uint64_t c = 0; c < opt.clients; ++c) {
    clients.emplace_back(ClientLoop, &server, std::cref(workload),
                         std::cref(opt), c, &stop_flag, &remaining,
                         &tallies[c]);
  }
  if (opt.requests == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms));
    stop_flag.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : clients) t.join();
  double elapsed = wall.ElapsedSeconds();
  if (health_sampler.joinable()) {
    health_stop.store(true, std::memory_order_relaxed);
    health_sampler.join();
  }
  server.Stop();
  // Final health file reflects the fully drained run.
  if (!opt.health_file.empty()) WriteHealthFile(&server, opt.health_file);
  if (!opt.flight_recorder_dir.empty()) {
    Status dumped = server.DumpFlightRecorder(opt.flight_recorder_dir);
    if (!dumped.ok()) {
      std::fprintf(stderr, "flight recorder dump failed: %s\n",
                   dumped.ToString().c_str());
      return 1;
    }
    if (!opt.quiet) {
      std::printf("flight recorder dumped to %s (trace.json, health.txt)\n",
                  opt.flight_recorder_dir.c_str());
    }
  }

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.reads += t.reads;
    total.updates += t.updates;
    total.granted += t.granted;
    total.denied += t.denied;
    total.errors += t.errors;
  }
  uint64_t requests = total.reads + total.updates;
  double rps = elapsed > 0 ? static_cast<double>(requests) / elapsed : 0;

  xmlac::obs::MetricsSnapshot metrics = server.SnapshotMetrics();
  double read_p50 = HistPercentile(metrics, "serve.request.latency_us", 0.50);
  double read_p99 = HistPercentile(metrics, "serve.request.latency_us", 0.99);
  double update_p50 = HistPercentile(metrics, "serve.update.latency_us", 0.50);
  double update_p99 = HistPercentile(metrics, "serve.update.latency_us", 0.99);
  uint64_t epochs = CounterValue(metrics, "serve.snapshot.published");
  uint64_t batches = CounterValue(metrics, "serve.batches");
  uint64_t coalesced = CounterValue(metrics, "serve.updates.applied");
  double mean_batch =
      batches > 0 ? static_cast<double>(coalesced) / static_cast<double>(batches)
                  : 0.0;

  std::printf(
      "loadgen workload=%s workers=%zu clients=%zu elapsed=%.2fs "
      "read_ratio=%.2f\n",
      opt.workload.c_str(), opt.workers, opt.clients, elapsed, opt.read_ratio);
  std::printf("throughput %.1f req/s  (%llu reads, %llu updates, %llu errors)\n",
              rps, static_cast<unsigned long long>(total.reads),
              static_cast<unsigned long long>(total.updates),
              static_cast<unsigned long long>(total.errors));
  if (!opt.quiet) {
    std::printf("reads      granted %llu  denied %llu\n",
                static_cast<unsigned long long>(total.granted),
                static_cast<unsigned long long>(total.denied));
    std::printf("read  latency p50=%.0fus p99=%.0fus\n", read_p50, read_p99);
    std::printf("update latency p50=%.0fus p99=%.0fus\n", update_p50,
                update_p99);
    std::printf("snapshots %llu published  mean batch %.2f updates\n",
                static_cast<unsigned long long>(epochs), mean_batch);
  }

  if (!opt.report_json.empty()) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"workload\": \"%s\",\n"
        "  \"workers\": %zu,\n"
        "  \"clients\": %zu,\n"
        "  \"read_ratio\": %.3f,\n"
        "  \"elapsed_s\": %.3f,\n"
        "  \"requests\": %llu,\n"
        "  \"reads\": %llu,\n"
        "  \"updates\": %llu,\n"
        "  \"errors\": %llu,\n"
        "  \"throughput_rps\": %.1f,\n"
        "  \"read_latency_p50_us\": %.1f,\n"
        "  \"read_latency_p99_us\": %.1f,\n"
        "  \"update_latency_p50_us\": %.1f,\n"
        "  \"update_latency_p99_us\": %.1f,\n"
        "  \"snapshots_published\": %llu,\n"
        "  \"mean_batch_size\": %.2f,\n",
        opt.workload.c_str(), opt.workers, opt.clients, opt.read_ratio,
        elapsed, static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(total.reads),
        static_cast<unsigned long long>(total.updates),
        static_cast<unsigned long long>(total.errors), rps, read_p50, read_p99,
        update_p50, update_p99, static_cast<unsigned long long>(epochs),
        mean_batch);
    std::string json(buf);
    json += "  \"metrics\": " + xmlac::obs::MetricsToJson(metrics) + "\n}\n";
    Status written = xmlac::WriteFile(opt.report_json, json);
    if (!written.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  return total.errors == 0 ? 0 : 1;
}
