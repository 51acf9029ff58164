// Benchmark entry point: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints run metadata as a `meta {...}` line, problems as `problem: ...`
// lines, then the result object as the last line of standard output.
// Exits 1 when a check fails (the result is still printed, with
// "correct": false) and 2 on a usage error or an unfit build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "schedule.h"
#include "workloads.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Timings from unoptimized or instrumented builds say nothing about the
// program, so such builds refuse to run.
const char* UnfitBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimized build";
#else
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") return "Debug build";
  return nullptr;
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  opt.work_dir = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::LookupWorkload(workload, &spec)) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    return Usage(("unknown workload; known:" + names).c_str());
  }
  if (!have_seed) return Usage("--seed is required");
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why);
    return 2;
  }

  perfbench::RunResult r = perfbench::RunWorkload(spec, opt);
  r.meta.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  r.meta.emplace_back("trace", opt.trace ? "1" : "0");

  std::string meta = "meta {";
  for (size_t i = 0; i < r.meta.size(); ++i) {
    if (i > 0) meta += ", ";
    meta += JsonString(r.meta[i].first) + ": " + JsonString(r.meta[i].second);
  }
  std::printf("%s}\n", meta.c_str());
  for (const std::string& p : r.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.metrics[i].name) + ": {\"value\": " +
           JsonNumber(r.metrics[i].value) +
           ", \"unit\": " + JsonString(r.metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
