// End-to-end benchmark entry point.
//
//   e2ebench --workload query|ingest|campaign --seed N --seconds S
//            --trace 0|1 [--data DIR]
//   e2ebench --print-digest VARIANT
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics; traced runs (--trace 1) carry the per-layer
// metrics, each listed in the report with the end-to-end metric and
// workload it should move. Exits 1 when any output check fails or the
// workload overruns kHangLimitS, and 2 on bad arguments. See
// BENCHMARK.md.

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric @ workload (per-layer only)
  const char* workloads;
};

// End-to-end metrics: every workload reports all of them. p50_ms and
// tail_ms are the latency of the workload's unit of work: a discovery
// request (query), a mutation plus its follow-up query (ingest), a
// whole campaign pass (campaign; tail = slowest pass).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "", ""},
    {"peak_rss_mb", "MB", "", ""},
    {"throughput_per_s", "1/s", "", ""},
    {"p50_ms", "ms", "", ""},
    {"tail_ms", "ms", "", ""},
};

// Per-layer metrics. A traced run prints every one; a layer its
// workload does not exercise reads 0 and is marked n/a in the report.
constexpr MetricDef kPerLayer[] = {
    {"serve.queue_wait_ms", "ms", "tail_ms @ query", "query ingest"},
    {"serve.handler_ms.joinable", "ms", "p50_ms @ query", "query ingest"},
    {"serve.handler_ms.unionable", "ms", "p50_ms @ query", "query"},
    {"serve.handler_ms.register", "ms", "p50_ms (mutation) @ ingest", "ingest"},
    {"serve.handler_ms.unregister", "ms", "p50_ms (mutation) @ ingest", "ingest"},
    {"serve.transport_ms", "ms", "p50_ms @ query", "query ingest"},
    {"serve.decode_ms", "ms", "p50_ms @ query, p50_ms (mutation) @ ingest", "query ingest"},
    {"serve.render_ms", "ms", "p50_ms @ query", "query"},
    {"serve.request_bytes", "bytes", "throughput_per_s @ query", "query ingest"},
    {"serve.response_bytes", "bytes", "throughput_per_s @ query", "query ingest"},
    {"serve.shed_total", "count", "error_ratio @ query", "query ingest"},
    {"discovery.retrieve_ms", "ms", "p50_ms @ query", "query ingest"},
    {"discovery.enrich_ms", "ms", "p50_ms @ query", "query ingest"},
    {"discovery.rerank_ms", "ms", "p50_ms @ query and @ ingest", "query ingest"},
    {"discovery.rerank.score_ms", "ms", "p50_ms @ query and @ ingest", "query ingest"},
    {"discovery.rerank.cache_build_ms", "ms", "p50_ms (query) @ ingest", "query ingest"},
    {"discovery.rerank.cache_hit_ratio", "ratio", "p50_ms (query) @ ingest", "query ingest"},
    {"discovery.rerank.cache_lookups", "count", "base of cache_hit_ratio", "query ingest"},
    {"discovery.retrieved_per_query", "count", "p50_ms @ query", "query ingest"},
    {"discovery.scored_per_query", "count", "p50_ms @ query", "query ingest"},
    {"discovery.survivor_ratio", "ratio", "p50_ms @ query", "query ingest"},
    {"discovery.fallback_total", "count", "error_ratio @ query", "query ingest"},
    {"repository.add_ms", "ms", "p50_ms (mutation) @ ingest", "ingest"},
    {"discovery.index_build_ms", "ms", "p50_ms (mutation) @ ingest, setup_s @ query and ingest", "ingest"},
    {"discovery.index_build_tables", "count", "p50_ms (mutation) @ ingest", "ingest"},
    {"discovery.engine_teardown_ms", "ms", "p50_ms (mutation) @ ingest", "ingest"},
    {"discovery.index_build_ms_per_100_tables", "ms", "p50_ms (mutation) @ ingest", "ingest"},
    {"discovery.engine_teardown_ms_per_100_tables", "ms", "p50_ms (mutation) @ ingest", "ingest"},
#define E2E_FAMILY(F)                                                         \
  {"matchers." F ".experiment_ms", "ms", "throughput_per_s @ campaign", "campaign"}, \
  {"matchers." F ".prepare_ms", "ms", "throughput_per_s @ campaign", "campaign"},    \
  {"matchers." F ".score_ms", "ms", "throughput_per_s @ campaign", "campaign"}
    E2E_FAMILY("Cupid"),
    E2E_FAMILY("SimilarityFlooding"),
    E2E_FAMILY("COMA"),
    E2E_FAMILY("Distribution_1"),
    E2E_FAMILY("Distribution_2"),
    E2E_FAMILY("SemProp"),
    E2E_FAMILY("EmbDI"),
    E2E_FAMILY("JaccardLevenshtein"),
#undef E2E_FAMILY
    {"harness.artifact_cache_hit_ratio", "ratio", "throughput_per_s @ campaign", "campaign"},
    {"harness.artifact_cache_lookups", "count", "base of artifact_cache_hit_ratio", "campaign"},
    {"harness.profile_cache_hit_ratio", "ratio", "throughput_per_s @ campaign", "campaign"},
    {"harness.profile_cache_lookups", "count", "base of profile_cache_hit_ratio", "campaign"},
    {"harness.busy_ratio", "ratio", "throughput_per_s @ campaign", "campaign"},
    {"fabrication.suite_ms", "ms", "setup_s @ campaign", "campaign"},
    {"obs.trace_overhead_ratio", "ratio", "throughput_per_s (traced/untraced)", "query ingest campaign"},
    {"obs.telemetry_violations", "count", "self-check, must be 0", "query ingest"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload query|ingest|campaign --seed N "
               "--seconds S --trace 0|1 [--data DIR]\n"
               "       e2ebench --print-digest VARIANT\n");
  return 2;
}

bool Applies(const MetricDef& def, const std::string& workload) {
  std::string list = std::string(" ") + def.workloads + " ";
  return list.find(" " + workload + " ") != std::string::npos;
}

void PrintResult(const RunResult& r, const std::string& workload, bool trace) {
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, std::isfinite(value) ? value : 0.0,
                  def.unit);
    json += buf;
    first = false;
  };
  if (!trace) {
    for (const MetricDef& def : kEndToEnd) {
      auto it = r.metrics.find(def.name);
      double value = it == r.metrics.end() ? 0.0 : it->second;
      std::printf("%-34s %16.6f %s\n", def.name, value, def.unit);
      emit(def, value);
    }
  } else {
    std::printf("%-46s %16s %-6s  moves\n", "per-layer metric", "value", "unit");
    for (const MetricDef& def : kPerLayer) {
      auto it = r.metrics.find(def.name);
      const bool measured = it != r.metrics.end() && Applies(def, workload);
      double value = measured ? it->second : 0.0;
      if (measured) {
        std::printf("%-46s %16.6f %-6s  %s\n", def.name, value, def.unit, def.moves);
      } else {
        std::printf("%-46s %16s %-6s  (layer not exercised by %s)\n", def.name,
                    "n/a", def.unit, workload.c_str());
      }
      emit(def, value);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// A workload that runs this long is hung, not slow (a normal traced run
// takes under 80 s); the run must then fail within the 180 s a benchmark
// run may take instead of outliving it.
constexpr double kHangLimitS = 150.0;

// Prints a failed result and ends the process when the workload has not
// finished by the limit. Threads cannot be cancelled, so exiting is the
// only way to stop a hung one.
class Watchdog {
 public:
  Watchdog(const std::string& workload, bool trace)
      : thread_([this, workload, trace] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(kHangLimitS),
                           [this] { return done_; })) {
            return;
          }
          RunResult hung;
          hung.attempted = 1;
          hung.failed = 1;
          hung.Fail("workload did not finish within 150 s: the program hung");
          PrintResult(hung, workload, trace);
          std::_Exit(1);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload, data_dir = "e2ebench";
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--print-digest") {
      return PrintCampaignDigest(std::strtoull(value, nullptr, 10));
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data") {
      data_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();
  args.data_dir = data_dir;
  RunResult (*run)(const RunArgs&) = nullptr;
  if (workload == "query") run = RunQueryWorkload;
  if (workload == "ingest") run = RunIngestWorkload;
  if (workload == "campaign") run = RunCampaignWorkload;
  if (run == nullptr) return Usage();
  RunResult result;
  {
    Watchdog watchdog(workload, args.trace);
    result = run(args);
  }
  if (!args.trace) result.metrics["peak_rss_mb"] = PeakRssMb();
  if (result.attempted == 0) result.Fail("no operation attempted");
  PrintResult(result, workload, args.trace);
  return result.correct ? 0 : 1;
}
