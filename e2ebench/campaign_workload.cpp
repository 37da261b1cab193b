// The `campaign` workload: the offline Valentine campaign
// (RunCampaignOnSuite, two threads) over a seeded, fixed-shape suite
// with all eight Table II families at the bench_full_suite scale.
//
// The unit of measurement is a whole pass over the suite. Experiment
// runtimes span three orders of magnitude across families, so a
// percentile over experiments measures which family lands in the tail,
// not speed; a pass always holds the same family mix, so throughput
// and pass latency over whole passes are steady.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/param_grid.h"
#include "matchers/embdi.h"
#include "matchers/jaccard_levenshtein.h"
#include "obs/metrics.h"
#include "obs/opcount.h"
#include "obs/trace.h"
#include "trace_analysis.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using valentine::CampaignOptions;
using valentine::CampaignReport;
using valentine::DatasetPair;
using valentine::MethodFamily;

constexpr size_t kThreads = 2;
constexpr size_t kSourceRows = 400;  // bench_common.h kSourceRows
constexpr size_t kMinPasses = 3;
// Seeds fold onto this many suite variants, whose expected report
// digests live in campaign_digests.txt.
constexpr uint64_t kVariants = 64;
constexpr const char* kDigestFile = "campaign_digests.txt";

// Per-source suites come out of BuildFabricatedSuite in a fixed order:
// 4 unionable, 4 view-unionable, 4 joinable, 4 semantically-joinable
// pairs. The timed suite takes one pair per scenario, spread over the
// three sources; the shape is the same for every seed, only the values
// differ, so every seed asks for the same work.
struct Pick {
  size_t source;
  size_t index;
};
constexpr Pick kTimedPairs[] = {{0, 3}, {1, 7}, {2, 11}, {0, 15}};

struct Suite {
  std::vector<DatasetPair> pairs;
};

bool MakeSuite(uint64_t variant, Suite* suite) {
  std::vector<valentine::Table> sources;
  sources.push_back(valentine::MakeTpcdiProspect(kSourceRows, 2026 + variant));
  sources.push_back(valentine::MakeOpenDataTable(kSourceRows, 4711 + variant));
  sources.push_back(valentine::MakeChemblAssays(kSourceRows, 99 + variant));
  std::vector<std::vector<DatasetPair>> per_source;
  for (size_t s = 0; s < sources.size(); ++s) {
    valentine::PairSuiteOptions opt;  // bench_full_suite settings
    opt.row_overlaps = {0.5};
    opt.column_overlaps = {0.5};
    opt.seed = 6 + 1000 * s + 7919 * variant;
    per_source.push_back(valentine::BuildFabricatedSuite(sources[s], opt));
    if (per_source.back().size() != 16) return false;
  }
  suite->pairs.clear();
  for (const Pick& p : kTimedPairs) suite->pairs.push_back(per_source[p.source][p.index]);
  return true;
}

// The warm-up pair: a small ChEMBL view-unionable pair, the same for
// every seed, so set-up time does not depend on the suite variant.
std::vector<DatasetPair> MakeWarmPair() {
  valentine::PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  opt.seed = 2006;
  std::vector<DatasetPair> all = valentine::BuildFabricatedSuite(
      valentine::MakeChemblAssays(kSourceRows / 2, 99), opt);
  if (all.size() != 16) return {};
  return {all[4]};
}

// All eight Table II families, heavy ones at bench_full_suite scale.
std::vector<MethodFamily> MakeFamilies(const valentine::Ontology* efo) {
  std::vector<MethodFamily> families;
  families.push_back(valentine::CupidFamily());
  families.push_back(valentine::SimilarityFloodingFamily());
  families.push_back(valentine::ComaFamily());
  families.push_back(valentine::DistributionFamily1());
  families.push_back(valentine::DistributionFamily2());
  families.push_back(valentine::SemPropFamily(efo));
  valentine::EmbdiOptions eo;
  eo.max_rows = 80;
  eo.walks_per_node = 2;
  eo.sentence_length = 20;
  eo.dimensions = 32;
  eo.epochs = 2;
  families.push_back(MethodFamily{
      "EmbDI",
      {{"word2vec (scaled)", std::make_shared<valentine::EmbdiMatcher>(eo)}}});
  MethodFamily jl{"JaccardLevenshtein", {}};
  for (int th = 4; th <= 8; ++th) {
    valentine::JaccardLevenshteinOptions o;
    o.threshold = th / 10.0;
    o.max_distinct_values = 100;
    jl.grid.push_back({"th=0." + std::to_string(th),
                       std::make_shared<valentine::JaccardLevenshteinMatcher>(o)});
  }
  families.push_back(std::move(jl));
  return families;
}

// FNV-1a over the report without its runtime fields (avg_runtime_ms,
// total_ms): everything the byte-identity contract covers.
uint64_t ReportDigest(const CampaignReport& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.num_pairs << ' ' << r.num_configurations << ' ' << r.num_experiments
      << ' ' << r.failed_experiments << '\n';
  for (const valentine::CampaignFamilyReport& f : r.families) {
    out << f.family << ' ' << f.failed_experiments << ' ' << f.retry_attempts
        << '\n';
    for (const valentine::ScenarioStats& s : f.by_scenario) {
      out << valentine::ScenarioName(s.scenario) << ' ' << s.recall.min << ' '
          << s.recall.median << ' ' << s.recall.max << ' ' << s.recall.mean
          << ' ' << s.recall.count << '\n';
    }
    for (const valentine::FamilyPairOutcome& o : f.outcomes) {
      out << o.pair_id << ' ' << o.best_recall << ' ' << o.best_config << ' '
          << o.runs << ' ' << o.failed_runs << ' ' << o.retries << '\n';
    }
    for (const auto& [code, n] : f.failure_taxonomy) {
      out << static_cast<int>(code) << ':' << n << '\n';
    }
  }
  return Fnv1a(out.str());
}

std::map<uint64_t, uint64_t> LoadDigests(const std::string& path) {
  std::map<uint64_t, uint64_t> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    unsigned long long variant = 0, digest = 0;
    if (std::sscanf(line.c_str(), "%llu %llx", &variant, &digest) == 2) {
      digests[variant] = digest;
    }
  }
  return digests;
}

struct Setup {
  std::unique_ptr<valentine::Ontology> efo;
  std::vector<MethodFamily> families;
  Suite suite;
  double fabrication_ms = 0.0;
};

// Suite fabrication, family construction and one warm-up campaign over
// a small extra pair (first-use initialisation would otherwise land in
// the first timed pass).
bool SetUp(uint64_t variant, Setup* s) {
  double t0 = NowMs();
  if (!MakeSuite(variant, &s->suite)) return false;
  s->fabrication_ms = NowMs() - t0;
  s->efo = std::make_unique<valentine::Ontology>(valentine::MakeEfoLikeOntology());
  s->families = MakeFamilies(s->efo.get());
  const std::vector<DatasetPair> warm = MakeWarmPair();
  CampaignOptions opt;
  opt.num_threads = kThreads;
  return !warm.empty() &&
         RunCampaignOnSuite(warm, s->families, opt).failed_experiments == 0;
}

struct Passes {
  std::vector<double> pass_ms;
  double elapsed_s = 0.0;
  std::vector<CampaignReport> reports;

  // Experiments per second of the median pass: every pass does the same
  // work, so one disturbed pass should not move the figure.
  double Throughput() const {
    return static_cast<double>(reports.front().num_experiments) /
           (Median(pass_ms) / 1e3);
  }
};

Passes RunPasses(const Setup& s, double seconds, valentine::Tracer* tracer,
                 valentine::MetricsRegistry* metrics) {
  CampaignOptions opt;
  opt.num_threads = kThreads;
  opt.tracer = tracer;
  opt.metrics = metrics;
  Passes p;
  const double start = NowS();
  while (p.pass_ms.size() < kMinPasses || NowS() - start < seconds) {
    double t0 = NowMs();
    p.reports.push_back(RunCampaignOnSuite(s.suite.pairs, s.families, opt));
    p.pass_ms.push_back(NowMs() - t0);
  }
  p.elapsed_s = NowS() - start;
  return p;
}

// Output check: experiment count, zero failures, and the digest of every
// pass's report against the stored expectation for this suite variant.
void CheckReports(const Passes& p, const Setup& s, uint64_t variant,
                  const std::map<uint64_t, uint64_t>& expected,
                  RunResult* result) {
  const size_t configs = valentine::TotalConfigurations(s.families);
  auto want = expected.find(variant);
  if (want == expected.end()) {
    result->Fail("no expected digest for suite variant " + std::to_string(variant));
  }
  for (const CampaignReport& r : p.reports) {
    result->attempted += r.num_experiments;
    bool ok = r.num_experiments == configs * s.suite.pairs.size() &&
              r.failed_experiments == 0 && want != expected.end() &&
              ReportDigest(r) == want->second;
    if (!ok) {
      result->failed += r.num_experiments;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "campaign report: %zu experiments (want %zu), %zu failed, "
                    "digest %016" PRIx64,
                    r.num_experiments, configs * s.suite.pairs.size(),
                    r.failed_experiments, ReportDigest(r));
      result->Fail(buf);
    }
  }
}

void MatcherLayers(const valentine::Tracer& tracer, double wall_ms,
                   RunResult* result) {
  const std::vector<valentine::SpanRecord> spans = tracer.Snapshot();
  std::map<std::string, std::string> family_of_trace;
  for (const valentine::SpanRecord& sp : spans) {
    if (sp.kind == "experiment") family_of_trace[sp.trace_id] = SpanAttr(sp, "family");
  }
  struct Acc {
    double experiment = 0, prepare = 0, score = 0;
    size_t experiments = 0;
  };
  std::map<std::string, Acc> acc;
  double busy_ms = 0.0;
  // Artifact builds run under "<experiment key>#prepare" traces.
  const std::string kPrepareSuffix = "#prepare";
  for (const valentine::SpanRecord& sp : spans) {
    std::string trace = sp.trace_id;
    if (trace.size() > kPrepareSuffix.size() &&
        trace.compare(trace.size() - kPrepareSuffix.size(),
                      kPrepareSuffix.size(), kPrepareSuffix) == 0) {
      trace.resize(trace.size() - kPrepareSuffix.size());
    }
    auto it = family_of_trace.find(trace);
    if (it == family_of_trace.end()) continue;
    Acc& a = acc[it->second];
    if (sp.kind == "experiment") {
      a.experiment += SpanMs(sp);
      ++a.experiments;
      busy_ms += SpanMs(sp);
    } else if (sp.kind == "prepare") {
      a.prepare += SpanMs(sp);
    } else if (sp.kind == "score") {
      a.score += SpanMs(sp);
    }
  }
  for (const auto& [family, a] : acc) {
    const double n = a.experiments == 0 ? 1.0 : static_cast<double>(a.experiments);
    std::string key = "matchers." + family;
    // Metric names allow letters, digits, '_', '.', '-' only.
    for (char& c : key) {
      if (c == '#') c = '_';
    }
    result->metrics[key + ".experiment_ms"] = a.experiment / n;
    result->metrics[key + ".prepare_ms"] = a.prepare / n;
    result->metrics[key + ".score_ms"] = a.score / n;
  }
  result->metrics["harness.busy_ratio"] = busy_ms / (wall_ms * kThreads);
}

uint64_t Counter(const valentine::MetricsRegistry& m, const std::string& name) {
  uint64_t total = 0;
  for (const auto& s : m.CounterSamples()) {
    if (s.name == name) total += s.value;
  }
  return total;
}

void CacheLayers(const valentine::MetricsRegistry& m, RunResult* result) {
  const double a_hits = static_cast<double>(Counter(m, "valentine_artifact_cache_hits_total"));
  const double a_miss = static_cast<double>(Counter(m, "valentine_artifact_cache_misses_total"));
  const double p_hits = static_cast<double>(Counter(m, "valentine_profile_cache_hits_total"));
  const double p_builds = static_cast<double>(Counter(m, "valentine_profile_cache_builds_total"));
  result->metrics["harness.artifact_cache_lookups"] = a_hits + a_miss;
  result->metrics["harness.artifact_cache_hit_ratio"] =
      a_hits + a_miss > 0 ? a_hits / (a_hits + a_miss) : 0.0;
  result->metrics["harness.profile_cache_lookups"] = p_hits + p_builds;
  result->metrics["harness.profile_cache_hit_ratio"] =
      p_hits + p_builds > 0 ? p_hits / (p_hits + p_builds) : 0.0;
  if (!valentine::opcount::kEnabled) {
    result->Note("valentine_opcount_total{family,op}: absent (built without "
                 "VALENTINE_OPCOUNT)");
    return;
  }
  for (const auto& s : m.CounterSamples()) {
    if (s.name != "valentine_opcount_total") continue;
    std::string labels;
    for (const auto& [k, v] : s.labels) labels += k + "=" + v + " ";
    result->Note("valentine_opcount_total{%s} %llu", labels.c_str(),
                 static_cast<unsigned long long>(s.value));
  }
}

}  // namespace

RunResult RunCampaignWorkload(const RunArgs& args) {
  RunResult result;
  const uint64_t variant = args.seed % kVariants;
  const auto expected = LoadDigests(args.data_dir + "/" + kDigestFile);
  std::vector<double> setup_s;
  for (size_t rep = 1; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    setup_s.push_back(TimeInChild([&] {
      Setup scratch;
      double t0 = NowS();
      return SetUp(variant, &scratch) ? NowS() - t0 : -1.0;
    }));
    if (setup_s.back() < 0.0) {
      result.Fail("campaign setup failed in a child process");
      return result;
    }
  }
  Setup setup;
  double t0 = NowS();
  if (!SetUp(variant, &setup)) {
    result.Fail("campaign setup failed");
    return result;
  }
  setup_s.push_back(NowS() - t0);
  Passes plain = RunPasses(setup, args.seconds, nullptr, nullptr);
  CheckReports(plain, setup, variant, expected, &result);
  const double throughput = plain.Throughput();
  result.Note("campaign: suite variant %llu, %zu pairs x %zu configurations, "
              "%zu passes in %.3f s on %zu threads",
              static_cast<unsigned long long>(variant), setup.suite.pairs.size(),
              valentine::TotalConfigurations(setup.families),
              plain.pass_ms.size(), plain.elapsed_s, kThreads);
  result.Note("pass latency: median %.4f ms, max %.4f ms over %zu passes",
              Median(plain.pass_ms),
              *std::max_element(plain.pass_ms.begin(), plain.pass_ms.end()),
              plain.pass_ms.size());
  for (const valentine::CampaignFamilyReport& f : plain.reports.back().families) {
    result.Note("  %-20s mean experiment %.4f ms (Table IV)", f.family.c_str(),
                f.avg_runtime_ms);
  }
  result.Note("error_ratio %.6f (%llu of %llu)",
              static_cast<double>(result.failed) / result.attempted,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!args.trace) {
    result.Note("set-ups (s):%s", Join(setup_s).c_str());
    result.metrics["setup_s"] = Median(setup_s);
    result.metrics["throughput_per_s"] = throughput;
    result.metrics["p50_ms"] = Median(plain.pass_ms);
    result.metrics["tail_ms"] =
        *std::max_element(plain.pass_ms.begin(), plain.pass_ms.end());
    return result;
  }

  valentine::Tracer tracer;
  valentine::MetricsRegistry metrics;
  Passes traced = RunPasses(setup, args.seconds, &tracer, &metrics);
  CheckReports(traced, setup, variant, expected, &result);
  MatcherLayers(tracer, traced.elapsed_s * 1e3, &result);
  CacheLayers(metrics, &result);
  result.metrics["fabrication.suite_ms"] = setup.fabrication_ms;
  result.metrics["obs.trace_overhead_ratio"] = traced.Throughput() / throughput;
  return result;
}

int PrintCampaignDigest(uint64_t variant) {
  Setup s;
  if (variant >= kVariants || !MakeSuite(variant, &s.suite)) return 1;
  valentine::Ontology efo = valentine::MakeEfoLikeOntology();
  s.families = MakeFamilies(&efo);
  CampaignOptions opt;
  opt.num_threads = kThreads;
  CampaignReport r = RunCampaignOnSuite(s.suite.pairs, s.families, opt);
  if (r.failed_experiments != 0) return 1;
  std::printf("%llu %016" PRIx64 "\n", static_cast<unsigned long long>(variant),
              ReportDigest(r));
  return 0;
}

}  // namespace e2ebench
