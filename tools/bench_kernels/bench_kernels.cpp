// Deterministic kernel baseline driver behind tools/perf_gate.
//
// Runs a fixed, seeded workload per hot kernel family (the same
// primitives bench_micro_primitives times under google-benchmark) and
// emits canonical JSON with two kinds of numbers per kernel:
//
//   * exact operation counts from the opcount layer (DP cells, prefilter
//     hits/misses, hashes, gram emissions, sweep iterations) — these are
//     bit-deterministic, so the gate compares them *exactly*;
//   * the median ns per workload iteration over --repeats runs — noisy
//     by nature, so the gate applies a tolerance band.
//
// The committed BENCH_kernels.json at the repo root is this tool's
// output (plus the tolerance block); CI re-runs the tool and feeds both
// files to tools/perf_gate/perf_gate.py.
//
// Op counts exist only in an opcount-enabled build (any Debug build, or
// Release with -DVALENTINE_OPCOUNT=ON, i.e. the perf-opcount preset).
// Without them the tool still times every kernel but writes a
// timing-only document: each kernel has ns_per_iter and no "ops" key
// (an empty object would read as "zero ops"), and the top level says
// "opcounts": false. perf_gate.py refuses such a file (exit 2), so a
// counter-free run can never be compared as empty counts.
//
// --pessimize runs every workload twice per iteration — an honest
// injected regression (2x ops, ~2x ns) used by the gate's selftest and
// by the acceptance check that the gate actually fails.
//
// Usage: bench_kernels [--out PATH] [--repeats N] [--pessimize]
// Exits 0 on success, 1 on I/O failure, 2 on usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "obs/export.h"
#include "obs/opcount.h"
#include "serve/json.h"
#include "stats/emd.h"
#include "stats/histogram.h"
#include "stats/minhash.h"
#include "text/string_similarity.h"

namespace valentine {
namespace {

/// Default upper bound on fresh_ns / baseline_ns before the gate fails.
/// Wide on purpose: ns medians cross machines; the tight fence is the
/// exact op-count match.
constexpr double kDefaultNsRatioTolerance = 5.0;

struct Kernel {
  std::string name;
  std::function<void()> work;
};

/// Deterministic pseudo-words: lowercase, length in [4, 18].
std::vector<std::string> MakeWords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = 4 + rng.Index(15);
    std::string w;
    w.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.Index(26)));
    }
    words.push_back(std::move(w));
  }
  return words;
}

std::vector<Kernel> MakeKernels() {
  std::vector<Kernel> kernels;

  kernels.push_back({"levenshtein_full", [] {
    std::vector<std::string> a = MakeWords(64, 11);
    std::vector<std::string> b = MakeWords(64, 12);
    size_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += LevenshteinDistance(a[i], b[i]);
    }
    if (acc == static_cast<size_t>(-1)) std::abort();  // defeat DCE
  }});

  kernels.push_back({"levenshtein_banded", [] {
    std::vector<std::string> a = MakeWords(64, 21);
    std::vector<std::string> b = MakeWords(64, 22);
    size_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += LevenshteinWithin(a[i], b[i], 3);
    }
    if (acc == static_cast<size_t>(-1)) std::abort();
  }});

  // FuzzyJaccard's banded kernel path: bag-distance prefilter +
  // leftover Levenshtein pairing.
  kernels.push_back({"fuzzy_jaccard", [] {
    std::vector<std::string> a = MakeWords(96, 31);
    std::vector<std::string> b = MakeWords(96, 32);
    double s = FuzzyJaccard(a, b, 0.25, LevenshteinKernel::kBanded);
    if (s < 0.0) std::abort();
  }});

  kernels.push_back({"minhash_build", [] {
    std::vector<std::string> values = MakeWords(1000, 41);
    std::unordered_set<std::string> set(values.begin(), values.end());
    MinHashSignature sig = MinHashSignature::Build(set, 64);
    if (sig.empty_set() && !set.empty()) std::abort();
  }});

  kernels.push_back({"char_ngrams", [] {
    std::vector<std::string> words = MakeWords(256, 51);
    size_t acc = 0;
    for (const std::string& w : words) {
      acc += CharNGrams(w, 3).size();
    }
    if (acc == 0) std::abort();
  }});

  kernels.push_back({"emd_sweep", [] {
    Rng rng(61);
    std::vector<double> a(5000), b(5000);
    for (double& d : a) d = rng.Gaussian(100, 15);
    for (double& d : b) d = rng.Gaussian(110, 20);
    QuantileHistogram ha = QuantileHistogram::Build(a, 32);
    QuantileHistogram hb = QuantileHistogram::Build(b, 32);
    double emd = EmdBetweenHistograms(ha, hb);
    if (emd < 0.0) std::abort();
  }});

  return kernels;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--repeats N] [--pessimize]\n",
               argv0);
  return 2;
}

int Run(int argc, char** argv) {
  std::string out_path;
  int repeats = 9;
  bool pessimize = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) repeats = 1;
    } else if (arg == "--pessimize") {
      pessimize = true;
    } else {
      return Usage(argv[0]);
    }
  }

  serve::JsonValue kernels_json = serve::JsonValue::Object();
  for (const Kernel& kernel : MakeKernels()) {
    auto iterate = [&] {
      kernel.work();
      if (pessimize) kernel.work();
    };

    // Exact op counts: one iteration bracketed by thread snapshots (in a
    // counter-free build the delta is empty and the run is a warm-up).
    opcount::Snapshot before = opcount::ThreadSnapshot();
    iterate();
    opcount::Snapshot delta = opcount::ThreadSnapshot().DeltaSince(before);

    // ns/iteration median over the repeats (each timed individually so
    // a single descheduling hit can't poison the estimate).
    std::vector<double> ns;
    ns.reserve(static_cast<size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      iterate();
      auto t1 = std::chrono::steady_clock::now();
      ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::sort(ns.begin(), ns.end());
    double median = ns[ns.size() / 2];

    serve::JsonValue entry = serve::JsonValue::Object();
    entry.Set("ns_per_iter", serve::JsonValue::Number(median));
    if (opcount::kEnabled) {
      serve::JsonValue ops = serve::JsonValue::Object();
      for (opcount::Op op : opcount::AllOps()) {
        uint64_t n = delta.value(op);
        if (n == 0) continue;
        ops.Set(opcount::OpName(op),
                serve::JsonValue::Number(static_cast<double>(n)));
      }
      entry.Set("ops", std::move(ops));
    }
    kernels_json.Set(kernel.name, std::move(entry));
  }

  serve::JsonValue tolerance = serve::JsonValue::Object();
  tolerance.Set("ns_ratio",
                serve::JsonValue::Number(kDefaultNsRatioTolerance));
  serve::JsonValue doc = serve::JsonValue::Object();
  doc.Set("schema", serve::JsonValue::String("valentine-bench-kernels/1"));
  if (!opcount::kEnabled) doc.Set("opcounts", serve::JsonValue::Bool(false));
  doc.Set("repeats", serve::JsonValue::Number(repeats));
  doc.Set("tolerance", std::move(tolerance));
  doc.Set("kernels", std::move(kernels_json));

  std::string text = serve::WriteJson(doc) + "\n";
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  Status wrote = WriteTextFile(text, out_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "bench_kernels: %s\n", wrote.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace valentine

int main(int argc, char** argv) { return valentine::Run(argc, argv); }
