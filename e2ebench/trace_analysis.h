#ifndef VALENTINE_E2EBENCH_TRACE_ANALYSIS_H_
#define VALENTINE_E2EBENCH_TRACE_ANALYSIS_H_

// Reads the per-layer split of a traced serving phase out of the
// system's own telemetry (spans, access log, metrics registry), and
// checks that telemetry against what the clients saw.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/telemetry.h"

namespace e2ebench {

/// One request as its client saw it.
struct SentRequest {
  std::string trace;  ///< x-valentine-trace value the client sent
  std::string route;  ///< service route label it targets
  int status = 0;     ///< 0 = transport failure
  double rtt_ms = 0.0;
};

struct TelemetryCheck {
  uint64_t violations = 0;
  std::vector<std::string> examples;  ///< the first few, for the report

  void Violation(const std::string& what) {
    ++violations;
    if (examples.size() < 5) examples.push_back(what);
  }
};

/// Fills the serve.* and discovery.* (query path) layer metrics and
/// returns the telemetry self-check.
TelemetryCheck AnalyzeServeTrace(
    const valentine::Tracer& tracer,
    const valentine::serve::ServeTelemetry& telemetry,
    const valentine::MetricsRegistry& metrics,
    const std::vector<SentRequest>& sent, uint64_t transport_shed,
    std::map<std::string, double>* out);

/// Span attribute lookup ("" when absent).
std::string SpanAttr(const valentine::SpanRecord& span, const std::string& key);

inline double SpanMs(const valentine::SpanRecord& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

}  // namespace e2ebench

#endif  // VALENTINE_E2EBENCH_TRACE_ANALYSIS_H_
