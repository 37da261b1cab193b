#include "trace_analysis.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace e2ebench {

namespace {

// Span and log clocks both read the steady clock in whole nanoseconds;
// the client reads it through std::chrono in doubles. One microsecond
// absorbs the rounding between them.
constexpr double kClockSlackMs = 0.001;

std::string Label(const valentine::MetricsRegistry::CounterSample& sample,
                  const std::string& key) {
  for (const auto& [k, v] : sample.labels) {
    if (k == key) return v;
  }
  return "";
}

uint64_t CounterTotal(const std::vector<valentine::MetricsRegistry::CounterSample>& samples,
                      const std::string& name) {
  uint64_t total = 0;
  for (const auto& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

}  // namespace

std::string SpanAttr(const valentine::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return v;
  }
  return "";
}

TelemetryCheck AnalyzeServeTrace(
    const valentine::Tracer& tracer,
    const valentine::serve::ServeTelemetry& telemetry,
    const valentine::MetricsRegistry& metrics,
    const std::vector<SentRequest>& sent, uint64_t transport_shed,
    std::map<std::string, double>* out) {
  TelemetryCheck check;
  std::map<std::string, double>& m = *out;

  // ---- serve: access log joined to the clients' own timings.
  std::unordered_map<std::string, valentine::serve::RequestLogEntry> log;
  for (valentine::serve::RequestLogEntry& e : telemetry.RecentRequests()) {
    log[e.trace_id] = std::move(e);
  }
  const std::string text = telemetry.AccessLogText();
  const size_t log_lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  if (log_lines != sent.size()) {
    check.Violation("access log has " + std::to_string(log_lines) +
                    " lines for " + std::to_string(sent.size()) +
                    " requests sent");
  }
  std::vector<double> queue_wait, transport, bytes_in, bytes_out;
  std::map<std::string, std::vector<double>> handler;
  std::map<std::pair<std::string, std::string>, uint64_t> client_codes;
  uint64_t client_503 = 0;
  for (const SentRequest& s : sent) {
    ++client_codes[{s.route, std::to_string(s.status)}];
    if (s.status == 503) ++client_503;
    auto it = log.find(s.trace);
    if (it == log.end()) {
      check.Violation("no access-log entry for " + s.trace);
      continue;
    }
    const valentine::serve::RequestLogEntry& e = it->second;
    if (e.route != s.route || e.status != s.status) {
      check.Violation("access log disagrees with client on " + s.trace);
    }
    if (e.handler_ms > s.rtt_ms + kClockSlackMs) {
      check.Violation("handler time exceeds round trip for " + s.trace);
    }
    queue_wait.push_back(e.queue_wait_ms);
    handler[e.route].push_back(e.handler_ms);
    transport.push_back(s.rtt_ms - e.queue_wait_ms - e.handler_ms);
    bytes_in.push_back(static_cast<double>(e.bytes_in));
    bytes_out.push_back(static_cast<double>(e.bytes_out));
  }
  m["serve.queue_wait_ms"] = Mean(queue_wait);
  for (const char* route : {"joinable", "unionable", "register", "unregister"}) {
    m[std::string("serve.handler_ms.") + route] = Median(handler[route]);
  }
  m["serve.transport_ms"] = Median(transport);
  m["serve.request_bytes"] = Mean(bytes_in);
  m["serve.response_bytes"] = Mean(bytes_out);

  // ---- serve: counters against the clients' tally.
  const auto samples = metrics.CounterSamples();
  std::map<std::pair<std::string, std::string>, uint64_t> served_codes;
  for (const auto& s : samples) {
    if (s.name != "valentine_serve_requests_total") continue;
    served_codes[{Label(s, "route"), Label(s, "code")}] += s.value;
  }
  if (served_codes != client_codes) {
    check.Violation("valentine_serve_requests_total disagrees with the "
                    "clients' per-route status tally");
  }
  // The unlabelled series is the transport's accept-time shed; labelled
  // ones are request-level 503s. Every one reached a client as a 503.
  const uint64_t shed = CounterTotal(samples, "valentine_serve_shed_total");
  if (transport_shed > shed) {
    check.Violation("transport shed " + std::to_string(transport_shed) +
                    " exceeds the shed counter");
  }
  if (shed != client_503) {
    check.Violation("shed counter " + std::to_string(shed) + " but clients saw " +
                    std::to_string(client_503) + " 503s");
  }
  m["serve.shed_total"] = static_cast<double>(shed);

  // ---- discovery: span tree request > query > stage > score/cache-build.
  const std::vector<valentine::SpanRecord> spans = tracer.Snapshot();
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].span_id] = i;
    children[spans[i].parent_id].push_back(i);
  }
  auto kind_of = [&](uint64_t id) -> std::string {
    auto it = by_id.find(id);
    return it == by_id.end() ? "" : spans[it->second].kind;
  };
  std::vector<double> retrieve, enrich, rerank, score, cache_build, retrieved,
      scored;
  uint64_t lookups = 0, builds = 0;
  for (const valentine::SpanRecord& q : spans) {
    if (q.kind == "stage" && kind_of(q.parent_id) != "query") {
      check.Violation("stage span " + q.name + " not under a query span");
    }
    if (q.kind != "query") continue;
    if (kind_of(q.parent_id) != "request") {
      check.Violation("query span of " + q.trace_id +
                      " not under its serve.request span");
    }
    double stage_total = 0.0, score_ms = 0.0, build_ms = 0.0;
    std::map<std::string, const valentine::SpanRecord*> stages;
    for (size_t ci : children[q.span_id]) {
      const valentine::SpanRecord& st = spans[ci];
      if (st.kind != "stage") continue;
      stages[st.name] = &st;
      stage_total += SpanMs(st);
      if (st.start_ns < q.start_ns || st.end_ns > q.end_ns) {
        check.Violation("stage " + st.name + " outside its query span");
      }
    }
    if (stages.size() != 3 || !stages.count("discovery.retrieve") ||
        !stages.count("discovery.enrich") || !stages.count("discovery.rerank")) {
      check.Violation("query " + q.trace_id + " lacks its three stage spans");
      continue;
    }
    for (size_t ci : children[stages["discovery.rerank"]->span_id]) {
      const valentine::SpanRecord& c = spans[ci];
      if (c.kind == "score") {
        ++lookups;
        score_ms += SpanMs(c);
      } else if (c.kind == "cache-build") {
        ++builds;
        build_ms += SpanMs(c);
      }
    }
    auto entry = log.find(q.trace_id);
    if (entry != log.end() &&
        stage_total > entry->second.handler_ms + kClockSlackMs) {
      check.Violation("stage time exceeds handler time for " + q.trace_id);
    }
    retrieve.push_back(SpanMs(*stages["discovery.retrieve"]));
    enrich.push_back(SpanMs(*stages["discovery.enrich"]));
    rerank.push_back(SpanMs(*stages["discovery.rerank"]));
    score.push_back(score_ms);
    cache_build.push_back(build_ms);
    retrieved.push_back(
        std::strtod(SpanAttr(*stages["discovery.retrieve"], "candidates").c_str(),
                    nullptr));
    scored.push_back(
        std::strtod(SpanAttr(q, "candidates_scored").c_str(), nullptr));
  }
  m["discovery.retrieve_ms"] = Median(retrieve);
  m["discovery.enrich_ms"] = Median(enrich);
  m["discovery.rerank_ms"] = Median(rerank);
  m["discovery.rerank.score_ms"] = Median(score);
  m["discovery.rerank.cache_build_ms"] = Mean(cache_build);
  m["discovery.rerank.cache_lookups"] = static_cast<double>(lookups);
  m["discovery.rerank.cache_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(lookups - std::min(builds, lookups)) /
                         static_cast<double>(lookups);
  m["discovery.retrieved_per_query"] = Mean(retrieved);
  m["discovery.scored_per_query"] = Mean(scored);
  const uint64_t scored_total =
      CounterTotal(samples, "valentine_discovery_candidates_scored_total");
  m["discovery.survivor_ratio"] =
      scored_total == 0
          ? 0.0
          : static_cast<double>(
                CounterTotal(samples, "valentine_discovery_survivors_total")) /
                static_cast<double>(scored_total);
  m["discovery.fallback_total"] = static_cast<double>(
      CounterTotal(samples, "valentine_discovery_fallback_total"));
  return check;
}

}  // namespace e2ebench
