// The `query` and `ingest` workloads: an in-process HttpServer over a
// DiscoveryService preloaded through RegisterTable, driven by
// closed-loop keep-alive clients. See BENCHMARK.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "discovery/discovery.h"
#include "http_client.h"
#include "lake.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/telemetry.h"
#include "trace_analysis.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using valentine::DiscoveryEngine;
using valentine::DiscoveryOptions;
using valentine::DiscoveryResult;
using valentine::Status;
using valentine::Table;
using valentine::TableRepository;
using valentine::serve::JsonValue;

constexpr size_t kFamilies = 24;  // 240 registered tables
constexpr size_t kTopK = 8;       // below the family size (see bench_repository)
constexpr size_t kQueryClients = 2;
constexpr size_t kServerWorkers = 2;
// Shard indices for query tables: far above anything ingest registers,
// so a query shard is never itself in the repository.
constexpr size_t kQueryShardBase = 1000000;

// Everything observability needs in a traced phase; null when untraced,
// so the end-to-end figures are measured with telemetry off.
struct Obs {
  valentine::Tracer tracer;
  valentine::MetricsRegistry metrics;
  valentine::serve::ServeTelemetry telemetry;

  Obs() : telemetry(TelemetryOptions(this)) {}

  static valentine::serve::ServeTelemetry::Options TelemetryOptions(Obs* o) {
    valentine::serve::ServeTelemetry::Options opt;
    opt.metrics = &o->metrics;
    opt.tracer = &o->tracer;
    opt.trace_buffer_capacity = size_t{1} << 22;  // keep every request
    opt.keep_access_log_in_memory = true;
    return opt;
  }
};

// One served repository.
struct Fixture {
  std::unique_ptr<Obs> obs;
  std::unique_ptr<valentine::serve::DiscoveryService> service;
  std::unique_ptr<valentine::serve::HttpServer> server;

  ~Fixture() { Reset(); }
  // The server borrows the service and both borrow obs: tear down in
  // that order.
  void Reset() {
    server.reset();
    service.reset();
    obs.reset();
  }
};

JsonValue TableJson(const Table& t) {
  JsonValue root = JsonValue::Object();
  root.Set("name", JsonValue::String(t.name()));
  JsonValue columns = JsonValue::Array();
  for (const valentine::Column& c : t.columns()) {
    JsonValue col = JsonValue::Object();
    col.Set("name", JsonValue::String(c.name()));
    col.Set("type", JsonValue::String("string"));
    JsonValue values = JsonValue::Array();
    for (const valentine::Value& v : c.values()) {
      values.Append(JsonValue::String(v.string_value()));
    }
    col.Set("values", std::move(values));
    columns.Append(std::move(col));
  }
  root.Set("columns", std::move(columns));
  return root;
}

struct Query {
  size_t family = 0;
  std::string mode;  // "joinable" | "unionable"
  std::string path;
  std::string body;
  Table table;
};

Query MakeQuery(const Lake& lake, size_t family, const std::string& mode,
                size_t shard) {
  Query q;
  q.family = family;
  q.mode = mode;
  q.path = "/v1/discovery/" + mode;
  q.table = lake.Shard(family, kQueryShardBase + shard);
  JsonValue body = JsonValue::Object();
  body.Set("k", JsonValue::Number(static_cast<double>(kTopK)));
  body.Set("table", TableJson(q.table));
  q.body = valentine::serve::WriteJson(body);
  return q;
}

std::string MutationBody(const char* verb, const std::string& name,
                         size_t tables) {
  JsonValue body = JsonValue::Object();
  body.Set(verb, JsonValue::String(name));
  body.Set("tables", JsonValue::Number(static_cast<double>(tables)));
  return valentine::serve::WriteJson(body);
}

// The engine a client's answer must match: built from the given
// repository with the service's (default) options.
std::unique_ptr<DiscoveryEngine> ReferenceEngine(TableRepository repo) {
  auto built = DiscoveryEngine::FromRepository(DiscoveryOptions(),
                                               std::move(repo));
  if (!built.ok()) return nullptr;
  return std::move(built).ValueOrDie();
}

std::string ReferenceBody(const DiscoveryEngine& engine, const Query& q,
                          std::vector<DiscoveryResult>* results_out = nullptr) {
  std::vector<DiscoveryResult> results =
      q.mode == "joinable" ? engine.FindJoinable(q.table, kTopK)
                           : engine.FindUnionable(q.table, kTopK);
  std::string body = valentine::serve::RenderDiscoveryResults(
      q.table.name(), q.mode, kTopK, results);
  if (results_out != nullptr) *results_out = std::move(results);
  return body;
}

// Builds the service, registers the lake in a seeded order through the
// public RegisterTable, and starts the server.
Status BuildFixture(const Lake& lake, uint64_t seed, bool traced,
                    Fixture* f) {
  if (traced) f->obs = std::make_unique<Obs>();
  valentine::serve::ServiceOptions so;
  if (traced) {
    so.metrics = &f->obs->metrics;
    so.tracer = &f->obs->tracer;
    so.telemetry = &f->obs->telemetry;
  }
  f->service = std::make_unique<valentine::serve::DiscoveryService>(so);
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t fam = 0; fam < lake.families(); ++fam) {
    for (size_t s = 0; s < Lake::kShardsPerFamily; ++s) order.push_back({fam, s});
  }
  Rng rng(seed ^ 0x5e7);
  Shuffle(order, rng);
  for (const auto& [fam, s] : order) {
    Status st = f->service->RegisterTable(lake.Shard(fam, s));
    if (!st.ok()) return st;
  }
  valentine::serve::ServerOptions opt;
  opt.workers = kServerWorkers;
  opt.max_requests_per_connection = SIZE_MAX;  // one connection per client
  if (traced) {
    opt.metrics = &f->obs->metrics;
    opt.telemetry = &f->obs->telemetry;
  }
  f->server = std::make_unique<valentine::serve::HttpServer>(f->service.get(),
                                                            opt);
  return f->server->Start();
}

// Per-request timings and answers of one closed-loop client.
struct ClientLog {
  std::vector<SentRequest> sent;
  std::vector<Sample> ok;
  uint64_t failed = 0;
};

std::string TraceId(bool traced, const char* client, size_t n) {
  std::string id;
  if (traced) {
    id = client;
    id += '.';
    id += std::to_string(n);
  }
  return id;
}

// ---------------------------------------------------------------- query

struct QueryPhase {
  std::vector<double> setup_s;  // the last one in this process
  double elapsed_s = 0.0;
  double start_s = 0.0;
  uint64_t attempted = 0, failed = 0;
  std::vector<Sample> ok;
  std::vector<SentRequest> sent;
  std::vector<Query> pool;
  std::vector<std::string> reference_bodies;
  std::vector<std::vector<DiscoveryResult>> reference_results;
};

// Sends every pooled query once, so the reranker's artifact cache holds
// every registered table before timing starts. Returns the served
// bodies (checked against the reference engine after the run).
bool WarmUp(uint16_t port, const std::vector<Query>& pool, bool traced,
            std::vector<std::string>* bodies, std::vector<SentRequest>* sent) {
  KeepAliveClient client(port);
  bodies->clear();
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string trace = TraceId(traced, "warm", i);
    double t0 = NowMs();
    HttpReply r = client.Send("POST", pool[i].path, pool[i].body, trace);
    double t1 = NowMs();
    if (traced) sent->push_back({trace, pool[i].mode, r.status, t1 - t0});
    if (r.status != 200) return false;
    bodies->push_back(std::move(r.body));
  }
  return true;
}

// Builds the lake and its query pool, the service (preloaded through
// RegisterTable) and the server, then warms up. Returns the seconds it
// took, or -1 on failure.
double SetUpQuery(const RunArgs& args, bool traced, Fixture* f,
                  QueryPhase* phase, std::vector<std::string>* served,
                  RunResult* result) {
  const double t0 = NowS();
  Lake lake(args.seed, kFamilies);
  for (size_t fam = 0; fam < lake.families(); ++fam) {
    phase->pool.push_back(MakeQuery(lake, fam, "joinable", 0));
    phase->pool.push_back(MakeQuery(lake, fam, "unionable", 1));
  }
  Status st = BuildFixture(lake, args.seed, traced, f);
  if (!st.ok()) {
    result->Fail("query setup: " + st.ToString());
    return -1.0;
  }
  if (!WarmUp(f->server->port(), phase->pool, traced, served, &phase->sent)) {
    result->Fail("query warm-up request failed");
    return -1.0;
  }
  return NowS() - t0;
}

QueryPhase RunQueryPhase(const RunArgs& args, bool traced, size_t setups,
                         Fixture* f, RunResult* result) {
  QueryPhase phase;
  std::vector<double> setup_times;
  for (size_t rep = 1; rep < setups; ++rep) {
    setup_times.push_back(TimeInChild([&] {
      Fixture fixture;
      QueryPhase unused;
      std::vector<std::string> bodies;
      RunResult ignored;
      return SetUpQuery(args, traced, &fixture, &unused, &bodies, &ignored);
    }));
    if (setup_times.back() < 0.0) {
      result->Fail("query setup failed in a child process");
      return phase;
    }
  }
  std::vector<std::string> served;
  setup_times.push_back(SetUpQuery(args, traced, f, &phase, &served, result));
  if (!result->correct) return phase;
  phase.setup_s = setup_times;

  std::vector<ClientLog> logs(kQueryClients);
  std::vector<std::thread> clients;
  const double start = NowS();
  const double deadline = start + args.seconds;
  phase.start_s = start;
  std::vector<double> finished(kQueryClients, start);
  for (size_t c = 0; c < kQueryClients; ++c) {
    clients.emplace_back([&, c] {
      KeepAliveClient client(f->server->port());
      Rng rng(args.seed * 31 + c + 1);
      ClientLog& log = logs[c];
      const std::string name = "q" + std::to_string(c);
      for (size_t n = 0; NowS() < deadline; ++n) {
        const size_t i = rng.Below(phase.pool.size());
        const Query& q = phase.pool[i];
        const std::string trace = TraceId(traced, name.c_str(), n);
        double t0 = NowMs();
        HttpReply r = client.Send("POST", q.path, q.body, trace);
        double t1 = NowMs();
        if (traced) log.sent.push_back({trace, q.mode, r.status, t1 - t0});
        if (r.status == 200 && r.body == served[i]) {
          log.ok.push_back({t1 / 1e3, t1 - t0});
        } else {
          ++log.failed;
        }
      }
      finished[c] = NowS();
    });
  }
  for (std::thread& t : clients) t.join();
  phase.elapsed_s = *std::max_element(finished.begin(), finished.end()) - start;
  for (ClientLog& log : logs) {
    phase.attempted += log.ok.size() + log.failed;
    phase.failed += log.failed;
    phase.ok.insert(phase.ok.end(), log.ok.begin(), log.ok.end());
    phase.sent.insert(phase.sent.end(), log.sent.begin(), log.sent.end());
  }
  std::sort(phase.ok.begin(), phase.ok.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });

  // Output check: every served body equals RenderDiscoveryResults over a
  // direct engine call on the same snapshot. Timed bodies were compared
  // byte-for-byte with the warm-up body of the same query above.
  std::unique_ptr<DiscoveryEngine> reference =
      ReferenceEngine(f->service->Snapshot()->repository());
  if (reference == nullptr) {
    result->Fail("query: reference engine build failed");
    return phase;
  }
  phase.reference_results.resize(phase.pool.size());
  for (size_t i = 0; i < phase.pool.size(); ++i) {
    phase.reference_bodies.push_back(ReferenceBody(
        *reference, phase.pool[i], &phase.reference_results[i]));
    if (phase.reference_bodies[i] != served[i]) {
      result->Fail("query: served body differs from direct engine for " +
                   phase.pool[i].table.name() + " (" + phase.pool[i].mode +
                   ")");
      phase.failed = phase.attempted;
    }
  }
  return phase;
}

// Median over bodies of ParseJson + TableFromJson, as the service runs
// them on a request.
double DecodeMs(const std::vector<std::string>& bodies, bool nested_table,
                RunResult* result) {
  std::vector<double> per_body;
  for (const std::string& body : bodies) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = NowMs();
      auto parsed = valentine::serve::ParseJson(body);
      const JsonValue* table = nullptr;
      if (parsed.ok()) {
        table = nested_table ? parsed.ValueOrDie().Find("table")
                             : &parsed.ValueOrDie();
      }
      if (table == nullptr || !valentine::serve::TableFromJson(*table).ok()) {
        result->Fail("decode: a request body does not parse");
        return 0.0;
      }
      reps.push_back(NowMs() - t0);
    }
    per_body.push_back(Median(reps));
  }
  return Median(per_body);
}

}  // namespace

RunResult RunQueryWorkload(const RunArgs& args) {
  RunResult result;
  Fixture untraced;
  QueryPhase plain = RunQueryPhase(args, /*traced=*/false,
                                   args.trace ? 1 : kSetupRepeats, &untraced,
                                   &result);
  untraced.Reset();
  result.attempted = plain.attempted;
  result.failed = plain.failed;
  if (!result.correct) return result;
  const std::vector<double> latencies = Latencies(plain.ok);
  const std::vector<double> rates =
      RatePerWindow(plain.ok, plain.start_s, args.seconds);
  const double throughput = Median(rates);
  const Tail tail = TailOf(latencies);
  result.Note("requests/s per window:%s", Join(rates).c_str());
  result.Note("query: %zu requests in %.3f s from %zu clients on %zu workers",
              plain.ok.size(), plain.elapsed_s, kQueryClients,
              kServerWorkers);
  result.Note("query_p50_ms %.4f ms; query_tail_ms %.4f ms (p%.2f over %zu "
              "blocks, n=%zu)",
              Median(latencies), tail.value, tail.percentile, tail.blocks,
              tail.samples);
  result.Note("error_ratio %.6f (%llu of %llu)",
              static_cast<double>(plain.failed) / plain.attempted,
              static_cast<unsigned long long>(plain.failed),
              static_cast<unsigned long long>(plain.attempted));
  if (!args.trace) {
    result.Note("set-ups (s):%s", Join(plain.setup_s).c_str());
    result.metrics["setup_s"] = Median(plain.setup_s);
    result.metrics["throughput_per_s"] = throughput;
    result.metrics["p50_ms"] = Median(latencies);
    result.metrics["tail_ms"] = tail.value;
    if (tail.samples < 11) result.Fail("query: fewer than 11 samples");
    return result;
  }

  Fixture traced;
  QueryPhase phase = RunQueryPhase(args, /*traced=*/true, 1, &traced, &result);
  if (!result.correct) return result;
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  TelemetryCheck stats =
      AnalyzeServeTrace(traced.obs->tracer, traced.obs->telemetry,
                        traced.obs->metrics, phase.sent,
                        traced.server->shed_total(), &result.metrics);
  result.metrics["obs.telemetry_violations"] =
      static_cast<double>(stats.violations);
  for (const std::string& v : stats.examples) result.Note("violation: %s", v.c_str());
  if (stats.violations > 0) result.Fail("telemetry self-check violations");
  std::vector<std::string> bodies;
  for (const Query& q : phase.pool) bodies.push_back(q.body);
  result.metrics["serve.decode_ms"] = DecodeMs(bodies, /*nested_table=*/true, &result);
  std::vector<double> render;
  for (size_t i = 0; i < phase.pool.size(); ++i) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = NowMs();
      std::string body = valentine::serve::RenderDiscoveryResults(
          phase.pool[i].table.name(), phase.pool[i].mode, kTopK,
          phase.reference_results[i]);
      reps.push_back(NowMs() - t0);
      if (body != phase.reference_bodies[i]) result.Fail("render unstable");
    }
    render.push_back(Median(reps));
  }
  result.metrics["serve.render_ms"] = Median(render);
  result.metrics["obs.trace_overhead_ratio"] =
      Median(RatePerWindow(phase.ok, phase.start_s, args.seconds)) /
      throughput;
  return result;
}

// --------------------------------------------------------------- ingest

namespace {

// The seeded mutation sequence: families are visited round-robin in a
// seeded order; each visit registers a fresh shard of the family and then
// deletes a random registered shard of it. Every seed therefore mutates
// every family equally often (medium and small alike) and the repository
// stays within one table of its preload size.
class IngestPlan {
 public:
  struct Step {
    bool is_register = true;
    size_t family = 0;
    size_t shard = 0;  // register steps: Lake::Shard(family, shard)
    std::string name;
  };

  IngestPlan(const Lake& lake, uint64_t seed)
      : lake_(lake), rng_(seed ^ 0x16e57), registered_(lake.families()),
        next_shard_(lake.families(), Lake::kShardsPerFamily) {
    for (size_t fam = 0; fam < lake.families(); ++fam) {
      order_.push_back(fam);
      for (size_t s = 0; s < Lake::kShardsPerFamily; ++s) {
        registered_[fam].push_back(lake.ShardName(fam, s));
      }
    }
    Shuffle(order_, rng_);
  }

  Step Next() {
    Step step;
    step.family = order_[(count_ / 2) % order_.size()];
    step.is_register = count_++ % 2 == 0;
    std::vector<std::string>& names = registered_[step.family];
    if (step.is_register) {
      step.shard = next_shard_[step.family]++;
      step.name = lake_.ShardName(step.family, step.shard);
      names.push_back(step.name);
    } else {
      size_t victim = rng_.Below(names.size());
      step.name = names[victim];
      names[victim] = names.back();
      names.pop_back();
    }
    return step;
  }

 private:
  const Lake& lake_;
  Rng rng_;
  std::vector<size_t> order_;
  std::vector<std::vector<std::string>> registered_;
  std::vector<size_t> next_shard_;
  size_t count_ = 0;
};

// What the replay needs of one round. The served answer is kept as a
// 64-bit digest, not the body: stored bodies would make the benchmark's
// own memory grow with the number of rounds and leak machine speed into
// peak_rss_mb.
struct IngestRecord {
  IngestPlan::Step step;
  uint64_t query_digest = 0;
};

struct IngestPhase {
  std::vector<double> setup_s;  // the last one in this process
  double elapsed_s = 0.0;
  uint64_t attempted = 0, failed = 0;
  double start_s = 0.0;
  std::vector<double> mutation_ms, query_ms;
  std::vector<Sample> rounds;
  std::vector<SentRequest> sent;
  std::vector<IngestRecord> records;
  std::vector<std::string> decode_bodies;  // first register bodies
  std::vector<Query> queries;  // one joinable query per family
};

// Builds the service (preloaded through RegisterTable) and the server,
// and warms up with one query per family, as `query` does, so the first
// timed query does not also pay for a cold preload engine. Returns the
// seconds it took, or -1 on failure.
double SetUpIngest(const RunArgs& args, bool traced, Fixture* f,
                   IngestPhase* phase, RunResult* result) {
  const double t0 = NowS();
  Lake lake(args.seed, kFamilies);
  for (size_t fam = 0; fam < lake.families(); ++fam) {
    phase->queries.push_back(MakeQuery(lake, fam, "joinable", 0));
  }
  Status st = BuildFixture(lake, args.seed, traced, f);
  if (!st.ok()) {
    result->Fail("ingest setup: " + st.ToString());
    return -1.0;
  }
  std::vector<std::string> unused;
  if (!WarmUp(f->server->port(), phase->queries, traced, &unused,
              &phase->sent)) {
    result->Fail("ingest warm-up request failed");
    return -1.0;
  }
  return NowS() - t0;
}

IngestPhase RunIngestPhase(const RunArgs& args, bool traced, size_t setups,
                           const Lake& lake, Fixture* f, RunResult* result) {
  IngestPhase phase;
  std::vector<double> setup_times;
  for (size_t rep = 1; rep < setups; ++rep) {
    setup_times.push_back(TimeInChild([&] {
      Fixture fixture;
      IngestPhase unused;
      RunResult ignored;
      return SetUpIngest(args, traced, &fixture, &unused, &ignored);
    }));
    if (setup_times.back() < 0.0) {
      result->Fail("ingest setup failed in a child process");
      return phase;
    }
  }
  setup_times.push_back(SetUpIngest(args, traced, f, &phase, result));
  if (!result->correct) return phase;
  phase.setup_s = setup_times;

  IngestPlan plan(lake, args.seed);
  KeepAliveClient client(f->server->port());
  size_t tables = lake.families() * Lake::kShardsPerFamily;
  const double start = NowS();
  const double deadline = start + args.seconds;
  phase.start_s = start;
  for (size_t n = 0; NowS() < deadline; ++n) {
    IngestRecord rec{plan.Next(), 0};
    const IngestPlan::Step& step = rec.step;
    const std::string body =
        step.is_register ? valentine::serve::WriteJson(TableJson(
                               lake.Shard(step.family, step.shard)))
                         : "";
    if (step.is_register && phase.decode_bodies.size() < 64) {
      phase.decode_bodies.push_back(body);
    }
    const std::string mtrace = TraceId(traced, "m", n);
    double t0 = NowMs();
    HttpReply m = step.is_register
                      ? client.Send("POST", "/v1/tables", body, mtrace)
                      : client.Send("DELETE", "/v1/tables/" + step.name, "",
                                    mtrace);
    double t1 = NowMs();
    if (step.is_register) {
      ++tables;
    } else {
      --tables;
    }
    const Query& q = phase.queries[step.family];
    const std::string qtrace = TraceId(traced, "r", n);
    double t2 = NowMs();
    HttpReply r = client.Send("POST", q.path, q.body, qtrace);
    double t3 = NowMs();
    if (traced) {
      phase.sent.push_back({mtrace, step.is_register ? "register" : "unregister",
                            m.status, t1 - t0});
      phase.sent.push_back({qtrace, q.mode, r.status, t3 - t2});
    }
    phase.attempted += 2;
    const bool mutation_ok =
        m.status == 200 &&
        m.body == MutationBody(step.is_register ? "registered" : "unregistered",
                               step.name, tables);
    if (!mutation_ok) ++phase.failed;
    if (r.status != 200) ++phase.failed;
    if (mutation_ok && r.status == 200) {
      phase.mutation_ms.push_back(t1 - t0);
      phase.query_ms.push_back(t3 - t2);
      phase.rounds.push_back({t3 / 1e3, t3 - t0});
    }
    rec.query_digest = Fnv1a(r.body);
    phase.records.push_back(std::move(rec));
  }
  phase.elapsed_s = NowS() - start;
  return phase;
}

struct MutationTimings {
  std::vector<double> add_ms, build_ms, teardown_ms, build_tables;
};

// Output check: replays the mutation sequence on the benchmark's own
// repository (same tables, built here from scratch) and compares every
// follow-up answer with a fresh engine's; returns the mismatches. With
// `timings`, also times the public calls the service makes per mutation
// at the same sizes.
uint64_t ReplayIngest(const Lake& lake, const IngestPhase& phase,
                      MutationTimings* timings, RunResult* result,
                      TableRepository* final_repo) {
  valentine::LshOptions lsh;
  valentine::RepositoryOptions ro;
  ro.signature_size = lsh.bands * lsh.rows_per_band;
  TableRepository repo(ro);
  for (size_t fam = 0; fam < lake.families(); ++fam) {
    for (size_t s = 0; s < Lake::kShardsPerFamily; ++s) {
      if (!repo.AddTable(lake.Shard(fam, s)).ok()) {
        result->Fail("ingest replay: preload failed");
        return phase.records.size();
      }
    }
  }
  uint64_t mismatches = 0;
  for (const IngestRecord& rec : phase.records) {
    const IngestPlan::Step& step = rec.step;
    Table table = step.is_register ? lake.Shard(step.family, step.shard)
                                   : Table();
    double t0 = NowMs();
    Status st = step.is_register ? repo.AddTable(std::move(table)).status()
                                 : repo.RemoveTable(step.name);
    double t1 = NowMs();
    if (!st.ok()) {
      result->Fail("ingest replay: " + st.ToString());
      return phase.records.size();
    }
    double t2 = NowMs();
    std::unique_ptr<DiscoveryEngine> engine = ReferenceEngine(repo);
    double t3 = NowMs();
    if (engine == nullptr) {
      result->Fail("ingest replay: engine build failed");
      return phase.records.size();
    }
    if (Fnv1a(ReferenceBody(*engine, phase.queries[step.family])) !=
        rec.query_digest) {
      ++mismatches;
    }
    double t4 = NowMs();
    engine.reset();
    double t5 = NowMs();
    if (timings != nullptr) {
      if (step.is_register) timings->add_ms.push_back(t1 - t0);
      timings->build_ms.push_back(t3 - t2);
      timings->teardown_ms.push_back(t5 - t4);
      timings->build_tables.push_back(static_cast<double>(repo.size()));
    }
  }
  if (mismatches > 0) {
    result->Fail("ingest: " + std::to_string(mismatches) +
                 " post-mutation rankings differ from a from-scratch engine");
  }
  *final_repo = repo;
  return mismatches;
}

// Mutation-cost slope: index build and engine teardown timed on copies
// of the final repository cut down to four sizes, fitted linearly.
void MutationSlope(const TableRepository& full, RunResult* result) {
  std::vector<std::string> names;
  for (size_t i = 0; i < full.size(); ++i) names.push_back(full.entry(i).table.name());
  std::vector<double> sizes, build, teardown;
  for (size_t quarter = 1; quarter <= 4; ++quarter) {
    TableRepository repo = full;
    const size_t keep = full.size() * quarter / 4;
    for (size_t i = keep; i < names.size(); ++i) {
      if (!repo.RemoveTable(names[i]).ok()) {
        result->Fail("slope: remove failed");
        return;
      }
    }
    std::vector<double> b, t;
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = NowMs();
      std::unique_ptr<DiscoveryEngine> engine = ReferenceEngine(repo);
      double t1 = NowMs();
      engine.reset();
      double t2 = NowMs();
      b.push_back(t1 - t0);
      t.push_back(t2 - t1);
    }
    sizes.push_back(static_cast<double>(repo.size()));
    build.push_back(Median(b));
    teardown.push_back(Median(t));
    result->Note("slope point: %zu tables: index build %.4f ms, teardown %.4f ms",
                 repo.size(), build.back(), teardown.back());
  }
  result->metrics["discovery.index_build_ms_per_100_tables"] =
      100.0 * Slope(sizes, build);
  result->metrics["discovery.engine_teardown_ms_per_100_tables"] =
      100.0 * Slope(sizes, teardown);
}

}  // namespace

RunResult RunIngestWorkload(const RunArgs& args) {
  RunResult result;
  Lake lake(args.seed, kFamilies);
  Fixture untraced;
  IngestPhase plain = RunIngestPhase(args, /*traced=*/false,
                                     args.trace ? 1 : kSetupRepeats, lake,
                                     &untraced, &result);
  untraced.Reset();
  if (!result.correct) return result;
  TableRepository final_repo;
  const uint64_t mismatches =
      ReplayIngest(lake, plain, nullptr, &result, &final_repo);
  result.attempted = plain.attempted;
  result.failed = plain.failed + mismatches;
  // Two requests per round: the mutation and its follow-up query.
  const std::vector<double> rates =
      RatePerWindow(plain.rounds, plain.start_s, args.seconds);
  const double throughput = 2.0 * Median(rates);
  const std::vector<double> round_ms = Latencies(plain.rounds);
  const Tail round_tail = TailOf(round_ms);
  result.Note("rounds/s per window:%s", Join(rates).c_str());
  const Tail q_tail = TailOf(plain.query_ms);
  const Tail m_tail = TailOf(plain.mutation_ms);
  result.Note("ingest: %zu mutations + follow-up queries in %.3f s, 1 client",
              plain.records.size(), plain.elapsed_s);
  auto note = [&result](const char* what, double p50, const Tail& tail) {
    result.Note("%s %.4f ms / %.4f ms (p%.2f over %zu blocks, n=%zu)", what,
                p50, tail.value, tail.percentile, tail.blocks, tail.samples);
  };
  note("round (mutation + query) p50 / tail:", Median(round_ms), round_tail);
  note("mutation_p50_ms / mutation_tail_ms:", Median(plain.mutation_ms),
       m_tail);
  note("query_p50_ms / query_tail_ms:", Median(plain.query_ms), q_tail);
  result.Note("error_ratio %.6f (%llu of %llu)",
              static_cast<double>(result.failed) / result.attempted,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!args.trace) {
    result.Note("set-ups (s):%s", Join(plain.setup_s).c_str());
    result.metrics["setup_s"] = Median(plain.setup_s);
    result.metrics["throughput_per_s"] = throughput;
    result.metrics["p50_ms"] = Median(round_ms);
    result.metrics["tail_ms"] = round_tail.value;
    if (round_tail.samples < 11) result.Fail("ingest: fewer than 11 samples");
    return result;
  }

  Fixture traced;
  IngestPhase phase =
      RunIngestPhase(args, /*traced=*/true, 1, lake, &traced, &result);
  if (!result.correct) return result;
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  TelemetryCheck stats =
      AnalyzeServeTrace(traced.obs->tracer, traced.obs->telemetry,
                        traced.obs->metrics, phase.sent,
                        traced.server->shed_total(), &result.metrics);
  traced.Reset();
  result.metrics["obs.telemetry_violations"] =
      static_cast<double>(stats.violations);
  for (const std::string& v : stats.examples) result.Note("violation: %s", v.c_str());
  if (stats.violations > 0) result.Fail("telemetry self-check violations");
  result.metrics["serve.decode_ms"] =
      DecodeMs(phase.decode_bodies, /*nested_table=*/false, &result);
  MutationTimings timings;
  result.failed += ReplayIngest(lake, phase, &timings, &result, &final_repo);
  result.metrics["repository.add_ms"] = Median(timings.add_ms);
  result.metrics["discovery.index_build_ms"] = Median(timings.build_ms);
  result.metrics["discovery.engine_teardown_ms"] = Median(timings.teardown_ms);
  result.metrics["discovery.index_build_tables"] = Mean(timings.build_tables);
  MutationSlope(final_repo, &result);
  result.metrics["obs.trace_overhead_ratio"] =
      2.0 * Median(RatePerWindow(phase.rounds, phase.start_s, args.seconds)) /
      throughput;
  return result;
}

}  // namespace e2ebench
