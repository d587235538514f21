// Observability-layer tests: MetricRegistry semantics (instance
// identity, labels, callbacks) and thread-safety under concurrent
// writers (a TSan target in CI), Prometheus exposition format pinned
// against hand-written golden text, trace sampling / span nesting /
// slow-query logging, the /metrics HTTP exporter, and a regression
// suite for the QueryService::Stats() consistency contract (counters
// read under load must never violate their arithmetic invariants).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/trace.h"
#include "server/query_service.h"
#include "test_fixtures.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace s3::obs {
namespace {

// ---- registry semantics -----------------------------------------------

TEST(MetricRegistryTest, CounterAccumulates) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("t_counter", "help");
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(MetricRegistryTest, SameNameAndLabelsIsSameInstance) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("t_series", "help", {{"shard", "0"}});
  Counter* b = reg.GetCounter("t_series", "help", {{"shard", "0"}});
  Counter* c = reg.GetCounter("t_series", "help", {{"shard", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricRegistryTest, LabelOrderIsCanonicalized) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("t_multi", "help", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.GetCounter("t_multi", "help", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry reg;
  Gauge* g = reg.GetGauge("t_gauge", "help");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->Value(), 3.0);
}

TEST(MetricRegistryTest, HistogramQuantilesAndSum) {
  MetricRegistry reg;
  Histogram* h =
      reg.GetHistogram("t_hist", "help", {}, BucketSpec::SmallCounts());
  for (int i = 0; i < 100; ++i) h->Observe(2.0);
  HistogramSnapshot snap = h->TakeSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 200.0);
  // All mass in the (1, 2] bucket: every quantile interpolates inside.
  EXPECT_GT(snap.p50(), 1.0);
  EXPECT_LE(snap.p99(), 2.0);
}

TEST(MetricRegistryTest, CallbackEvaluatedAtCollect) {
  MetricRegistry reg;
  std::atomic<int> source{7};
  const uint64_t id = reg.AddCallback(
      "t_cb", "help", MetricKind::kGauge, {},
      [&] { return static_cast<double>(source.load()); });
  auto find = [&]() -> double {
    for (const auto& s : reg.Collect()) {
      if (s.name == "t_cb") return s.value;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find(), 7.0);
  source = 9;
  EXPECT_DOUBLE_EQ(find(), 9.0);
  reg.Unregister(id);
  EXPECT_DOUBLE_EQ(find(), -1.0);  // series gone after unregister
}

TEST(MetricRegistryTest, CallbackSetUnregistersOnDestruction) {
  MetricRegistry reg;
  {
    CallbackSet set;
    set.Attach(&reg);
    set.Add("t_scoped", "help", MetricKind::kGauge, {},
            [] { return 1.0; });
    EXPECT_EQ(reg.Collect().size(), 1u);
  }
  EXPECT_TRUE(reg.Collect().empty());
}

// Concurrent writers across counters, gauges, histograms and lookups:
// the TSan CI leg runs this suite, so any unsynchronized access in the
// registry or the sharded counter trips the sanitizer.
TEST(MetricRegistryTest, ConcurrentWritersAndLookups) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  Counter* shared = reg.GetCounter("t_conc_counter", "help");
  Histogram* hist = reg.GetHistogram("t_conc_hist", "help");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        shared->Inc();
        hist->Observe(1e-4 * (t + 1));
        // Lookups race with writers and with each other.
        Counter* mine = reg.GetCounter("t_conc_labeled", "help",
                                       {{"t", std::to_string(t % 3)}});
        mine->Inc();
        if (i % 256 == 0) (void)reg.RenderPrometheus();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->Value(), static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(hist->TakeSnapshot().count,
            static_cast<uint64_t>(kThreads) * kOps);
  uint64_t labeled = 0;
  for (int g = 0; g < 3; ++g) {
    labeled += reg.GetCounter("t_conc_labeled", "help",
                              {{"t", std::to_string(g)}})
                   ->Value();
  }
  EXPECT_EQ(labeled, static_cast<uint64_t>(kThreads) * kOps);
}

// ---- Prometheus exposition golden format ------------------------------

TEST(PrometheusFormatTest, GoldenCounterAndGauge) {
  MetricRegistry reg;
  reg.GetCounter("s3_demo_total", "Demo counter.")->Inc(3);
  reg.GetGauge("s3_demo_depth", "Demo gauge.", {{"service", "primary"}})
      ->Set(2);
  const std::string expected =
      "# HELP s3_demo_depth Demo gauge.\n"
      "# TYPE s3_demo_depth gauge\n"
      "s3_demo_depth{service=\"primary\"} 2\n"
      "# HELP s3_demo_total Demo counter.\n"
      "# TYPE s3_demo_total counter\n"
      "s3_demo_total 3\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(PrometheusFormatTest, HistogramBucketsAreCumulative) {
  MetricRegistry reg;
  Histogram* h =
      reg.GetHistogram("s3_demo_width", "Widths.", {},
                       BucketSpec{1.0, 2.0, 3});  // buckets 1, 2, 4, +Inf
  h->Observe(1.0);
  h->Observe(2.0);
  h->Observe(3.0);
  h->Observe(100.0);
  const std::string expected =
      "# HELP s3_demo_width Widths.\n"
      "# TYPE s3_demo_width histogram\n"
      "s3_demo_width_bucket{le=\"1\"} 1\n"
      "s3_demo_width_bucket{le=\"2\"} 2\n"
      "s3_demo_width_bucket{le=\"4\"} 3\n"
      "s3_demo_width_bucket{le=\"+Inf\"} 4\n"
      "s3_demo_width_sum 106\n"
      "s3_demo_width_count 4\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(PrometheusFormatTest, LabelValuesAreEscaped) {
  MetricRegistry reg;
  reg.GetCounter("s3_demo_esc_total", "Escapes.",
                 {{"q", "say \"hi\"\\\n"}})
      ->Inc();
  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("{q=\"say \\\"hi\\\"\\\\\\n\"} 1"), std::string::npos)
      << out;
}

TEST(PrometheusFormatTest, JsonRenderCoversFamilies) {
  MetricRegistry reg;
  reg.GetCounter("s3_demo_total", "Demo counter.")->Inc(3);
  const std::string out = reg.RenderJson();
  EXPECT_NE(out.find("\"s3_demo_total\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"counter\""), std::string::npos) << out;
}

// ---- tracing ----------------------------------------------------------

TEST(TraceTest, SamplingIsOneInN) {
  TraceOptions opts;
  opts.sample_every = 4;
  TraceCollector collector(opts);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (collector.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 4);
  EXPECT_EQ(collector.sampled_total(), 4u);
}

TEST(TraceTest, SampleEveryZeroDisablesSampling) {
  TraceOptions opts;
  opts.sample_every = 0;
  TraceCollector collector(opts);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(collector.ShouldSample());
}

TEST(TraceTest, RingKeepsMostRecent) {
  TraceOptions opts;
  opts.ring_capacity = 2;
  TraceCollector collector(opts);
  for (uint64_t id = 1; id <= 5; ++id) {
    QueryTrace t;
    t.id = id;
    collector.Record(std::move(t));
  }
  auto recent = collector.RecentTraces();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].id, 4u);
  EXPECT_EQ(recent[1].id, 5u);
}

TEST(TraceTest, SlowLogThreshold) {
  TraceOptions opts;
  opts.slow_query_seconds = 0.1;
  TraceCollector collector(opts);
  bool built = false;
  collector.NoteCompletion(0.05, [&] {
    built = true;
    return SlowQueryEntry{};
  });
  EXPECT_FALSE(built);  // fast query: entry never materialized
  collector.NoteCompletion(0.2, [&] {
    built = true;
    SlowQueryEntry e;
    e.id = 7;
    e.total_seconds = 0.2;
    return e;
  });
  EXPECT_TRUE(built);
  ASSERT_EQ(collector.SlowLog().size(), 1u);
  EXPECT_EQ(collector.SlowLog()[0].id, 7u);
  EXPECT_EQ(collector.slow_total(), 1u);
}

TEST(TraceTest, FormatTraceNestsSpansByDepth) {
  QueryTrace t;
  t.id = 3;
  t.label = "user:u1 degree";
  t.total_seconds = 0.010;
  t.spans.push_back(TraceSpan{"queue-wait", 0.0, 0.001, 0});
  t.spans.push_back(TraceSpan{"execute", 0.001, 0.009, 0});
  t.spans.push_back(TraceSpan{"search", 0.002, 0.008, 1});
  IterationTraceRecord rec;
  rec.iteration = 1;
  rec.frontier_size = 5;
  t.iterations.push_back(rec);
  const std::string out = FormatTrace(t);
  const size_t q = out.find("queue-wait");
  const size_t e = out.find("execute");
  const size_t s = out.find("search");
  ASSERT_NE(q, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  ASSERT_NE(s, std::string::npos);
  EXPECT_LT(q, e);
  EXPECT_LT(e, s);
  // Depth-1 spans indent deeper than their depth-0 parent.
  const size_t e_bol = out.rfind('\n', e) + 1;
  const size_t s_bol = out.rfind('\n', s) + 1;
  EXPECT_LT(e - e_bol, s - s_bol);
  EXPECT_NE(out.find("frontier=5"), std::string::npos);
}

// ---- /metrics exporter ------------------------------------------------

#ifndef _WIN32
// Minimal blocking HTTP GET against 127.0.0.1:port.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

TEST(MetricsHttpTest, ServesPrometheusText) {
  MetricRegistry reg;
  reg.GetCounter("s3_http_demo_total", "Demo.")->Inc(5);
  MetricsHttpServer server(&reg);
  Status started = server.Start();
  if (!started.ok()) GTEST_SKIP() << "bind failed: " << started.ToString();
  ASSERT_NE(server.port(), 0);
  const std::string resp = HttpGet(server.port(), "/metrics");
  EXPECT_NE(resp.find("200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("s3_http_demo_total 5"), std::string::npos);

  const std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos) << json;
  EXPECT_NE(json.find("\"s3_http_demo_total\""), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  server.Stop();
  EXPECT_FALSE(server.running());
}
#endif  // !_WIN32

}  // namespace
}  // namespace s3::obs

// ---- QueryService stats consistency + metric views --------------------

namespace s3::server {
namespace {

using core::Query;
using core::S3Instance;

std::shared_ptr<const S3Instance> ObsTestSnapshot(
    std::vector<KeywordId>* kws) {
  s3::testing::RandomInstanceParams p;
  p.seed = 31;
  p.n_users = 10;
  p.n_docs = 14;
  p.n_tags = 10;
  auto ri = s3::testing::BuildRandomInstance(p);
  *kws = ri.keywords;
  return std::shared_ptr<const S3Instance>(std::move(ri.instance));
}

std::vector<Query> ObsTestQueries(const S3Instance& inst,
                                  const std::vector<KeywordId>& kws,
                                  size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(inst.UserCount()));
    const size_t l = 1 + rng.Uniform(3);
    for (size_t j = 0; j < l; ++j) {
      q.keywords.push_back(kws[rng.Uniform(kws.size())]);
    }
    std::sort(q.keywords.begin(), q.keywords.end());
    out.push_back(std::move(q));
  }
  return out;
}

core::S3kOptions ObsTestSearch() {
  core::S3kOptions opts;
  opts.k = 5;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

// Regression for the torn-read fix: Stats() snapshots taken while
// workers are mid-flight must always satisfy the counters' arithmetic
// invariants (admission precedes completion, every completion lands in
// the eps histogram).
TEST(QueryServiceStatsConsistencyTest, InvariantsHoldUnderLoad) {
  std::vector<KeywordId> kws;
  auto snap = ObsTestSnapshot(&kws);
  QueryServiceOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 32;
  opts.search = ObsTestSearch();
  QueryService service(snap, opts);

  auto queries = ObsTestQueries(*snap, kws, 200, 17);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const QueryServiceStats s = service.Stats();
      EXPECT_LE(s.completed + s.failed, s.submitted);
      uint64_t eps_total = 0;
      for (uint64_t b : s.certified_eps_hist) eps_total += b;
      EXPECT_GE(eps_total, s.completed);
    }
  });

  std::vector<QueryFuture> futures;
  for (const Query& q : queries) {
    auto submitted = service.SubmitBlocking(q);
    if (submitted.ok()) futures.push_back(std::move(*submitted));
  }
  for (auto& f : futures) (void)f.get();
  done.store(true, std::memory_order_release);
  reader.join();

  const QueryServiceStats s = service.Stats();
  EXPECT_EQ(s.submitted, futures.size());
  EXPECT_EQ(s.completed + s.failed, s.submitted);
}

// Every QueryServiceStats counter must be readable through the metric
// registry (the "stats structs become views" contract).
TEST(QueryServiceStatsConsistencyTest, RegistryMirrorsStats) {
  obs::MetricRegistry reg;
  std::vector<KeywordId> kws;
  auto snap = ObsTestSnapshot(&kws);
  QueryServiceOptions opts;
  opts.workers = 2;
  opts.search = ObsTestSearch();
  opts.registry = &reg;
  opts.obs_label = "test";
  QueryService service(snap, opts);

  auto queries = ObsTestQueries(*snap, kws, 40, 23);
  std::vector<QueryFuture> futures;
  for (const Query& q : queries) {
    auto submitted = service.SubmitBlocking(q);
    if (submitted.ok()) futures.push_back(std::move(*submitted));
  }
  for (auto& f : futures) (void)f.get();

  const QueryServiceStats stats = service.Stats();
  auto value_of = [&](const std::string& name) -> double {
    for (const auto& s : reg.Collect()) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "series " << name << " not registered";
    return -1.0;
  };
  EXPECT_EQ(value_of("s3_queries_submitted_total"), stats.submitted);
  EXPECT_EQ(value_of("s3_queries_completed_total"), stats.completed);
  EXPECT_EQ(value_of("s3_queries_failed_total"), stats.failed);
  EXPECT_EQ(value_of("s3_queries_rejected_total"), stats.rejected);
  EXPECT_EQ(value_of("s3_anytime_queries_total"), stats.anytime_queries);
  EXPECT_EQ(value_of("s3_deadline_exceeded_total"),
            stats.deadline_exceeded);
  // Exposition carries the full catalog: the latency histograms took
  // real samples.
  const std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("s3_query_exec_seconds_count"), std::string::npos);
  EXPECT_NE(prom.find("s3_query_total_seconds_count"), std::string::npos);
  EXPECT_NE(prom.find("service=\"test\""), std::string::npos);
}

// Sampled traces carry the engine's per-iteration records; sampled-out
// queries must not (the zero-allocation fast path).
TEST(QueryServiceStatsConsistencyTest, TraceSamplingRecordsIterations) {
  obs::MetricRegistry reg;
  std::vector<KeywordId> kws;
  auto snap = ObsTestSnapshot(&kws);
  QueryServiceOptions opts;
  opts.workers = 1;
  opts.search = ObsTestSearch();
  opts.registry = &reg;
  opts.trace.sample_every = 1;  // trace everything
  QueryService service(snap, opts);

  auto queries = ObsTestQueries(*snap, kws, 8, 29);
  for (const Query& q : queries) {
    auto submitted = service.SubmitBlocking(q);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->get().ok());
  }
  auto traces = service.traces().RecentTraces();
  ASSERT_FALSE(traces.empty());
  for (const auto& t : traces) {
    EXPECT_FALSE(t.spans.empty());
    EXPECT_FALSE(t.iterations.empty());
    EXPECT_GT(t.total_seconds, 0.0);
  }
  // Distinct, monotonically growing ids.
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_LT(traces[i - 1].id, traces[i].id);
  }
}

}  // namespace
}  // namespace s3::server
