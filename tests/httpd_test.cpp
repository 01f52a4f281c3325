// Tests of the live-introspection plane (src/obs/httpd.* + serve/admin.*):
// loopback HTTP round-trips of every admin endpoint, protocol edges (404,
// 405 + Allow, 400, HEAD), concurrent scrapes against a live server,
// Prometheus exposition conformance (bit-exact le bounds, cumulative
// buckets, label escaping, prometheus_lint), the bounded slow-request
// exemplar store, and the structured logger's two sinks.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "atpg/coverage.h"
#include "eval/benchmarks.h"
#include "eval/datagen.h"
#include "eval/experiments.h"
#include "graphx/hetero_graph.h"
#include "obs/exemplar.h"
#include "obs/httpd.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof/profiler.h"
#include "serve/admin.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace m3dfl {

#if M3DFL_OBS_ENABLED
// External linkage + noinline so the profiler's dladdr symbolization can
// name this frame in /profilez output (the build exports dynamic symbols
// under M3DFL_OBS).
__attribute__((noinline)) double httpd_test_profile_burn(
    const std::atomic<bool>& stop) {
  volatile double sink = 1.0;
  while (!stop.load(std::memory_order_acquire)) {
    for (int i = 1; i < 4096; ++i) sink = sink + 1.0 / static_cast<double>(i);
  }
  return sink;
}
#endif

namespace {

// --- Raw-socket HTTP client helper -------------------------------------------

struct HttpReply {
  bool ok = false;          ///< Transport-level success (connect/send/recv).
  int status = 0;
  std::map<std::string, std::string> headers;  ///< Lower-cased names.
  std::string body;
};

/// One-shot HTTP exchange over loopback: sends `request` verbatim, reads to
/// EOF (the server sends Connection: close), parses status/headers/body.
HttpReply http_exchange(std::uint16_t port, const std::string& request) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  reply.body = raw.substr(header_end + 4);
  const std::string head = raw.substr(0, header_end);
  std::size_t line_end = head.find("\r\n");
  const std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  if (status_line.rfind("HTTP/1.1 ", 0) != 0) return reply;
  reply.status = std::atoi(status_line.c_str() + 9);
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::size_t vstart = colon + 1;
      while (vstart < line.size() && line[vstart] == ' ') ++vstart;
      reply.headers[name] = line.substr(vstart);
    }
    pos = next + 2;
  }
  reply.ok = true;
  return reply;
}

HttpReply http_get(std::uint16_t port, const std::string& path,
                   const char* method = "GET") {
  return http_exchange(port, std::string(method) + " " + path +
                                 " HTTP/1.1\r\nHost: localhost\r\n"
                                 "Connection: close\r\n\r\n");
}

/// A service with admin routes on an ephemeral port. No design registered —
/// these tests exercise the admin plane, not diagnosis.
struct AdminFixture {
  serve::ModelRegistry registry;
  serve::DiagnosisService service;
  obs::AdminHttpServer server;

  AdminFixture() : service(registry, make_opts()) {
    serve::register_admin_endpoints(server, service);
    std::string error;
    obs::AdminHttpServer::Options opts;  // Port 0 = ephemeral.
    EXPECT_TRUE(server.start(opts, &error)) << error;
  }

  static serve::ServiceOptions make_opts() {
    serve::ServiceOptions o;
    o.num_threads = 2;
    return o;
  }
};

// --- Endpoint round-trips ----------------------------------------------------

TEST(AdminHttp, HealthzAlwaysOk) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  EXPECT_EQ(r.headers.at("connection"), "close");
  EXPECT_EQ(r.headers.at("content-length"), std::to_string(r.body.size()));
}

TEST(AdminHttp, ReadyzFlipsOnModelPublish) {
  AdminFixture fx;
  const HttpReply before = http_get(fx.server.port(), "/readyz");
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.status, 503);
  EXPECT_NE(before.body.find("not ready"), std::string::npos);

  fx.registry.publish("default", eval::TrainedFramework(), "test");
  const HttpReply after = http_get(fx.server.port(), "/readyz");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "ready\n");
}

TEST(AdminHttp, MetricsServesConformantPrometheusText) {
  // Make sure at least one counter and one histogram exist.
  obs::MetricsRegistry::instance().counter("httpd_test.requests").add(3);
  obs::MetricsRegistry::instance()
      .histogram("httpd_test.latency_seconds")
      .record(1e-3);
  // One real diagnosis publishes the Diagnoser's work counters.
  const eval::Design& design =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn2);
  eval::DatagenOptions gen;
  gen.num_samples = 1;
  const eval::Dataset ds = eval::generate_dataset(design, gen);
  ASSERT_FALSE(ds.samples.empty());
  design.make_diagnoser().diagnose(ds.samples.front().log);

  // The design build's sharded sweeps publish their labelled executors'
  // stats (explicit thread counts force the sharded path on tiny).
  atpg::detect_faults(*design.fsim->clone(),
                      atpg::enumerate_tdf_faults(design.sites), 2);
  { const graphx::HeteroGraph sharded(design.nl, design.sites, 2); }

  AdminFixture fx;
  // Registering a design publishes its per-component byte gauges.
  fx.service.register_design(design);
  const HttpReply r = http_get(fx.server.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.at("content-type").find("version=0.0.4"),
            std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_httpd_test_requests_total 3"),
            std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_httpd_test_latency_seconds_bucket"),
            std::string::npos);
  for (const char* name :
       {"m3dfl_diag_backtrace_gates_total", "m3dfl_diag_sites_scored_total",
        "m3dfl_diag_sites_matched_total", "m3dfl_mem_graph_bytes",
        "m3dfl_mem_sim_arena_bytes", "m3dfl_mem_sim_core_bytes",
        "m3dfl_executor_fault_drop_tasks_total",
        "m3dfl_executor_fault_drop_utilization",
        "m3dfl_executor_topnode_sweep_tasks_total",
        "m3dfl_executor_topnode_sweep_max_queued",
        // Created with the service, so it is scrapable before any overload.
        "m3dfl_serve_rejected_total"}) {
    EXPECT_NE(r.body.find(name), std::string::npos) << name;
  }
  const std::vector<std::string> violations = obs::prometheus_lint(r.body);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
}

TEST(AdminHttp, MetricsJsonWrapsRegistryAndService) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/metrics.json");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"), "application/json");
  EXPECT_EQ(r.body.rfind("{\"registry\":", 0), 0u);
  EXPECT_NE(r.body.find("\"service\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"latency_ms\""), std::string::npos);
}

TEST(AdminHttp, StatuszReportsBuildAndServiceShape) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/statusz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(r.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(r.body.find("\"model_name\":\"default\""), std::string::npos);
  EXPECT_NE(r.body.find("\"num_threads\":2"), std::string::npos);
  EXPECT_NE(r.body.find("\"max_pending\":65536"), std::string::npos);
  EXPECT_NE(r.body.find("\"pending_high_water\":0"), std::string::npos);
}

// /statusz carries the registered design's shared-structure bytes under
// their registry names, equal to the gauges /metrics serves.
TEST(AdminHttp, StatuszReportsDesignMemory) {
  const eval::Design& design =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn2);
  AdminFixture fx;
  fx.service.register_design(design);
  const HttpReply r = http_get(fx.server.port(), "/statusz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  const std::size_t memory = r.body.find("\"memory\":{");
  ASSERT_NE(memory, std::string::npos) << r.body;
  for (const char* name :
       {"mem.graph_bytes", "mem.sim_arena_bytes", "mem.sim_core_bytes"}) {
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t at = r.body.find(key, memory);
    ASSERT_NE(at, std::string::npos) << name << " in " << r.body;
    const double value = std::strtod(r.body.c_str() + at + key.size(), nullptr);
    EXPECT_GT(value, 0.0) << name;
    EXPECT_EQ(value, obs::MetricsRegistry::instance().gauge(name).value())
        << name;
  }
}

TEST(AdminHttp, TracezCarriesSpansAndExemplars) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/tracez");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(r.body.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(r.body.find("\"dropped\""), std::string::npos);
}

// --- Protocol edges ----------------------------------------------------------

TEST(AdminHttp, UnknownPathIs404) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/nope");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);
}

TEST(AdminHttp, NonGetIs405WithAllow) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/healthz", "POST");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(r.headers.at("allow"), "GET, HEAD");
}

TEST(AdminHttp, GarbageRequestIs400) {
  AdminFixture fx;
  const HttpReply r =
      http_exchange(fx.server.port(), "this is not http\r\n\r\n");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);
}

TEST(AdminHttp, HeadReturnsHeadersWithoutBody) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/healthz", "HEAD");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(r.body.empty());
  EXPECT_EQ(r.headers.at("content-length"), "3");  // Length of "ok\n".
}

TEST(AdminHttp, QueryStringIsIgnoredForRouting) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/healthz?verbose=1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

TEST(AdminHttp, ConcurrentScrapesAllSucceed) {
  AdminFixture fx;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, &ok_count] {
      for (int i = 0; i < kPerThread; ++i) {
        const char* path = (i % 2 == 0) ? "/healthz" : "/metrics";
        const HttpReply r = http_get(fx.server.port(), path);
        if (r.ok && r.status == 200) ++ok_count;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_GE(fx.server.requests_served(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(AdminHttp, StopIsIdempotentAndRejectsDoubleStart) {
  obs::AdminHttpServer server;
  server.handle("/x", [] { return obs::HttpResponse{}; });
  obs::AdminHttpServer::Options opts;
  std::string error;
  ASSERT_TRUE(server.start(opts, &error)) << error;
  EXPECT_FALSE(server.start(opts, &error));  // Already running.
  server.stop();
  server.stop();  // Second stop must be a no-op.
  EXPECT_FALSE(server.running());
}

// --- Profiling endpoints -----------------------------------------------------

#if M3DFL_OBS_ENABLED

#if defined(__SANITIZE_THREAD__)
#define M3DFL_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define M3DFL_TEST_TSAN 1
#endif
#endif

TEST(AdminHttp, ProfilezReturnsCollapsedStacksNamingHotFrames) {
#ifdef M3DFL_TEST_TSAN
  // TSan's scheduler starves the CPU-time sampling clock and its runtime
  // does not model the seqlock handoff between the SIGPROF handler and
  // the collector; the uninstrumented build covers this path.
  GTEST_SKIP() << "sampling profiler not exercised under TSan";
#endif
  AdminFixture fx;
  // A registered thread must be burning CPU during the window — per-thread
  // CPU-time timers never fire on an idle process.
  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    obs::prof::ProfiledThread reg;
    httpd_test_profile_burn(stop);
  });
  const HttpReply r =
      http_get(fx.server.port(), "/profilez?seconds=1&hz=499");
  stop.store(true, std::memory_order_release);
  busy.join();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  ASSERT_FALSE(r.body.empty());
  EXPECT_EQ(r.body.rfind("# no samples", 0), std::string::npos)
      << "window sampled nothing despite a busy registered thread";
  // The folded lines must attribute the burn loop by name, not hex.
  EXPECT_NE(r.body.find("httpd_test_profile_burn"), std::string::npos)
      << r.body;
}

TEST(AdminHttp, ProfilezConflictsWithARunningSession) {
  AdminFixture fx;
  auto& prof = obs::prof::CpuProfiler::instance();
  std::string error;
  ASSERT_TRUE(prof.start(obs::prof::ProfilerOptions{}, &error)) << error;
  const HttpReply r = http_get(fx.server.port(), "/profilez?seconds=1");
  prof.stop();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 409);
  EXPECT_NE(r.body.find("cannot start profiler"), std::string::npos);
}

TEST(AdminHttp, CounterszServesAvailabilityJson) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/countersz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"), "application/json");
  EXPECT_NE(r.body.find("\"availability\""), std::string::npos);
  EXPECT_NE(r.body.find("\"mode\""), std::string::npos);
  EXPECT_NE(r.body.find("\"scopes\""), std::string::npos);
}

TEST(AdminHttp, StatuszReportsProfilerAndCounterState) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/statusz");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.body.find("\"profiler\":{\"compiled\":true"),
            std::string::npos);
  EXPECT_NE(r.body.find("\"counters\":{\"mode\":\""), std::string::npos);
}

#else  // !M3DFL_OBS_ENABLED

TEST(AdminHttp, ProfilezAndCounterszReport501WhenCompiledOut) {
  AdminFixture fx;
  const HttpReply p = http_get(fx.server.port(), "/profilez");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.status, 501);
  const HttpReply c = http_get(fx.server.port(), "/countersz");
  ASSERT_TRUE(c.ok);
  EXPECT_EQ(c.status, 501);
}

#endif  // M3DFL_OBS_ENABLED

TEST(AdminHttp, MetricsCarryProcessCollectors) {
  AdminFixture fx;
  const HttpReply r = http_get(fx.server.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.body.find("m3dfl_process_user_cpu_seconds"), std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_process_sys_cpu_seconds"), std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_process_voluntary_ctx_switches"),
            std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_process_involuntary_ctx_switches"),
            std::string::npos);
  EXPECT_NE(r.body.find("m3dfl_process_open_fds"), std::string::npos);
  // The scrape is a live process: the fd collector must report at least
  // stdin/stdout/stderr plus the server's sockets.
  const obs::ProcessStats ps = obs::process_stats();
  EXPECT_GE(ps.open_fds, 3u);
  EXPECT_GE(ps.user_cpu_seconds + ps.sys_cpu_seconds, 0.0);
}

// --- Prometheus exposition ---------------------------------------------------

TEST(Prometheus, BucketBoundsRoundTripBitExactly) {
  obs::LatencyHistogram& h = obs::MetricsRegistry::instance().histogram(
      "prom_test.roundtrip_seconds");
  h.record(1e-5);
  h.record(2e-3);
  h.record(0.5);
  const std::string page = obs::MetricsRegistry::instance().to_prometheus();

  // Collect every le="..." bound of this histogram and strtod it back.
  const std::string needle =
      "m3dfl_prom_test_roundtrip_seconds_bucket{le=\"";
  std::vector<double> bounds;
  std::size_t pos = 0;
  while ((pos = page.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const std::size_t end = page.find('"', pos);
    const std::string text = page.substr(pos, end - pos);
    if (text != "+Inf") {
      bounds.push_back(std::strtod(text.c_str(), nullptr));
    }
    pos = end;
  }
  ASSERT_EQ(bounds.size(), obs::LatencyHistogram::kNumBuckets);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    // Bit-exact: the printed %.17g form must strtod back to the same double
    // the bucketing comparisons use.
    EXPECT_EQ(bounds[i], obs::LatencyHistogram::bucket_upper_seconds(i))
        << "bucket " << i;
  }
}

TEST(Prometheus, CumulativeBucketsAreMonotoneAndMatchCount) {
  obs::LatencyHistogram& h = obs::MetricsRegistry::instance().histogram(
      "prom_test.cumulative_seconds");
  for (int i = 0; i < 100; ++i) h.record(1e-6 * (1 << (i % 12)));
  const std::string page = obs::MetricsRegistry::instance().to_prometheus();
  EXPECT_TRUE(obs::prometheus_lint(page).empty());

  // The +Inf bucket must equal _count for this histogram.
  const std::string inf_needle =
      "m3dfl_prom_test_cumulative_seconds_bucket{le=\"+Inf\"} ";
  const std::size_t inf_pos = page.find(inf_needle);
  ASSERT_NE(inf_pos, std::string::npos);
  const std::string count_needle = "m3dfl_prom_test_cumulative_seconds_count ";
  const std::size_t count_pos = page.find(count_needle);
  ASSERT_NE(count_pos, std::string::npos);
  const auto line_value = [&page](std::size_t pos, std::size_t skip) {
    const std::size_t eol = page.find('\n', pos);
    return page.substr(pos + skip, eol - pos - skip);
  };
  EXPECT_EQ(line_value(inf_pos, inf_needle.size()),
            line_value(count_pos, count_needle.size()));
}

TEST(Prometheus, MetricNameSanitization) {
  EXPECT_EQ(obs::prometheus_metric_name("serve.queue_wait_seconds"),
            "m3dfl_serve_queue_wait_seconds");
  EXPECT_EQ(obs::prometheus_metric_name("weird-name with spaces"),
            "m3dfl_weird_name_with_spaces");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("a\nb"), "a\\nb");
}

TEST(Prometheus, EscapedLabelValuesPassTheLint) {
  // Round trip: a value hitting all three escapable characters, escaped by
  // the library, embedded in a page — the lint must accept it.
  const std::string escaped = obs::prometheus_escape_label("a\\b\"c\nd");
  EXPECT_EQ(escaped, "a\\\\b\\\"c\\nd");
  const std::string page = "# HELP g g\n# TYPE g gauge\ng{path=\"" + escaped +
                           "\"} 1\n";
  EXPECT_TRUE(obs::prometheus_lint(page).empty())
      << obs::prometheus_lint(page).front();
}

TEST(Prometheus, LintFlagsBadLabelEscapes) {
  // Raw backslash followed by a character that is not \, ", or n.
  const std::string bad_escape =
      "# HELP g g\n# TYPE g gauge\ng{path=\"a\\qb\"} 1\n";
  const std::vector<std::string> errs1 = obs::prometheus_lint(bad_escape);
  ASSERT_FALSE(errs1.empty());
  EXPECT_NE(errs1.front().find("escape"), std::string::npos);
  // Label block ending mid-escape: the backslash is the last character
  // before '}', so the value never terminates cleanly.
  const std::string mid_escape =
      "# HELP g g\n# TYPE g gauge\ng{path=\"a\\} 1\n";
  EXPECT_FALSE(obs::prometheus_lint(mid_escape).empty());
}

TEST(Prometheus, LintFlagsMalformedPages) {
  // Sample without a TYPE declaration.
  EXPECT_FALSE(obs::prometheus_lint("rogue_metric 1\n").empty());
  // Non-cumulative histogram buckets.
  const char* bad_hist =
      "# HELP h h\n# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\n"
      "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
  EXPECT_FALSE(obs::prometheus_lint(bad_hist).empty());
  // +Inf bucket disagreeing with _count.
  const char* bad_count =
      "# HELP h h\n# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n";
  EXPECT_FALSE(obs::prometheus_lint(bad_count).empty());
}

// --- Exemplar store ----------------------------------------------------------

obs::RequestExemplar make_exemplar(std::uint64_t id, double total_ms) {
  obs::RequestExemplar e;
  e.request_id = id;
  e.total_ms = total_ms;
  e.queue_ms = total_ms * 0.25;
  e.service_ms = total_ms * 0.75;
  e.ok = true;
  e.stages.push_back({"serve.diagnose", 0.0, total_ms * 0.5});
  return e;
}

TEST(ExemplarStore, DisabledOfferIsNoOp) {
  obs::ExemplarStore store;
  store.offer(make_exemplar(1, 10.0));
  EXPECT_EQ(store.offered(), 0u);
  EXPECT_TRUE(store.snapshot().empty());
}

TEST(ExemplarStore, RetainsSlowestNBounded) {
  obs::ExemplarStore::Options opts;
  opts.capacity = 4;
  opts.window_seconds = 3600.0;  // No rotation during the test.
  obs::ExemplarStore store(opts);
  store.set_enabled(true);
  // Offer many requests; only the slowest `capacity` may survive, and
  // memory stays bounded no matter how many are offered.
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    store.offer(make_exemplar(i, static_cast<double>(i % 997)));
  }
  EXPECT_EQ(store.offered(), 10000u);
  const std::vector<obs::RequestExemplar> kept = store.snapshot();
  ASSERT_LE(kept.size(), 2 * opts.capacity);  // Current + previous window.
  ASSERT_GE(kept.size(), opts.capacity);
  // Slowest-first, and every survivor is at the top of the distribution.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LE(kept[i].total_ms, kept[i - 1].total_ms);
  }
  EXPECT_EQ(kept[0].total_ms, 996.0);
}

TEST(ExemplarStore, StageCapTruncates) {
  obs::ExemplarStore::Options opts;
  opts.capacity = 2;
  opts.max_stages = 3;
  obs::ExemplarStore store(opts);
  store.set_enabled(true);
  obs::RequestExemplar e = make_exemplar(1, 50.0);
  for (int i = 0; i < 20; ++i) e.stages.push_back({"serve.policy", 0.0, 1.0});
  store.offer(std::move(e));
  const std::vector<obs::RequestExemplar> kept = store.snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].stages.size(), opts.max_stages);
}

TEST(ExemplarStore, ToJsonShape) {
  obs::ExemplarStore::Options opts;
  opts.capacity = 2;
  obs::ExemplarStore store(opts);
  store.set_enabled(true);
  store.offer(make_exemplar(42, 12.5));
  const std::string json = store.to_json();
  EXPECT_NE(json.find("\"request_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"queue_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"service_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("serve.diagnose"), std::string::npos);
}

// --- Structured logger -------------------------------------------------------

/// Captures what the logger writes through a tmpfile-backed stream.
std::string capture_log(bool json, const std::function<void()>& emit) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  obs::Logger::instance().set_stream(f);
  obs::Logger::instance().set_json(json);
  emit();
  obs::Logger::instance().set_json(false);
  obs::Logger::instance().set_stream(nullptr);  // Back to stderr.
  std::fflush(f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Logger, TextSinkIsByteStableWithFprintf) {
  const std::string got = capture_log(false, [] {
    M3DFL_LOG_ERROR("cli", "cannot write %s", "out.v");
  });
  // Exactly what the replaced std::fprintf(stderr, "cannot write %s\n", ...)
  // site produced — no level tag, no component prefix.
  EXPECT_EQ(got, "cannot write out.v\n");
}

TEST(Logger, TextSinkAppendsFields) {
  const std::string got = capture_log(false, [] {
    obs::Logger::instance().log(
        obs::LogLevel::kInfo, "serve", "request done",
        {obs::LogField::num("id", std::uint64_t{7}),
         obs::LogField::boolean("ok", true)});
  });
  EXPECT_EQ(got, "request done  id=7  ok=true\n");
}

TEST(Logger, JsonSinkEmitsOneObjectPerLine) {
  const std::string got = capture_log(true, [] {
    obs::Logger::instance().log(
        obs::LogLevel::kWarn, "cli", "weird \"path\"",
        {obs::LogField::str("file", "a\\b")});
  });
  EXPECT_EQ(got.back(), '\n');
  EXPECT_EQ(got.rfind("{\"ts_ms\":", 0), 0u);
  EXPECT_NE(got.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(got.find("\"component\":\"cli\""), std::string::npos);
  EXPECT_NE(got.find("\"msg\":\"weird \\\"path\\\"\""), std::string::npos);
  EXPECT_NE(got.find("\"file\":\"a\\\\b\""), std::string::npos);
}

TEST(Logger, LevelFilterDropsBelowMin) {
  obs::Logger& log = obs::Logger::instance();
  const std::uint64_t before = log.records_written();
  const std::string got = capture_log(false, [&log] {
    log.set_min_level(obs::LogLevel::kError);
    M3DFL_LOG_INFO("test", "should not appear");
    M3DFL_LOG_ERROR("test", "should appear");
    log.set_min_level(obs::LogLevel::kInfo);
  });
  EXPECT_EQ(got, "should appear\n");
  EXPECT_EQ(log.records_written(), before + 1);
}

TEST(Logger, JsonEscapeHandlesControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace m3dfl
