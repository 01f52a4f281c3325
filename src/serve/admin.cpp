#include "serve/admin.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/build_info.h"
#include "obs/exemplar.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/prof/profiler.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "sim/backend.h"
#include "sim/bitpar/dispatch.h"

namespace m3dfl::serve {

namespace {

/// How many of the most recent tracer spans /tracez returns. The tracer
/// rings hold thousands; the admin page is a tail, not an export — use
/// `m3dfl serve --trace out.json` for the full Chrome trace.
constexpr std::size_t kTracezSpanLimit = 64;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

#if M3DFL_OBS_ENABLED
/// "seconds=3&hz=199" -> value of `key` as a clamped int, or `fallback`
/// when absent/garbage. Good enough for the two numeric knobs /profilez
/// takes; not a general query parser.
int query_int(const std::string& query, const std::string& key, int fallback,
              int lo, int hi) {
  const std::string needle = key + "=";
  std::size_t at = 0;
  while (at < query.size()) {
    const std::size_t amp = query.find('&', at);
    const std::string pair =
        query.substr(at, amp == std::string::npos ? amp : amp - at);
    if (pair.rfind(needle, 0) == 0) {
      const std::string v = pair.substr(needle.size());
      char* end = nullptr;
      const long parsed = std::strtol(v.c_str(), &end, 10);
      if (end != nullptr && end != v.c_str() && *end == '\0') {
        return std::clamp(static_cast<int>(parsed), lo, hi);
      }
      return fallback;
    }
    if (amp == std::string::npos) break;
    at = amp + 1;
  }
  return fallback;
}
#endif

}  // namespace

void register_admin_endpoints(obs::AdminHttpServer& server,
                              const DiagnosisService& service) {
  const auto t_registered = std::chrono::steady_clock::now();

  server.handle("/healthz", [] {
    obs::HttpResponse r;
    r.body = "ok\n";
    return r;
  });

  server.handle("/readyz", [&service] {
    obs::HttpResponse r;
    if (service.ready()) {
      r.body = "ready\n";
    } else {
      r.status = 503;
      r.body = "not ready: no model published under '" +
               service.options().model_name + "'\n";
    }
    return r;
  });

  server.handle("/metrics", [] {
    obs::publish_process_metrics();
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::MetricsRegistry::instance().to_prometheus();
    return r;
  });

  server.handle("/metrics.json", [&service] {
    obs::publish_process_metrics();
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = "{\"registry\":" + obs::MetricsRegistry::instance().to_json() +
             ",\"service\":" + service.metrics().to_json() + "}";
    return r;
  });

  // On-demand CPU profile: arms the sampling profiler for `seconds`
  // (default 5, clamped to [1, 30]) at `hz` (default 99) and answers with
  // collapsed stacks — `curl .../profilez?seconds=10 | flamegraph.pl`.
  // One profiling session at a time: a second scrape during the window
  // gets 409. The handler thread sleeps through the window (it is SIGPROF-
  // masked infrastructure, so it never pollutes the profile), which also
  // means the window occupies one of the admin pool's threads.
  server.handle_query("/profilez", [](const std::string& query) {
    obs::HttpResponse r;
#if M3DFL_OBS_ENABLED
    const int seconds = query_int(query, "seconds", 5, 1, 30);
    const int hz = query_int(query, "hz", 99, 1, 1000);
    auto& prof = obs::prof::CpuProfiler::instance();
    obs::prof::ProfilerOptions opts;
    opts.sample_hz = hz;
    std::string err;
    if (!prof.start(opts, &err)) {
      r.status = 409;
      r.body = "cannot start profiler: " + err + "\n";
      return r;
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    prof.stop();
    std::ostringstream os;
    prof.write_folded(os);
    r.body = os.str();
    if (r.body.empty()) {
      r.body = "# no samples: no registered thread burned CPU during the " +
               std::to_string(seconds) + "s window\n";
    }
#else
    (void)query;
    r.status = 501;
    r.body = "profiler compiled out (-DM3DFL_OBS=OFF)\n";
#endif
    return r;
  });

  // Hardware-counter aggregates (per CounterScope stage) plus the probed
  // availability rung — "rusage" here means perf_event_open was denied and
  // only CPU-seconds are being accumulated.
  server.handle("/countersz", [] {
    obs::HttpResponse r;
#if M3DFL_OBS_ENABLED
    r.content_type = "application/json";
    r.body = obs::prof::CounterRegistry::instance().to_json();
#else
    r.status = 501;
    r.body = "counters compiled out (-DM3DFL_OBS=OFF)\n";
#endif
    return r;
  });

  server.handle("/statusz", [&service, t_registered] {
    const ServiceOptions& o = service.options();
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_registered)
            .count();
    std::ostringstream os;
    os << "{\"build\":" << obs::build_info_json()
       << ",\"uptime_seconds\":" << num(uptime) << ",\"obs\":{"
       << "\"tracing_enabled\":"
       << (obs::Tracer::instance().enabled() ? "true" : "false")
       << ",\"exemplars_enabled\":"
       << (obs::ExemplarStore::instance().enabled() ? "true" : "false");
#if M3DFL_OBS_ENABLED
    const obs::prof::CounterAvailability& av =
        obs::prof::counter_availability();
    os << ",\"profiler\":{\"compiled\":true,\"running\":"
       << (obs::prof::CpuProfiler::instance().running() ? "true" : "false")
       << ",\"samples\":" << obs::prof::CpuProfiler::instance().samples()
       << "},\"counters\":{\"mode\":\""
       << obs::prof::counter_mode_name(av.mode) << "\",\"detail\":\""
       << obs::json_escape(av.detail) << "\",\"enabled\":"
       << (obs::prof::CounterRegistry::instance().enabled() ? "true"
                                                            : "false")
       << '}';
#else
    os << ",\"profiler\":{\"compiled\":false}";
#endif
    os << "},\"service\":{"
       << "\"model_name\":\"" << obs::json_escape(o.model_name) << "\""
       << ",\"model_version\":" << service.live_model_version()
       << ",\"ready\":" << (service.ready() ? "true" : "false")
       << ",\"num_threads\":" << o.num_threads
       << ",\"max_batch\":" << o.max_batch
       << ",\"max_wait_us\":" << o.max_wait.count()
       << ",\"cache_capacity\":" << o.cache_capacity
       << ",\"batcher_pending_high_water\":" << service.batcher_high_water()
       << "},\"memory\":{";
    // The registered design's shared structures, by their registry names
    // (whole bytes, so integers).
    const char* sep = "";
    for (const char* name :
         {"mem.graph_bytes", "mem.sim_arena_bytes", "mem.sim_core_bytes"}) {
      os << sep << '"' << name << "\":"
         << static_cast<std::uint64_t>(
                obs::MetricsRegistry::instance().gauge(name).value());
      sep = ",";
    }
    os << "},\"inference\":{";
    {
      const DiagnosisService::QuantStatus q = service.live_quant_status();
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(q.fingerprint));
      os << "\"mode\":\"" << eval::inference_mode_name(q.effective) << "\""
         << ",\"configured\":\"" << eval::inference_mode_name(q.configured)
         << "\",\"quantized_available\":"
         << (q.quantized_available ? "true" : "false")
         << ",\"calibration\":{\"graphs\":" << q.calib_graphs
         << ",\"fingerprint\":\"" << (q.quantized_available ? fp : "") << "\"}";
    }
    os << "},\"sim\":{"
       << "\"backend\":\"" << sim::backend_name(static_cast<sim::SimBackend>(
              obs::MetricsRegistry::instance().gauge("sim.backend").value()))
       << "\",\"simd_tier\":\""
       << sim::bitpar::tier_name(sim::bitpar::resolve_tier())
       << "\",\"cpu\":{"
       << "\"sse2\":" << (sim::bitpar::cpu_features().sse2 ? "true" : "false")
       << ",\"avx2\":" << (sim::bitpar::cpu_features().avx2 ? "true" : "false")
       << ",\"os_avx\":"
       << (sim::bitpar::cpu_features().os_avx ? "true" : "false") << "}}}";
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = os.str();
    return r;
  });

  server.handle("/tracez", [] {
    std::vector<obs::SpanEvent> spans = obs::Tracer::instance().snapshot();
    // Tail of the snapshot by start time — the most recent activity.
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                return a.start_ns < b.start_ns;
              });
    const std::size_t begin =
        spans.size() > kTracezSpanLimit ? spans.size() - kTracezSpanLimit : 0;
    std::ostringstream os;
    os << "{\"dropped\":" << obs::Tracer::instance().dropped()
       << ",\"spans\":[";
    for (std::size_t i = begin; i < spans.size(); ++i) {
      const obs::SpanEvent& e = spans[i];
      if (i != begin) os << ',';
      os << "{\"name\":\"" << obs::json_escape(e.name ? e.name : "")
         << "\",\"cat\":\"" << obs::json_escape(e.category ? e.category : "")
         << "\",\"start_us\":" << num(static_cast<double>(e.start_ns) / 1e3)
         << ",\"dur_us\":" << num(static_cast<double>(e.dur_ns) / 1e3)
         << ",\"tid\":" << e.tid << ",\"depth\":" << e.depth << '}';
    }
    os << "],\"exemplars\":" << obs::ExemplarStore::instance().to_json()
       << '}';
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = os.str();
    return r;
  });
}

}  // namespace m3dfl::serve
