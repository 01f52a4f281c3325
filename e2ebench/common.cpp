#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace e2e {

namespace m = m3dfl;

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

/// JSON string literal (quotes and escapes).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::size_t at_least_one(double x) {
  return static_cast<std::size_t>(std::max(1.0, std::round(x)));
}

m::eval::RunScale base_scale() {
  m::eval::RunScale s = m::eval::RunScale::tiny();
  s.num_threads = kComputeThreads;
  s.sim_backend = m::sim::SimBackend::kBitParallel;
  return s;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    // Paper-scale design, fp32, every log distinct: diagnosis (per-candidate
    // scoring and back-trace) does nearly all of the service time.
    Workload w;
    w.name = "m3d100k";
    w.spec = m::eval::m3d100k_spec();
    w.inference = m::eval::InferenceMode::kFp32;
    w.train_scale = base_scale();
    w.train_scale.train_single = 144;
    w.train_scale.train_random_part = 72;
    w.train_scale.train_miv = 60;
    w.nominal_dict_campaign_s = 3.4;
    w.nominal_datagen_per_s = 1550.0;
    w.train_reps = 4;  // ~2.4 s each.
    w.setup_reps = 2;  // ~4.5 s each.
    // ~50% of two workers' capacity. At 4 req/s (~25%) the served service
    // time rose to ~1.8x the sequential diagnose time and swung more from
    // run to run on a shared host, so the traced run no longer explained
    // it.
    w.rate_rps = 8.0;
    // The host's speed drifts on a 10-30 s timescale and queueing at ~50%
    // load amplifies it into latency; a twice-as-long open loop averages
    // over more of it (p90 spread was 20-37% over ten 13 s open loops).
    w.open_share = 1.1;
    w.hot_pool = 0;
    w.nominal_capacity_rps = 15.5;
    w.checked_logs = 6;
    out.push_back(w);
  }
  {
    // Small design, int8, a hot pool of logs: the micro-batcher's deadline,
    // dispatch, the sub-graph LRU and int8 inference dominate.
    Workload w;
    w.name = "tiny_hot";
    w.spec = m::eval::tiny_spec();
    w.inference = m::eval::InferenceMode::kInt8;
    w.train_scale = base_scale();
    w.train_scale.train_single = 600;
    w.train_scale.train_random_part = 260;
    w.train_scale.train_miv = 180;
    w.train_scale.tier_epochs = 24;
    w.train_scale.miv_epochs = 16;
    w.train_scale.cls_epochs = 12;
    w.nominal_dict_campaign_s = 0.014;
    w.nominal_datagen_per_s = 38000.0;
    w.train_reps = 5;  // ~1.7 s each.
    w.rate_rps = 1000.0;
    w.open_share = 0.45;  // 10800 requests: 10 tail windows.
    w.hot_pool = 512;
    w.nominal_capacity_rps = 5000.0;
    w.checked_logs = 32;
    w.setup_reps = 31;  // ~30 ms each: more reps steady the median.
    out.push_back(w);
  }
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

}  // namespace

std::size_t Workload::dict_reps(double seconds) const {
  return at_least_one(kDictShare * seconds / nominal_dict_campaign_s);
}

std::size_t Workload::datagen_samples(double seconds) const {
  return at_least_one(kDatagenShare * seconds * nominal_datagen_per_s);
}

std::size_t Workload::open_requests(double seconds) const {
  return at_least_one(open_share * seconds * rate_rps);
}

std::size_t Workload::backlog_requests(double seconds) const {
  return at_least_one(kBacklogShare * seconds * nominal_capacity_rps);
}

std::size_t Workload::pool_logs(double seconds) const {
  return hot_pool > 0 ? hot_pool
                      : open_requests(seconds) + backlog_requests(seconds);
}

m::eval::Dataset generate_logs(const m::eval::Design& design, std::size_t n,
                               std::uint64_t seed) {
  m::eval::DatagenOptions o;
  o.num_samples = n;
  o.seed = seed;
  o.num_threads = kComputeThreads;
  o.backend = m::sim::SimBackend::kBitParallel;
  return m::eval::generate_dataset(design, o);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : workloads()) out.push_back(w.name);
  return out;
}

std::string StageResult::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << json_str(name) << ":{\"value\":"
       << (std::isfinite(m.value) ? m.value : 0.0)
       << ",\"unit\":" << json_str(m.unit) << "}";
    first = false;
  }
  os << "},\"phases\":{";
  first = true;
  for (const auto& [name, p] : phases) {
    os << (first ? "" : ",") << json_str(name) << ":{\"attempted\":"
       << p.attempted << ",\"failed\":" << p.failed << "}";
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes) {
    os << (first ? "" : ",") << json_str(k) << ":" << json_str(v);
    first = false;
  }
  os << "},\"mismatches\":[";
  first = true;
  for (const std::string& s : mismatches) {
    os << (first ? "" : ",") << json_str(s);
    first = false;
  }
  os << "]}";
  return os.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  return static_cast<bool>(os);
}

std::string Args::get(const std::string& k, const std::string& def) const {
  const auto it = kv.find(k);
  return it == kv.end() ? def : it->second;
}

double Args::num(const std::string& k, double def) const {
  const auto it = kv.find(k);
  if (it == kv.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end && *end == '\0' ? v : def;
}

bool parse_args(int argc, char** argv, int first, Args& out) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    out.kv[a.substr(2)] = argv[++i];
  }
  return true;
}

void set_tracing(bool on) { m::obs::Tracer::instance().set_enabled(on); }

bool write_trace(const std::string& path) {
  std::ofstream os(path);
  m::obs::Tracer::instance().write_chrome_trace(os);
  return static_cast<bool>(os);
}

}  // namespace e2e
