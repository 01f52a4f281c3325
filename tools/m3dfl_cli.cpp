// m3dfl — command-line driver for the library's deployment workflow.
//
// Subcommands:
//   gen       --benchmark aes|tate|netcard|leon3mp|tiny --config Syn-1|TPI|
//             Syn-2|Par [--out design.v]
//             Generate an M3D benchmark netlist and write it as Verilog.
//   train     --benchmark <name> [--out framework.m3dfl] [--compacted]
//             Train Tier-predictor / MIV-pinpointer / Classifier on Syn-1 +
//             two random partitions and save the framework.
//   inject    --benchmark <name> --config <cfg> [--seed N] [--compacted]
//             [--out chip.faillog]
//             Inject a random TDF, simulate the tester, write the failure
//             log (and print the ground truth for reference).
//   diagnose  --benchmark <name> --config <cfg> --faillog chip.faillog
//             [--framework framework.m3dfl] [--inference fp32|int8]
//             Run ATPG-style diagnosis; with a framework, also apply the
//             GNN candidate pruning & reordering policy (--inference int8
//             routes the policy models through the quantized twin).
//   dict      --benchmark <name> [--config <cfg>] [--threads N]
//             [--partition-gates N] [--spill sigs.bin] [--faillog F]
//             Run the full fault-dictionary campaign (the paper-scale
//             workload). --partition-gates shards it over cone-closed
//             hierarchical regions; --spill streams signatures to an
//             out-of-core compressed store instead of the heap. Prints the
//             entry count, fingerprint, signature footprint and peak RSS;
//             with --faillog, also diagnoses the log against the
//             dictionary.
//   quantize  --benchmark <name> [--config <cfg>] [--framework F]
//             [--out F2] [--calib-samples N] [--seed N] [--threads N]
//             [--precision P]
//             Calibrate an int8 twin for a trained framework (training one
//             first when --framework is absent): collect activation scales
//             on a calibration set, re-derive T_p on the quantized score
//             distribution, print the fp32-vs-int8 quality report
//             (AUPRC/recall deltas, score-delta bound) and save the
//             extended framework file.
//   eval      --benchmark <name> --framework F [--config <cfg>]
//             [--samples N] [--seed N] [--inference fp32|int8]
//             Re-measure a saved framework's diagnosis quality on freshly
//             generated samples; with --inference int8 the saved quantized
//             twin is evaluated side by side with the fp32 path.
//   serve     --benchmark <name> --config <cfg> --framework framework.m3dfl
//             --logs a.faillog,b.faillog,... [--threads N]
//             [--max-pending N] [--repeat N] [--quiet] [--admin-port N]
//             [--linger-ms N] [--inference fp32|int8]
//             Batch-diagnose the logs through the concurrent serving stack
//             (src/serve/): bounded admission (--max-pending accepted
//             requests not yet finished; the rest are rejected as
//             overloaded), executor fan-out, sub-graph cache, and a
//             metrics table at the end. With --admin-port the
//             process exposes the live-introspection plane (/healthz,
//             /readyz, /metrics, /metrics.json, /statusz, /tracez) on
//             loopback while it runs; --linger-ms keeps it alive after the
//             batch drains so scrapers can poll it.
//
// The benchmark/config pair pins the netlist + pattern set (both are
// regenerated deterministically from the spec seeds, standing in for the
// design database a real flow would load).
//
// Every subcommand accepts the observability flags:
//   --trace out.json          Write a Chrome/Perfetto trace-event file
//                             covering the command's pipeline spans.
//   --metrics-json out.json   Dump the process metrics registry (and, for
//                             serve, the service metrics) as JSON. "-"
//                             writes the JSON to stdout; the surrounding
//                             notice lines go through the logger (stderr),
//                             so stdout stays machine-parseable.
// gen/train additionally take --progress (per-epoch training lines plus a
// per-span summary table at exit).
//
// Exit codes: 0 success, 1 runtime failure (unreadable/corrupt files,
// failed diagnosis), 2 usage error (unknown subcommand/flag, missing or
// malformed argument).
//
// Diagnostics go through the obs logger (text sink on stderr by default;
// --log-json switches every subcommand's diagnostics to JSON-lines). The
// text-sink output is byte-identical to the fprintf(stderr) sites it
// replaced, so scripts matching on error text keep working.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "diagnosis/dictionary.h"
#include "eval/framework_io.h"
#include "eval/quantize.h"
#include "netlist/verilog.h"
#include "obs/build_info.h"
#include "obs/exemplar.h"
#include "obs/httpd.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/prof/profiler.h"
#include "obs/trace.h"
#include "serve/admin.h"
#include "serve/service.h"
#include "sim/backend.h"
#include "sim/bitpar/dispatch.h"

namespace m3dfl {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

/// Service metrics JSON captured by cmd_serve after drain(); main() folds
/// it into the --metrics-json payload (the service is long gone by then).
std::string g_service_metrics_json;

/// Campaign simulation engine selected with --sim-backend (main() parses
/// it once for every subcommand; train and inject consume it).
sim::SimBackend g_sim_backend = sim::SimBackend::kEvent;

int usage() {
  std::fputs(
      "usage: m3dfl <gen|train|inject|diagnose|dict|quantize|eval|serve> "
      "[options]\n"
      "  gen      --benchmark B --config C [--out design.v]\n"
      "  train    --benchmark B [--compacted] [--threads N]\n"
      "           [--out framework.m3dfl]\n"
      "  inject   --benchmark B --config C [--seed N] [--compacted]\n"
      "           [--out chip.faillog]\n"
      "  diagnose --benchmark B --config C --faillog F\n"
      "           [--framework framework.m3dfl] [--inference fp32|int8]\n"
      "  dict     --benchmark B [--config C] [--threads N]\n"
      "           [--partition-gates N] [--spill sigs.bin] [--faillog F]\n"
      "  quantize --benchmark B [--config C] [--framework F] [--out F2]\n"
      "           [--calib-samples N] [--seed N] [--threads N]\n"
      "           [--precision P]\n"
      "  eval     --benchmark B --framework F [--config C] [--samples N]\n"
      "           [--seed N] [--inference fp32|int8]\n"
      "  serve    --benchmark B --config C --framework framework.m3dfl\n"
      "           --logs F1,F2,... [--threads N] [--max-pending N]\n"
      "           [--repeat N] [--quiet] [--admin-port N] [--linger-ms N]\n"
      "           [--inference fp32|int8]\n"
      "all subcommands also take [--trace out.json] [--metrics-json out.json|-]\n"
      "[--profile out.folded] [--counters] [--log-json]\n"
      "[--sim-backend event|bitpar] [--simd scalar|sse2|avx2]\n"
      "(M3DFL_SIMD env is the no-flag equivalent of --simd);\n"
      "gen/train also take [--progress]\n"
      "m3dfl --version prints build metadata\n"
      "benchmarks: aes tate netcard leon3mp tiny m3d100k m3d338k\n"
      "configs:    Syn-1 TPI Syn-2 Par\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage error\n",
      stderr);
  return kExitUsage;
}

std::optional<eval::BenchmarkSpec> spec_by_name(const std::string& name) {
  if (name == "aes") return eval::aes_spec();
  if (name == "tate") return eval::tate_spec();
  if (name == "netcard") return eval::netcard_spec();
  if (name == "leon3mp") return eval::leon3mp_spec();
  if (name == "tiny") return eval::tiny_spec();
  if (name == "m3d100k") return eval::m3d100k_spec();
  if (name == "m3d338k") return eval::m3d338k_spec();
  return std::nullopt;
}

std::optional<eval::Config> config_by_name(const std::string& name) {
  for (eval::Config c : eval::eval_configs()) {
    if (name == eval::config_name(c)) return c;
  }
  return std::nullopt;
}

/// Per-subcommand flag schema: which --flags take a value and which are
/// bare switches. Anything else — an unknown flag, a switch given with no
/// leading "--", a value flag at the end of the line — is a usage error
/// (exit 2), not silently ignored.
struct FlagSpec {
  std::set<std::string> value_flags;
  std::set<std::string> switch_flags;
};

std::optional<std::map<std::string, std::string>> parse_flags(
    int argc, char** argv, int first, const FlagSpec& spec) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      M3DFL_LOG_ERROR("cli", "unexpected argument '%s'", arg.c_str());
      return std::nullopt;
    }
    const std::string key = arg.substr(2);
    if (spec.switch_flags.count(key)) {
      flags[key] = "1";
    } else if (spec.value_flags.count(key)) {
      if (i + 1 >= argc) {
        M3DFL_LOG_ERROR("cli", "flag --%s needs a value", key.c_str());
        return std::nullopt;
      }
      flags[key] = argv[++i];
    } else {
      M3DFL_LOG_ERROR("cli", "unknown flag --%s", key.c_str());
      return std::nullopt;
    }
  }
  return flags;
}

/// Strict unsigned parse; nullopt on junk like "--seed 12x" or "--seed -3".
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (value > (UINT64_MAX - (c - '0')) / 10) return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Strict finite-double parse for threshold-like flags (--precision).
std::optional<double> parse_f64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || end == text.c_str() || *end != '\0' ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Shared --inference handling; defaults to fp32 when the flag is absent.
bool parse_inference_flag(const std::map<std::string, std::string>& flags,
                          eval::InferenceMode& mode) {
  if (!flags.count("inference")) return true;
  if (!eval::parse_inference_mode(flags.at("inference"), mode)) {
    M3DFL_LOG_ERROR("cli", "--inference wants fp32|int8");
    return false;
  }
  return true;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config) return usage();
  const eval::Design& d = eval::cached_design(*spec, *config);

  const std::string out =
      flags.count("out") ? flags.at("out") : spec->name + ".v";
  std::ofstream os(out);
  if (!os) {
    M3DFL_LOG_ERROR("cli", "cannot write %s", out.c_str());
    return kExitRuntime;
  }
  netlist::write_verilog(d.nl, os, spec->name);
  std::printf("wrote %s: %zu logic gates, %zu MIVs, %zu scan cells, "
              "test coverage %.1f%%\n",
              out.c_str(), d.nl.num_logic_gates(), d.nl.num_mivs(),
              d.nl.num_scan_cells(), 100.0 * d.test_coverage);
  return kExitOk;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  if (!spec) return usage();
  const bool compacted = flags.count("compacted") > 0;
  eval::RunScale scale;
  if (spec->name == "tiny") scale = eval::RunScale::tiny();
  scale.sim_backend = g_sim_backend;
  if (flags.count("threads")) {
    const auto parsed = parse_u64(flags.at("threads"));
    if (!parsed || *parsed < 1) {
      M3DFL_LOG_ERROR("cli", "--threads wants an integer >= 1");
      return usage();
    }
    scale.num_threads = static_cast<std::size_t>(*parsed);
  }
  if (flags.count("progress")) {
    scale.on_epoch = [](const std::string& model,
                        const gnn::EpochStats& es) {
      std::printf("  [%s] epoch %3d  loss %.5f  %.3f s", model.c_str(),
                  es.epoch + 1, es.loss, es.seconds);
      if (es.grad_merge_seconds > 0.0) {
        std::printf("  (grad merge %.3f s)", es.grad_merge_seconds);
      }
      std::printf("\n");
      std::fflush(stdout);
    };
  }

  std::printf("training on %s (Syn-1 + 2 random partitions, %s)...\n",
              spec->name.c_str(), compacted ? "compacted" : "bypass");
  const eval::TrainingBundle bundle =
      eval::build_training_bundle(*spec, compacted, scale);
  const eval::TrainedFramework fw = eval::train_framework(bundle, scale);
  std::printf("tier training accuracy %.1f%%, T_p = %.3f, %.1f s\n",
              100 * fw.train_tier_accuracy, fw.policy.t_p,
              fw.gnn_train_seconds);

  const std::string out =
      flags.count("out") ? flags.at("out") : spec->name + ".m3dfl";
  std::ofstream os(out);
  if (!os) {
    M3DFL_LOG_ERROR("cli", "cannot write %s", out.c_str());
    return kExitRuntime;
  }
  eval::save_framework(fw, os);
  std::printf("saved framework to %s\n", out.c_str());
  return kExitOk;
}

int cmd_inject(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config) return usage();
  std::uint64_t seed = 1;
  if (flags.count("seed")) {
    const auto parsed = parse_u64(flags.at("seed"));
    if (!parsed) {
      M3DFL_LOG_ERROR("cli", "--seed wants an unsigned integer");
      return usage();
    }
    seed = *parsed;
  }
  const eval::Design& d = eval::cached_design(*spec, *config);

  eval::DatagenOptions opts;
  opts.num_samples = 1;
  opts.compacted = flags.count("compacted") > 0;
  opts.seed = seed;
  opts.backend = g_sim_backend;
  const eval::Dataset ds = eval::generate_dataset(d, opts);
  if (ds.samples.empty()) {
    M3DFL_LOG_ERROR("cli", "drew no detectable fault; try another --seed");
    return kExitRuntime;
  }
  const eval::Sample& chip = ds.samples.front();

  const std::string out =
      flags.count("out") ? flags.at("out") : "chip.faillog";
  std::ofstream os(out);
  if (!os) {
    M3DFL_LOG_ERROR("cli", "cannot write %s", out.c_str());
    return kExitRuntime;
  }
  os << sim::to_text(chip.log);
  std::printf("wrote %s: %zu failing observations\n", out.c_str(),
              chip.log.size());
  std::printf("ground truth (for reference): site %u, %s tier%s\n",
              chip.truth_sites.front(),
              chip.fault_tier == 1 ? "top" : "bottom",
              chip.truth_is_miv ? " [MIV]" : "");
  return kExitOk;
}

std::optional<sim::FailureLog> read_faillog(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    M3DFL_LOG_ERROR("cli", "cannot read %s", path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  const sim::FailureLogParseResult parsed =
      sim::failure_log_from_text(buffer.str());
  if (!parsed.ok) {
    M3DFL_LOG_ERROR("cli", "bad failure log %s: %s", path.c_str(),
                    parsed.message.c_str());
    return std::nullopt;
  }
  return parsed.log;
}

void print_report(const diag::DiagnosisReport& report) {
  std::puts("rank  site      tier    score   (MIV)");
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    const diag::Candidate& c = report.candidates[i];
    std::printf("%4zu  %-8u  %-6s  %.3f   %s\n", i + 1, c.site,
                c.tier == netlist::Tier::kTop ? "top" : "bottom", c.score,
                c.is_miv ? "MIV" : "");
  }
}

int cmd_diagnose(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config || !flags.count("faillog")) return usage();
  const eval::Design& d = eval::cached_design(*spec, *config);

  const auto log = read_faillog(flags.at("faillog"));
  if (!log) return kExitRuntime;

  diag::Diagnoser diagnoser = d.make_diagnoser();
  diag::DiagnosisReport report;
  try {
    report = diagnoser.diagnose(*log);
  } catch (const std::invalid_argument& e) {
    M3DFL_LOG_ERROR("cli", "bad failure log %s: %s",
                    flags.at("faillog").c_str(), e.what());
    return kExitRuntime;
  }
  std::printf("ATPG diagnosis: %zu candidates in %.1f ms\n",
              report.resolution(), 1e3 * report.seconds);

  diag::DiagnosisReport final_report = report;
  if (flags.count("framework")) {
    eval::InferenceMode mode = eval::InferenceMode::kFp32;
    if (!parse_inference_flag(flags, mode)) return usage();
    eval::TrainedFramework fw;
    std::string error;
    if (!eval::load_framework_file(fw, flags.at("framework"), &error)) {
      M3DFL_LOG_ERROR("cli", "bad framework file: %s", error.c_str());
      return kExitRuntime;
    }
    if (mode == eval::InferenceMode::kInt8 && !fw.quant) {
      M3DFL_LOG_WARN("cli",
                     "--inference int8 but %s has no quantized twin "
                     "(run `m3dfl quantize`); using fp32",
                     flags.at("framework").c_str());
    }
    const graphx::SubGraph sub =
        graphx::backtrace_subgraph(*d.graph, *log, d.scan);
    const core::PolicyOutcome outcome =
        core::apply_policy(report, sub, fw.models(mode), fw.policy_for(mode));
    std::printf("tier prediction: %s (confidence %.3f) — report %s, "
                "%zu candidates moved to the backup dictionary\n",
                outcome.predicted_tier == netlist::Tier::kTop ? "TOP"
                                                              : "BOTTOM",
                outcome.confidence, outcome.pruned ? "pruned" : "reordered",
                outcome.backup.size());
    final_report = outcome.report;
  }

  print_report(final_report);
  return kExitOk;
}

int cmd_dict(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config) return usage();

  diag::FaultDictionaryOptions opts;
  opts.backend = g_sim_backend;
  opts.num_threads = 1;
  if (flags.count("threads")) {
    const auto parsed = parse_u64(flags.at("threads"));
    if (!parsed || *parsed < 1) {
      M3DFL_LOG_ERROR("cli", "--threads wants an integer >= 1");
      return usage();
    }
    opts.num_threads = static_cast<std::size_t>(*parsed);
  }
  if (flags.count("partition-gates")) {
    const auto parsed = parse_u64(flags.at("partition-gates"));
    if (!parsed || *parsed < 1) {
      M3DFL_LOG_ERROR("cli", "--partition-gates wants an integer >= 1");
      return usage();
    }
    opts.partition_max_gates = static_cast<std::size_t>(*parsed);
  }
  if (flags.count("spill")) opts.spill_path = flags.at("spill");

  const eval::Design& d = eval::cached_design(*spec, *config);
  const auto t0 = std::chrono::steady_clock::now();
  const diag::FaultDictionary dict(d.nl, d.sites, *d.fsim, opts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Campaign stats are notices, not primary output: they go through the
  // logger (stderr) so `--metrics-json -` leaves stdout pure JSON.
  const diag::FaultDictionary::SignatureFootprint fp = dict.footprint();
  M3DFL_LOG_INFO("cli",
                 "dictionary: %zu entries over %zu sites in %.2f s "
                 "(fingerprint %016llx)",
                 dict.num_entries(), d.sites.size(), seconds,
                 static_cast<unsigned long long>(dict.fingerprint()));
  M3DFL_LOG_INFO("cli",
                 "signatures: %.1f MB resident, %.1f MB on disk "
                 "(%.1f MB logical); peak RSS %.1f MB",
                 fp.resident_bytes / 1048576.0, fp.disk_bytes / 1048576.0,
                 fp.logical_bytes / 1048576.0,
                 obs::peak_rss_bytes() / 1048576.0);
  if (opts.partition_max_gates > 0) {
    M3DFL_LOG_INFO("cli", "partitioned campaign: <= %zu gates per region",
                   opts.partition_max_gates);
  }

  if (flags.count("faillog")) {
    const auto log = read_faillog(flags.at("faillog"));
    if (!log) return kExitRuntime;
    if (log->compacted) {
      M3DFL_LOG_ERROR(
          "cli", "dictionary diagnosis wants a bypass (non-compacted) log");
      return kExitRuntime;
    }
    const diag::DiagnosisReport report = dict.diagnose(*log);
    std::printf("dictionary diagnosis: %zu candidates\n",
                report.resolution());
    print_report(report);
  }
  return kExitOk;
}

/// Parses a "uint >= min" flag into *out; leaves *out alone when absent.
bool flag_u64(const std::map<std::string, std::string>& flags,
              const char* key, std::uint64_t min_value, std::uint64_t* out) {
  if (!flags.count(key)) return true;
  const auto parsed = parse_u64(flags.at(key));
  if (!parsed || *parsed < min_value) {
    M3DFL_LOG_ERROR("cli", "--%s wants an integer >= %llu", key,
                    static_cast<unsigned long long>(min_value));
    return false;
  }
  *out = *parsed;
  return true;
}

int cmd_quantize(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config) return usage();
  std::uint64_t seed = 1, threads = 1, calib_samples = 32;
  if (!flag_u64(flags, "seed", 0, &seed) ||
      !flag_u64(flags, "threads", 1, &threads) ||
      !flag_u64(flags, "calib-samples", 1, &calib_samples)) {
    return usage();
  }
  double precision = 0.99;
  if (flags.count("precision")) {
    const auto parsed = parse_f64(flags.at("precision"));
    if (!parsed || *parsed <= 0.0 || *parsed > 1.0) {
      M3DFL_LOG_ERROR("cli", "--precision wants a value in (0, 1]");
      return usage();
    }
    precision = *parsed;
  }

  eval::TrainedFramework fw;
  if (flags.count("framework")) {
    std::string error;
    if (!eval::load_framework_file(fw, flags.at("framework"), &error)) {
      M3DFL_LOG_ERROR("cli", "bad framework file: %s", error.c_str());
      return kExitRuntime;
    }
  } else {
    eval::RunScale scale;
    if (spec->name == "tiny") scale = eval::RunScale::tiny();
    scale.sim_backend = g_sim_backend;
    scale.num_threads = static_cast<std::size_t>(threads);
    std::printf("no --framework given; training on %s first...\n",
                spec->name.c_str());
    const eval::TrainingBundle bundle =
        eval::build_training_bundle(*spec, /*compacted=*/false, scale);
    fw = eval::train_framework(bundle, scale);
  }

  // Three disjoint deterministic sample streams (datagen seeds samples
  // individually, so distinct base seeds keep the sets independent):
  // calibration, tier evaluation, and MIV-targeted evaluation.
  const eval::Design& d = eval::cached_design(*spec, *config);
  eval::DatagenOptions dopts;
  dopts.num_samples = calib_samples;
  dopts.seed = seed;
  dopts.num_threads = static_cast<std::size_t>(threads);
  dopts.backend = g_sim_backend;
  const eval::Dataset calib_ds = eval::generate_dataset(d, dopts);
  dopts.num_samples = calib_samples * 2;
  dopts.seed = seed + 0x9e3779b9ull;
  const eval::Dataset eval_ds = eval::generate_dataset(d, dopts);
  dopts.mode = eval::FaultMode::kSingleMiv;
  dopts.num_samples = calib_samples;
  dopts.seed = seed + 0x51ed270bull;
  const eval::Dataset miv_ds = eval::generate_dataset(d, dopts);
  if (calib_ds.samples.empty() || eval_ds.samples.empty()) {
    M3DFL_LOG_ERROR(
        "cli", "datagen drew no detectable faults; try another --seed");
    return kExitRuntime;
  }
  std::printf("calibrating on %zu graphs, evaluating on %zu (+%zu MIV)...\n",
              calib_ds.size(), eval_ds.size(), miv_ds.size());

  eval::QuantizeOptions qopts;
  qopts.num_threads = static_cast<std::size_t>(threads);
  qopts.tp_precision_target = precision;
  const std::vector<const graphx::SubGraph*> calib =
      eval::graphs_of(calib_ds);
  const std::vector<gnn::LabeledGraph> tier_eval = eval::tier_labeled(eval_ds);
  const std::vector<const graphx::SubGraph*> miv_eval =
      eval::graphs_of(miv_ds);
  const eval::QuantReport report =
      eval::quantize_framework(fw, calib, tier_eval, miv_eval, qopts);
  std::fputs(eval::format_quant_report(report).c_str(), stdout);

  const std::string out = flags.count("out") ? flags.at("out")
                          : flags.count("framework")
                              ? flags.at("framework")
                              : spec->name + ".m3dfl";
  std::ofstream os(out);
  if (!os) {
    M3DFL_LOG_ERROR("cli", "cannot write %s", out.c_str());
    return kExitRuntime;
  }
  eval::save_framework(fw, os);
  std::printf("saved quantized framework to %s\n", out.c_str());
  return kExitOk;
}

int cmd_eval(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config || !flags.count("framework")) return usage();
  std::uint64_t seed = 1, samples = 64;
  if (!flag_u64(flags, "seed", 0, &seed) ||
      !flag_u64(flags, "samples", 1, &samples)) {
    return usage();
  }
  eval::InferenceMode mode = eval::InferenceMode::kFp32;
  if (!parse_inference_flag(flags, mode)) return usage();

  eval::TrainedFramework fw;
  std::string error;
  if (!eval::load_framework_file(fw, flags.at("framework"), &error)) {
    M3DFL_LOG_ERROR("cli", "bad framework file: %s", error.c_str());
    return kExitRuntime;
  }
  if (mode == eval::InferenceMode::kInt8 && !fw.quant) {
    M3DFL_LOG_ERROR("cli",
                    "%s has no quantized twin; run `m3dfl quantize` first",
                    flags.at("framework").c_str());
    return kExitRuntime;
  }

  const eval::Design& d = eval::cached_design(*spec, *config);
  eval::DatagenOptions dopts;
  dopts.num_samples = samples;
  dopts.seed = seed;
  dopts.backend = g_sim_backend;
  const eval::Dataset eval_ds = eval::generate_dataset(d, dopts);
  dopts.mode = eval::FaultMode::kSingleMiv;
  dopts.seed = seed + 0x51ed270bull;
  const eval::Dataset miv_ds = eval::generate_dataset(d, dopts);
  if (eval_ds.samples.empty()) {
    M3DFL_LOG_ERROR(
        "cli", "datagen drew no detectable faults; try another --seed");
    return kExitRuntime;
  }
  std::printf("evaluating %s on %s/%s: %zu samples (+%zu MIV), %s path\n",
              flags.at("framework").c_str(), spec->name.c_str(),
              eval::config_name(*config), eval_ds.size(), miv_ds.size(),
              eval::inference_mode_name(mode));

  const std::vector<gnn::LabeledGraph> tier_eval = eval::tier_labeled(eval_ds);
  const std::vector<const graphx::SubGraph*> miv_eval =
      eval::graphs_of(miv_ds);
  const eval::QuantReport report =
      eval::evaluate_framework(fw, mode, tier_eval, miv_eval);
  std::fputs(eval::format_quant_report(report).c_str(), stdout);
  return kExitOk;
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const auto spec = spec_by_name(flags.count("benchmark")
                                     ? flags.at("benchmark")
                                     : "");
  const auto config = config_by_name(
      flags.count("config") ? flags.at("config") : "Syn-1");
  if (!spec || !config || !flags.count("framework") || !flags.count("logs")) {
    return usage();
  }
  serve::ServiceOptions opts;
  std::uint64_t repeat = 1;
  const auto numeric = [&](const char* key, std::uint64_t min_value,
                           std::uint64_t* out) -> bool {
    if (!flags.count(key)) return true;
    const auto parsed = parse_u64(flags.at(key));
    if (!parsed || *parsed < min_value) {
      M3DFL_LOG_ERROR("cli", "--%s wants an integer >= %llu", key,
                      static_cast<unsigned long long>(min_value));
      return false;
    }
    *out = *parsed;
    return true;
  };
  std::uint64_t threads = opts.num_threads, max_pending = opts.max_pending;
  std::uint64_t admin_port = 0, linger_ms = 0;
  if (!numeric("threads", 1, &threads) ||
      !numeric("max-pending", 1, &max_pending) ||
      !numeric("repeat", 1, &repeat) ||
      !numeric("admin-port", 0, &admin_port) ||
      !numeric("linger-ms", 0, &linger_ms)) {
    return usage();
  }
  const bool want_admin = flags.count("admin-port") > 0;
  if (want_admin && admin_port > 65535) {
    M3DFL_LOG_ERROR("cli", "--admin-port wants a port number <= 65535");
    return usage();
  }
  opts.num_threads = threads;
  opts.max_pending = max_pending;
  if (!parse_inference_flag(flags, opts.inference)) return usage();
  const bool quiet = flags.count("quiet") > 0;

  const std::vector<std::string> paths = split_commas(flags.at("logs"));
  if (paths.empty()) {
    M3DFL_LOG_ERROR("cli", "--logs wants a comma-separated file list");
    return usage();
  }
  std::vector<sim::FailureLog> logs;
  for (const std::string& path : paths) {
    const auto log = read_faillog(path);
    if (!log) return kExitRuntime;
    logs.push_back(*log);
  }

  serve::ModelRegistry registry;
  {
    eval::TrainedFramework fw;
    std::string error;
    if (!eval::load_framework_file(fw, flags.at("framework"), &error)) {
      M3DFL_LOG_ERROR("cli", "bad framework file: %s", error.c_str());
      return kExitRuntime;
    }
    if (opts.inference == eval::InferenceMode::kInt8 && !fw.quant) {
      M3DFL_LOG_WARN("cli",
                     "--inference int8 but %s has no quantized twin "
                     "(run `m3dfl quantize`); serving fp32",
                     flags.at("framework").c_str());
    }
    registry.publish(opts.model_name, std::move(fw), flags.at("framework"));
  }

  const eval::Design& d = eval::cached_design(*spec, *config);
  serve::DiagnosisService service(registry, opts);
  service.register_design(d);

  // Declared after `service` so its handlers (which read the service) stop
  // before the service is torn down. Off by default: without --admin-port no
  // socket is opened and no server thread exists.
  obs::AdminHttpServer admin;
  if (want_admin) {
    obs::ExemplarStore::instance().set_enabled(true);
#if M3DFL_OBS_ENABLED
    // /tracez serves live spans; without the tracer it would only carry
    // the exemplar store.
    obs::Tracer::instance().set_enabled(true);
#endif
    serve::register_admin_endpoints(admin, service);
    obs::AdminHttpServer::Options admin_opts;
    admin_opts.port = static_cast<std::uint16_t>(admin_port);
    std::string error;
    if (!admin.start(admin_opts, &error)) {
      M3DFL_LOG_ERROR("cli", "cannot start admin server: %s", error.c_str());
      return kExitRuntime;
    }
    std::printf("admin endpoints on http://127.0.0.1:%u "
                "(/healthz /readyz /metrics /metrics.json /statusz /tracez "
                "/profilez /countersz)\n",
                admin.port());
    std::fflush(stdout);
  }

  std::vector<std::future<serve::DiagnosisResponse>> futures;
  futures.reserve(paths.size() * repeat);
  for (std::uint64_t r = 0; r < repeat; ++r) {
    for (const sim::FailureLog& log : logs) {
      futures.push_back(service.submit(d, log));
    }
  }

  bool any_failed = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::DiagnosisResponse resp = futures[i].get();
    const std::string& path = paths[i % paths.size()];
    if (!resp.ok) {
      any_failed = true;
      // rid matches the serve-side warn log and the /tracez exemplar.
      M3DFL_LOG_ERROR("cli", "%s: serve error (rid=%llu): %s", path.c_str(),
                      static_cast<unsigned long long>(resp.request_id),
                      resp.error.c_str());
      continue;
    }
    if (!quiet) {
      std::printf(
          "%s: rid=%llu, %zu -> %zu candidates, tier %s (conf %.3f), %s, "
          "model v%llu%s, %.1f ms\n",
          path.c_str(), static_cast<unsigned long long>(resp.request_id),
          resp.atpg_report.resolution(),
          resp.outcome.report.resolution(),
          resp.outcome.predicted_tier == netlist::Tier::kTop ? "TOP"
                                                             : "BOTTOM",
          resp.outcome.confidence,
          resp.outcome.pruned ? "pruned" : "reordered",
          static_cast<unsigned long long>(resp.model_version),
          resp.cache_hit ? ", cached sub-graph" : "", 1e3 * resp.seconds);
    }
  }
  service.drain();
  g_service_metrics_json = service.metrics().to_json();
  std::fputs(service.metrics().render("m3dfl serve").c_str(), stdout);
  if (want_admin && linger_ms > 0) {
    // Keep the process (and the admin plane) up so external scrapers can
    // poll the endpoints — this is what the CI smoke test curls against.
    std::printf("lingering %llu ms for admin scrapers...\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return any_failed ? kExitRuntime : kExitOk;
}

/// Post-run observability output: the Chrome trace file, the --progress
/// span-summary table, and the metrics JSON dump. Returns kExitRuntime on
/// a failed file write (folded into the command's rc only if it was OK).
int write_observability(const std::map<std::string, std::string>& flags) {
  int rc = kExitOk;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);  // Quiesce before snapshotting.

  // Stop sampling before any export: the folded file and the Chrome-trace
  // sample sections must both read a quiesced profile.
  std::string chrome_extra;
#if M3DFL_OBS_ENABLED
  obs::prof::CpuProfiler& profiler = obs::prof::CpuProfiler::instance();
  if (flags.count("profile")) {
    profiler.stop();
    if (flags.count("trace")) {
      chrome_extra = profiler.chrome_sample_sections();
    }
  }
#endif

  if (flags.count("trace")) {
    const std::string& path = flags.at("trace");
    std::ofstream os(path);
    if (os) tracer.write_chrome_trace(os, chrome_extra);
    if (!os) {
      M3DFL_LOG_ERROR("cli", "cannot write trace file %s", path.c_str());
      rc = kExitRuntime;
    } else if (const std::uint64_t d = tracer.dropped()) {
      M3DFL_LOG_INFO("cli", "wrote trace to %s (%zu spans, %llu dropped)",
                     path.c_str(), tracer.snapshot().size(),
                     static_cast<unsigned long long>(d));
    } else {
      M3DFL_LOG_INFO("cli", "wrote trace to %s (%zu spans)", path.c_str(),
                     tracer.snapshot().size());
    }
  }

#if M3DFL_OBS_ENABLED
  if (flags.count("profile")) {
    const std::string& path = flags.at("profile");
    std::ofstream os(path);
    if (os) profiler.write_folded(os);
    if (!os) {
      M3DFL_LOG_ERROR("cli", "cannot write profile file %s", path.c_str());
      rc = kExitRuntime;
    } else {
      M3DFL_LOG_INFO(
          "cli", "wrote profile to %s (%llu samples @ %d Hz, %llu dropped)",
          path.c_str(),
          static_cast<unsigned long long>(profiler.samples()),
          profiler.sample_hz(),
          static_cast<unsigned long long>(profiler.dropped()));
    }
  }

  if (flags.count("counters")) {
    // Stage-attributed counter table on stdout, like the --progress span
    // table. Hardware columns appear only when the probe ladder reached a
    // perf_event rung; on "rusage" the table is CPU seconds only.
    const obs::prof::CounterAvailability& av =
        obs::prof::counter_availability();
    const bool hw = av.mode == obs::prof::CounterMode::kFull ||
                    av.mode == obs::prof::CounterMode::kBasic;
    const bool full = av.mode == obs::prof::CounterMode::kFull;
    std::printf("\ncounters (%s: %s)\n",
                obs::prof::counter_mode_name(av.mode), av.detail.c_str());
    std::printf("%-24s %10s %10s", "scope", "count", "cpu s");
    if (hw) std::printf(" %14s %14s %6s", "cycles", "instr", "ipc");
    if (full) std::printf(" %10s %10s", "llc/ki", "br/ki");
    std::printf("\n");
    for (const auto& [name, t] :
         obs::prof::CounterRegistry::instance().snapshot()) {
      std::printf("%-24s %10llu %10.3f", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.cpu_seconds);
      if (hw) {
        std::printf(" %14llu %14llu %6.2f",
                    static_cast<unsigned long long>(t.cycles),
                    static_cast<unsigned long long>(t.instructions), t.ipc());
      }
      if (full) {
        std::printf(" %10.3f %10.3f", t.llc_misses_per_kinstr(),
                    t.branch_misses_per_kinstr());
      }
      std::printf("\n");
    }
  }
#endif

  if (flags.count("progress")) {
    const std::vector<obs::SpanSummary> summary =
        obs::summarize_spans(tracer.snapshot());
    if (!summary.empty()) {
      std::printf("\n%-24s %10s %12s %8s\n", "span", "count", "total ms",
                  "threads");
      for (const obs::SpanSummary& s : summary) {
        std::printf("%-24s %10llu %12.3f %8u\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count), s.total_ms,
                    s.threads);
      }
    }
  }

  if (flags.count("metrics-json")) {
    const std::string& path = flags.at("metrics-json");
    obs::publish_process_metrics();  // Fresh process.* gauges in the dump.
#if M3DFL_OBS_ENABLED
    const std::string counters_json =
        obs::prof::CounterRegistry::instance().enabled()
            ? obs::prof::CounterRegistry::instance().to_json()
            : "null";
#else
    // Key kept across build modes so consumers see one schema.
    const std::string counters_json = "null";
#endif
    const std::string payload =
        "{\"registry\": " + obs::MetricsRegistry::instance().to_json() +
        ", \"service\": " +
        (g_service_metrics_json.empty() ? "null" : g_service_metrics_json) +
        ", \"counters\": " + counters_json + "}\n";
    if (path == "-") {
      // Machine-readable mode: the JSON document is the only stdout output
      // of this block; the notice goes through the logger (stderr). This is
      // what keeps `m3dfl ... --metrics-json - | python3 -c 'json.load...'`
      // parseable.
      std::fwrite(payload.data(), 1, payload.size(), stdout);
      std::fflush(stdout);
      M3DFL_LOG_INFO("cli", "wrote metrics to stdout");
    } else {
      std::ofstream os(path);
      if (os) os << payload;
      if (!os) {
        M3DFL_LOG_ERROR("cli", "cannot write metrics file %s", path.c_str());
        rc = kExitRuntime;
      } else {
        M3DFL_LOG_INFO("cli", "wrote metrics to %s", path.c_str());
      }
    }
  }
  return rc;
}

}  // namespace
}  // namespace m3dfl

int main(int argc, char** argv) {
  using namespace m3dfl;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version") {
    std::printf("%s\n", obs::build_info_line().c_str());
    return kExitOk;
  }

  FlagSpec spec;
  if (cmd == "gen") {
    spec = {{"benchmark", "config", "out"}, {"progress"}};
  } else if (cmd == "train") {
    spec = {{"benchmark", "out", "threads"}, {"compacted", "progress"}};
  } else if (cmd == "inject") {
    spec = {{"benchmark", "config", "seed", "out"}, {"compacted"}};
  } else if (cmd == "diagnose") {
    spec = {{"benchmark", "config", "faillog", "framework", "inference"}, {}};
  } else if (cmd == "dict") {
    spec = {{"benchmark", "config", "threads", "partition-gates", "spill",
             "faillog"},
            {}};
  } else if (cmd == "quantize") {
    spec = {{"benchmark", "config", "framework", "out", "calib-samples",
             "seed", "threads", "precision"},
            {}};
  } else if (cmd == "eval") {
    spec = {{"benchmark", "config", "framework", "samples", "seed",
             "inference"},
            {}};
  } else if (cmd == "serve") {
    spec = {{"benchmark", "config", "framework", "logs", "threads",
             "max-pending", "repeat", "admin-port", "linger-ms", "inference"},
            {"quiet"}};
  } else {
    M3DFL_LOG_ERROR("cli", "unknown subcommand '%s'", cmd.c_str());
    return usage();
  }
  // Every subcommand records spans and metrics, can switch its diagnostics
  // to JSON-lines, and can pick the campaign simulation engine / SIMD tier.
  spec.value_flags.insert("trace");
  spec.value_flags.insert("metrics-json");
  spec.value_flags.insert("sim-backend");
  spec.value_flags.insert("simd");
  spec.value_flags.insert("profile");
  spec.switch_flags.insert("counters");
  spec.switch_flags.insert("log-json");

  // --log-json must take effect before any parse error is reported, so scan
  // for it ahead of the structured parse.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-json") == 0) {
      obs::Logger::instance().set_json(true);
    }
  }

  const auto flags = parse_flags(argc, argv, 2, spec);
  if (!flags) return usage();

  if (flags->count("sim-backend")) {
    const auto b = sim::parse_backend(flags->at("sim-backend"));
    if (!b) {
      M3DFL_LOG_ERROR("cli", "--sim-backend wants event|bitpar");
      return usage();
    }
    g_sim_backend = *b;
  }
  if (flags->count("simd")) {
    const auto t = sim::bitpar::parse_tier(flags->at("simd"));
    if (!t) {
      M3DFL_LOG_ERROR("cli", "--simd wants scalar|sse2|avx2");
      return usage();
    }
    // resolve_tier() falls back (with a notice) if the host lacks it.
    sim::bitpar::force_tier(*t);
  }

  const bool want_obs = flags->count("trace") || flags->count("progress") ||
                        flags->count("metrics-json");
  if (want_obs) {
#if M3DFL_OBS_ENABLED
    obs::Tracer::instance().set_enabled(true);
#else
    M3DFL_LOG_WARN("cli",
                   "note: built with M3DFL_OBS=OFF — the trace will be empty "
                   "(metrics histograms/counters still record)");
#endif
  }
  const bool want_profile = flags->count("profile") > 0;
  const bool want_counters = flags->count("counters") > 0;
#if M3DFL_OBS_ENABLED
  if (want_counters) obs::prof::CounterRegistry::instance().set_enabled(true);
  if (want_profile) {
    // Sample for the whole subcommand; write_observability() stops the
    // profiler and writes the folded stacks once the work is done. Worker
    // threads spawned later self-register (Executor's M3DFL_PROF_THREAD).
    std::string error;
    if (!obs::prof::CpuProfiler::instance().start(
            obs::prof::ProfilerOptions{}, &error)) {
      M3DFL_LOG_ERROR("cli", "cannot start profiler: %s", error.c_str());
      return kExitRuntime;
    }
  }
#else
  if (want_profile || want_counters) {
    M3DFL_LOG_WARN("cli",
                   "note: built with M3DFL_OBS=OFF — --profile/--counters "
                   "are inert (no samples, no counters)");
  }
#endif

  int rc;
  if (cmd == "gen") rc = cmd_gen(*flags);
  else if (cmd == "train") rc = cmd_train(*flags);
  else if (cmd == "inject") rc = cmd_inject(*flags);
  else if (cmd == "diagnose") rc = cmd_diagnose(*flags);
  else if (cmd == "dict") rc = cmd_dict(*flags);
  else if (cmd == "quantize") rc = cmd_quantize(*flags);
  else if (cmd == "eval") rc = cmd_eval(*flags);
  else rc = cmd_serve(*flags);

  if (want_obs || want_profile || want_counters) {
    const int obs_rc = write_observability(*flags);
    if (rc == kExitOk) rc = obs_rc;
  }
  return rc;
}
