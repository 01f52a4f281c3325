// Onboarding stage: the write side of the flow for one design. Builds the
// training designs, generates the training datasets, trains the framework
// (repeatedly, alternating with Syn-1 fault-dictionary campaigns and more
// datagen), adds its int8 twin when the workload serves int8 and saves it —
// the file the serving stage loads.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "diagnosis/dictionary.h"
#include "eval/framework_io.h"
#include "eval/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stages.h"

namespace e2e {

namespace m = m3dfl;
using m::eval::Config;
using m::eval::Dataset;
using m::eval::DatagenOptions;

namespace {

/// Partition size of the campaign (cone-closed regions, in-memory
/// signatures: disk I/O is not part of the measurement).
constexpr std::size_t kDictPartitionGates = 8192;

/// Samples regenerated on the event engine, single-threaded, to check the
/// bit-parallel two-thread datagen output.
constexpr std::size_t kDatagenCheckSamples = 8;

/// Syn-1 samples looked up in the dictionary to check it.
constexpr std::size_t kDictCheckSamples = 16;

/// build_training_bundle calls; the first call's bundle trains.
constexpr std::size_t kDatagenReps = 4;

/// Held-out Syn-1 samples used to calibrate and evaluate the int8 twin.
constexpr std::size_t kCalibSamples = 32;
constexpr std::size_t kQuantEvalSamples = 64;

std::size_t bundle_samples(const m::eval::TrainingBundle& b) {
  return b.ds_syn1.size() + b.ds_rand1.size() + b.ds_rand2.size() +
         b.miv_syn1.size() + b.miv_rand1.size();
}

bool same_sample(const m::eval::Sample& a, const m::eval::Sample& b) {
  return a.log.compacted == b.log.compacted && a.log.fails == b.log.fails &&
         a.log.cfails == b.log.cfails && a.faults == b.faults &&
         a.fault_tier == b.fault_tier;
}

}  // namespace

int run_onboard(const Workload& w, const StageOptions& opt) {
  StageResult res;
  auto& reg = m::obs::MetricsRegistry::instance();
  reg.reset();
  set_tracing(opt.trace);

  // -- Designs: Syn-1 plus two random partitions (the paper's training
  //    augmentation recipe). ------------------------------------------------
  const Clock::time_point t_build = Clock::now();
  // build_training_bundle later finds all three in the design cache.
  m::eval::Design* syn1 = nullptr;
  {
    M3DFL_OBS_SPAN(span, "e2e.onboard.build_designs");
    syn1 = &m::eval::cached_design(w.spec, Config::kSyn1);
    m::eval::cached_design(w.spec, Config::kRandomPart, 1);
    m::eval::cached_design(w.spec, Config::kRandomPart, 2);
  }
  const double build_s = seconds_since(t_build);
  res.set("eval.onboard_build_s", build_s, "s");

  // -- Datagen: the library's training recipe (build_training_bundle) with
  //    every dataset scaled up together, so that kDatagenReps calls fill the
  //    phase's sample budget. The first call's bundle trains; the others run
  //    between the training repetitions below. Datagen is prefix-stable, so
  //    the recipe's own datasets are prefixes of every call's. -------------
  const m::eval::RunScale& sc = w.train_scale;
  const std::size_t recipe_total = sc.train_single +
                                   2 * sc.train_random_part + sc.train_miv +
                                   sc.train_miv / 2;
  const double scale_up = static_cast<double>(w.datagen_samples(opt.seconds)) /
                          static_cast<double>(kDatagenReps * recipe_total);
  const auto scaled = [scale_up](std::size_t n) {
    return std::max(n, static_cast<std::size_t>(scale_up *
                                                static_cast<double>(n)));
  };
  m::eval::RunScale dg_scale = sc;
  dg_scale.train_single =
      std::max(sc.train_single + kCalibSamples + kQuantEvalSamples,
               scaled(sc.train_single));
  dg_scale.train_random_part = scaled(sc.train_random_part);
  dg_scale.train_miv = scaled(sc.train_miv);
  reg.counter("datagen.samples").reset();
  reg.counter("datagen.skipped").reset();
  std::vector<double> dg_s, dg_rate;
  std::size_t produced = 0;
  const auto run_datagen = [&] {
    const Clock::time_point t0 = Clock::now();
    m::eval::TrainingBundle b;
    {
      M3DFL_OBS_SPAN(span, "e2e.onboard.datagen");
      b = m::eval::build_training_bundle(w.spec, false, dg_scale);
    }
    dg_s.push_back(seconds_since(t0));
    dg_rate.push_back(static_cast<double>(bundle_samples(b)) / dg_s.back());
    produced += bundle_samples(b);
    return b;
  };
  m::eval::TrainingBundle bundle = run_datagen();
  // Each dataset with the size training keeps (the recipe's own count).
  const std::pair<Dataset*, std::size_t> recipe[] = {
      {&bundle.ds_syn1, sc.train_single},
      {&bundle.ds_rand1, sc.train_random_part},
      {&bundle.ds_rand2, sc.train_random_part},
      {&bundle.miv_syn1, sc.train_miv},
      {&bundle.miv_rand1, sc.train_miv / 2},
  };
  std::size_t dg_failed = 0;
  {
    // The event engine on one thread is the reference for the bit-parallel
    // two-thread campaign (the library promises bit-identical datasets).
    // The recipe's Syn-1 seed, as build_training_bundle derives it.
    DatagenOptions o;
    o.num_samples = kDatagenCheckSamples;
    o.seed = m::derive_seed(w.spec.seed, 1001 + sc.seed);
    o.num_threads = 1;
    o.backend = m::sim::SimBackend::kEvent;
    const Dataset ref = m::eval::generate_dataset(*syn1, o);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (i >= bundle.ds_syn1.size() ||
          !same_sample(ref.samples[i], bundle.ds_syn1.samples[i])) {
        ++dg_failed;
        res.mismatches.push_back("datagen sample " + std::to_string(i) +
                                 " differs from the event-engine reference");
      }
    }
  }
  for (const auto& [ds, keep] : recipe) {
    if (ds->size() < keep) {
      ++dg_failed;
      res.mismatches.push_back("datagen produced fewer samples than training "
                               "needs");
    }
  }
  // Later calls must repeat the first call's samples.
  std::vector<m::eval::Sample> dg_first(
      bundle.ds_syn1.samples.begin(),
      bundle.ds_syn1.samples.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(kDatagenCheckSamples, bundle.ds_syn1.size())));
  const auto run_datagen_reps = [&](std::size_t until) {
    while (dg_s.size() < until) {
      const m::eval::TrainingBundle b = run_datagen();
      for (std::size_t i = 0; i < dg_first.size(); ++i) {
        if (i >= b.ds_syn1.size() ||
            !same_sample(dg_first[i], b.ds_syn1.samples[i])) {
          ++dg_failed;
          res.mismatches.push_back("datagen call " +
                                   std::to_string(dg_s.size() - 1) +
                                   " differs from the first in sample " +
                                   std::to_string(i));
        }
      }
    }
  };

  // -- Training on the recipe's prefixes, repeated. Training is
  //    deterministic, so every repetition must produce the same framework.
  //    The dictionary campaigns and the other datagen calls run in slices
  //    between the repetitions, so every rate samples the whole stage: the
  //    host's speed drifts by 10% and more within seconds on a shared
  //    machine. Repeated steps report their fastest repetition: the host
  //    only ever slows one down, so the fastest has the least of it in it.
  m::eval::Dataset held_out;  // Syn-1 samples past the training prefix.
  for (std::size_t i = sc.train_single; i < bundle.ds_syn1.size(); ++i) {
    held_out.samples.push_back(std::move(bundle.ds_syn1.samples[i]));
  }
  for (const auto& [ds, keep] : recipe) {
    ds->samples.resize(std::min(ds->size(), keep));
  }

  m::diag::FaultDictionaryOptions dopts;
  dopts.backend = m::sim::SimBackend::kBitParallel;
  dopts.num_threads = kComputeThreads;
  dopts.partition_max_gates = kDictPartitionGates;
  const std::size_t dict_reps = w.dict_reps(opt.seconds);
  const std::size_t jobs_per_rep = syn1->sites.size() * 2;
  double dict_seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t entries = 0;
  std::size_t dict_done = 0;
  std::size_t dict_failed = 0;
  std::unique_ptr<m::diag::FaultDictionary> dict;
  // Campaigns until `until` have run in total.
  const auto run_campaigns = [&](std::size_t until) {
    for (; dict_done < until; ++dict_done) {
      dict.reset();
      const Clock::time_point t0 = Clock::now();
      {
        M3DFL_OBS_SPAN(span, "e2e.onboard.dictionary");
        dict = std::make_unique<m::diag::FaultDictionary>(
            syn1->nl, syn1->sites, *syn1->fsim, dopts);
      }
      dict_seconds += seconds_since(t0);
      const std::uint64_t fp = dict->fingerprint();
      entries = dict->num_entries();
      if (dict_done == 0) fingerprint = fp;
      if (fp != fingerprint || entries == 0) {
        ++dict_failed;
        res.mismatches.push_back("dictionary campaign " +
                                 std::to_string(dict_done) +
                                 " fingerprint differs from the first");
      }
    }
  };

  m::eval::RunScale scale = sc;
  std::size_t graph_epochs = 0;
  scale.on_epoch = [&graph_epochs](const std::string&,
                                   const m::gnn::EpochStats& es) {
    graph_epochs += es.examples;
  };
  m::eval::TrainedFramework fw;
  std::string fw_text;
  std::vector<double> train_s, train_rate, epoch_ms;
  std::size_t train_failed = 0;
  for (std::size_t rep = 0; rep < w.train_reps; ++rep) {
    graph_epochs = 0;
    reg.histogram("train.epoch").reset();
    const Clock::time_point t_tr = Clock::now();
    {
      M3DFL_OBS_SPAN(span, "e2e.onboard.train");
      fw = m::eval::train_framework(bundle, scale);
    }
    train_s.push_back(seconds_since(t_tr));
    train_rate.push_back(static_cast<double>(graph_epochs) / train_s.back());
    epoch_ms.push_back(1e3 * reg.histogram("train.epoch").mean_seconds());
    std::string text = m::eval::framework_to_string(fw);
    if (rep == 0) {
      fw_text = std::move(text);
    } else if (text != fw_text) {
      ++train_failed;
      res.mismatches.push_back("training repetition " + std::to_string(rep) +
                               " produced a different framework");
    }
    // Slices sit between repetitions; a lone campaign sits in the middle.
    run_campaigns(((rep + 1) * dict_reps + w.train_reps / 2) / w.train_reps);
    run_datagen_reps(1 + ((rep + 1) * (kDatagenReps - 1) + w.train_reps / 2) /
                             w.train_reps);
  }
  res.count("datagen", produced, dg_failed);
  res.set("datagen_samples_per_s", std::ranges::max(dg_rate), "1/s");
  const double dg_seconds =
      static_cast<double>(kDatagenReps) * std::ranges::min(dg_s);
  res.set("datagen.generate_s", dg_seconds, "s");
  {
    const double ok =
        static_cast<double>(reg.counter("datagen.samples").value());
    const double skipped =
        static_cast<double>(reg.counter("datagen.skipped").value());
    res.set("datagen.skipped_ratio",
            ok + skipped > 0 ? skipped / (ok + skipped) : 0.0, "ratio");
  }
  {
    std::string rates;
    for (double r : train_rate) {
      rates += (rates.empty() ? "" : " ") + std::to_string(r);
    }
    res.notes["train_rates"] = rates;
  }
  res.set("train_graphs_per_s", std::ranges::max(train_rate), "1/s");
  res.set("train.framework_s", std::ranges::min(train_s), "s");
  res.set("train.epoch_ms", std::ranges::min(epoch_ms), "ms");
  res.count("train", w.train_reps, train_failed);

  res.count("dictionary", dict_reps, dict_failed);
  // Mean, not median, over the campaigns: on tiny designs one campaign
  // takes either ~9 or ~15 ms (allocator state), and the median flips
  // between the two modes from run to run.
  const double campaign_s = dict_seconds / static_cast<double>(dict_reps);
  res.set("dictionary.faults_per_s",
          static_cast<double>(jobs_per_rep) / campaign_s, "1/s");
  res.set("dictionary.build_s", campaign_s, "s");
  res.set("dictionary.entries", static_cast<double>(entries), "count");
  res.set("dictionary.partition_regions",
          reg.gauge("dictionary.partition_regions").value(), "count");
  res.notes["dictionary_fingerprint"] = std::to_string(fingerprint);
  {
    // A detected single fault's own signature is in the dictionary, so an
    // exact lookup of its bypass log must name it with score 1.
    std::size_t failed = 0;
    const std::size_t n = std::min(kDictCheckSamples, bundle.ds_syn1.size());
    for (std::size_t i = 0; i < n; ++i) {
      const m::eval::Sample& smp = bundle.ds_syn1.samples[i];
      const m::diag::DiagnosisReport rep = dict->diagnose(smp.log);
      bool found = false;
      for (const m::diag::Candidate& c : rep.candidates) {
        found |= c.site == smp.faults[0].site &&
                 c.polarity == smp.faults[0].polarity && c.score == 1.0;
      }
      if (!found) {
        ++failed;
        res.mismatches.push_back("dictionary lookup of datagen sample " +
                                 std::to_string(i) +
                                 " misses the injected fault");
      }
    }
    res.count("dictionary_lookup", n, failed);
    dict.reset();
  }

  // Sim-layer counters cover the dictionary and datagen campaigns.
  const double bp_faults =
      static_cast<double>(reg.counter("sim.bitpar.faults").value());
  res.set("sim.bitpar.lane_words_evaluated",
          static_cast<double>(
              reg.counter("sim.bitpar.lane_words_evaluated").value()),
          "count");
  res.set("sim.bitpar.gate_evals",
          static_cast<double>(reg.counter("sim.bitpar.gate_evals").value()),
          "count");
  res.set("sim.bitpar.inactive_ratio",
          bp_faults > 0
              ? static_cast<double>(
                    reg.counter("sim.bitpar.inactive_faults").value()) /
                    bp_faults
              : 0.0,
          "ratio");

  double quant_s = 0.0;
  if (w.inference == m::eval::InferenceMode::kInt8) {
    Dataset calib, eval_set;
    for (std::size_t i = 0; i < held_out.size(); ++i) {
      (i < kCalibSamples ? calib : eval_set)
          .samples.push_back(std::move(held_out.samples[i]));
    }
    const Clock::time_point t_q = Clock::now();
    const auto calib_graphs = m::eval::graphs_of(calib);
    const auto tier_eval = m::eval::tier_labeled(eval_set);
    m::eval::QuantizeOptions qo;
    qo.num_threads = kComputeThreads;
    qo.tp_precision_target = scale.tp_precision_target;
    M3DFL_OBS_SPAN(span, "e2e.onboard.quantize");
    const m::eval::QuantReport qr =
        m::eval::quantize_framework(fw, calib_graphs, tier_eval, {}, qo);
    quant_s = seconds_since(t_q);
    res.notes["int8_auprc_delta"] = std::to_string(qr.auprc_delta());
  }

  // -- Hand-off through the file format -------------------------------------
  const Clock::time_point t_save = Clock::now();
  const std::string text = m::eval::framework_to_string(fw);
  const bool saved = write_file(opt.framework_path, text);
  const double save_s = seconds_since(t_save);
  std::size_t save_failed = 0;
  if (!saved) {
    ++save_failed;
    res.mismatches.push_back("cannot write " + opt.framework_path);
  } else {
    m::eval::TrainedFramework back;
    std::string error;
    if (!m::eval::load_framework_file(back, opt.framework_path, &error) ||
        m::eval::framework_to_string(back) != text) {
      ++save_failed;
      res.mismatches.push_back("framework file does not round-trip: " +
                               error);
    }
  }
  res.count("framework_file", 1, save_failed);
  // The onboarding flow done once: measurement repetitions count once (at
  // their fastest) and the output checks not at all.
  res.set("onboard_s",
          build_s + campaign_s + dg_seconds + std::ranges::min(train_s) +
              quant_s + save_s,
          "s");

  set_tracing(false);
  if (opt.trace && !opt.trace_path.empty() && !write_trace(opt.trace_path)) {
    res.mismatches.push_back("cannot write " + opt.trace_path);
  }
  return finish_stage(res, opt);
}

}  // namespace e2e
