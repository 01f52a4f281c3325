#include "diagnosis/diagnoser.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace m3dfl::diag {

using netlist::GateId;
using sim::InjectedFault;
using sim::kWordBits;

Diagnoser::Diagnoser(const Netlist& nl, const SiteTable& sites,
                     const ScanConfig& scan, DiagnoserOptions opts)
    : nl_(&nl),
      sites_(&sites),
      scan_(scan),
      opts_(opts) {}

void Diagnoser::bind(FaultSimulator& fsim) {
  fsim_ = &fsim;
}

void Diagnoser::check_log(const FailureLog& log) const {
  auto check = [](std::size_t i, const char* field, std::uint32_t value,
                  std::size_t limit) {
    if (value < limit) return;
    throw std::invalid_argument(
        "failure log entry " + std::to_string(i) + ": " + field + " " +
        std::to_string(value) + " out of range (design has " +
        std::to_string(limit) + ")");
  };
  const std::size_t patterns = fsim_->num_patterns();
  if (log.compacted) {
    for (std::size_t i = 0; i < log.cfails.size(); ++i) {
      check(i, "pattern", log.cfails[i].pattern, patterns);
      check(i, "channel", log.cfails[i].channel, scan_.num_channels);
      check(i, "cycle", log.cfails[i].cycle, scan_.chain_length);
    }
  } else {
    for (std::size_t i = 0; i < log.fails.size(); ++i) {
      check(i, "pattern", log.fails[i].pattern, patterns);
      check(i, "output", log.fails[i].output, nl_->num_outputs());
    }
  }
}

std::vector<GateId> Diagnoser::suspect_gates(const FailureLog& log) {
  assert(fsim_ && "bind() a FaultSimulator before diagnosing");
  check_log(log);  // Before anything indexes by a log entry.
  const sim::SimCore& core = fsim_->core();
  const std::size_t num_gates = nl_->num_gates();

  // Failing responses as (observation-point set, pattern). The set is one
  // output in bypass mode and one compactor cell, (channel << 32) | cycle,
  // in compacted mode.
  struct Response {
    std::uint64_t obs;
    std::uint32_t pattern;

    auto operator<=>(const Response&) const = default;
  };
  std::vector<Response> responses;
  if (log.compacted) {
    responses.reserve(log.cfails.size());
    for (const FailureLog::CObs& f : log.cfails) {
      responses.push_back(
          {(static_cast<std::uint64_t>(f.channel) << 32) | f.cycle,
           f.pattern});
    }
  } else {
    responses.reserve(log.fails.size());
    for (const FailureLog::Obs& f : log.fails) {
      responses.push_back({f.output, f.pattern});
    }
  }
  if (responses.empty()) return {};

  // A repeated log entry is one response: keep each first occurrence, in
  // log order, so sub-sampling and counting see the deduplicated log.
  {
    std::vector<std::uint32_t> order(responses.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&responses](std::uint32_t a, std::uint32_t b) {
                       return responses[a] < responses[b];
                     });
    std::vector<std::uint8_t> repeat(responses.size(), 0);
    for (std::size_t i = 1; i < order.size(); ++i) {
      repeat[order[i]] = responses[order[i]] == responses[order[i - 1]];
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!repeat[i]) responses[kept++] = responses[i];
    }
    responses.resize(kept);
  }

  // For very large logs (multi-fault), subsample responses for the
  // structural pass; signature matching still uses the full log.
  constexpr std::size_t kMaxResponses = 384;
  if (responses.size() > kMaxResponses) {
    std::vector<Response> sampled;
    sampled.reserve(kMaxResponses);
    const double stride =
        static_cast<double>(responses.size()) / kMaxResponses;
    for (std::size_t i = 0; i < kMaxResponses; ++i) {
      sampled.push_back(responses[static_cast<std::size_t>(i * stride)]);
    }
    responses = std::move(sampled);
  }
  const auto all = static_cast<std::uint32_t>(responses.size());

  // count_[g] = number of responses g explains: g lies in the fan-in cone
  // of the response's observation points and (TDF) transitions under its
  // pattern. Responses sharing an observation-point set share one cone
  // walk; the walk is the only place gates are visited, so untouched gates
  // keep count 0 and the cost scales with the failing cones, not the
  // design.
  if (mark_.size() != num_gates) {
    mark_.assign(num_gates, 0);
    count_.assign(num_gates, 0);
    epoch_ = 0;
  }
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.obs < b.obs; });
  const auto outs = nl_->outputs();
  std::vector<std::uint32_t> group_outputs;
  std::uint64_t walked = 0;
  touched_.clear();
  for (std::size_t lo = 0, hi; lo < responses.size(); lo = hi) {
    hi = lo;
    while (hi < responses.size() && responses[hi].obs == responses[lo].obs) {
      ++hi;
    }
    const std::uint64_t obs = responses[lo].obs;
    if (log.compacted) {
      group_outputs = scan_.outputs_of(static_cast<std::uint32_t>(obs >> 32),
                                       static_cast<std::uint32_t>(obs));
    } else {
      group_outputs.assign(1, static_cast<std::uint32_t>(obs));
    }

    // Breadth-first walk of the union cone; walk_ doubles as the queue
    // and the visited list.
    if (++epoch_ == 0) {  // Wrapped: restamp so stale marks cannot match.
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    walk_.clear();
    for (std::uint32_t o : group_outputs) {
      if (mark_[outs[o]] != epoch_) {
        mark_[outs[o]] = epoch_;
        walk_.push_back(outs[o]);
      }
    }
    for (std::size_t i = 0; i < walk_.size(); ++i) {
      for (GateId d : nl_->gate(walk_[i]).fanin) {
        if (mark_[d] != epoch_) {
          mark_[d] = epoch_;
          walk_.push_back(d);
        }
      }
    }
    walked += walk_.size();

    for (GateId g : walk_) {
      // Only a transitioning node can launch the fault effect.
      const Word* tr = core.transition(g).data();
      std::uint32_t add = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t p = responses[i].pattern;
        add += (tr[p / kWordBits] >> (p % kWordBits)) & 1;
      }
      if (add == 0) continue;
      if (count_[g] == 0) touched_.push_back(g);
      count_[g] += add;
    }
  }
  static obs::Counter& walked_ctr =
      obs::MetricsRegistry::instance().counter("diag.backtrace_gates");
  walked_ctr.add(walked);

  // Suspects in ascending gate order, as a scan over all gates would give.
  std::sort(touched_.begin(), touched_.end());
  std::vector<GateId> suspects;
  if (!opts_.multifault) {
    // Single defect: a strong candidate explains (nearly) every failing
    // response; near-misses are kept per single_fault_relax.
    const auto floor_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts_.single_fault_relax * all));
    std::uint32_t best = 0;
    for (GateId g : touched_) {
      if (count_[g] >= floor_count) suspects.push_back(g);
      best = std::max(best, count_[g]);
    }
    if (suspects.empty()) {
      // Compaction aliasing can defeat even the relaxed floor; degrade
      // gracefully to the best-explaining gates.
      for (GateId g : touched_) {
        if (count_[g] == best) suspects.push_back(g);
      }
    }
  } else {
    // Multiple defects: any gate explaining at least one response is a
    // suspect; rank by how much of the log it could explain.
    suspects = touched_;
    std::stable_sort(suspects.begin(), suspects.end(),
                     [this](GateId a, GateId b) {
                       return count_[a] > count_[b];
                     });
  }
  for (GateId g : touched_) count_[g] = 0;
  if (suspects.size() > opts_.max_suspects) {
    suspects.resize(opts_.max_suspects);
  }
  return suspects;
}

namespace {

// The faulty machines simulated per candidate site, each with the report
// polarities it scores, in report polarity order. STR and STF activate on
// disjoint patterns, and kSlow on their union with the same late V1 value,
// so on every pattern the kSlow machine equals whichever TDF polarity is
// active there (or the good machine): one kSlow simulation, split by the
// two activation masks, scores both.
constexpr FaultPolarity kScored[] = {FaultPolarity::kSlowToRise,
                                     FaultPolarity::kSlowToFall};
constexpr std::size_t kNumScored = std::size(kScored);

}  // namespace

std::vector<Candidate> Diagnoser::score_candidates(
    const FailureLog& log, const std::vector<GateId>& suspects) {
  const std::size_t W = fsim_->num_words();

  // Observed failure masks. Bypass mode: rows indexed by observation point;
  // compacted mode: rows indexed by compactor cell (channel * cycles + cyc).
  // fail_patterns_ collects the failing patterns (F) for scoring phase 1,
  // pass_patterns_ the rest for phase 2.
  const std::size_t num_rows =
      log.compacted
          ? static_cast<std::size_t>(scan_.num_channels) * scan_.chain_length
          : nl_->num_outputs();
  obs_mask_.assign(num_rows * W, 0);
  fail_patterns_.assign(W, 0);
  obs_total_fails_ = 0;
  auto observe = [&](std::size_t row, std::uint32_t pattern) {
    const Word bit = Word{1} << (pattern % kWordBits);
    Word& w = obs_mask_[row * W + pattern / kWordBits];
    obs_total_fails_ += (w & bit) == 0;  // A repeated entry counts once.
    w |= bit;
    fail_patterns_[pattern / kWordBits] |= bit;
  };
  if (log.compacted) {
    for (const FailureLog::CObs& f : log.cfails) {
      observe(static_cast<std::size_t>(f.channel) * scan_.chain_length +
                  f.cycle,
              f.pattern);
    }
  } else {
    for (const FailureLog::Obs& f : log.fails) observe(f.output, f.pattern);
  }
  // Tail bits need no masking: activation masks never set them.
  pass_patterns_.resize(W);
  for (std::size_t w = 0; w < W; ++w) pass_patterns_[w] = ~fail_patterns_[w];

  // Candidate fault sites: stems of the suspects plus the branches they
  // drive. Deduplicated by construction (each site enumerated once).
  std::vector<netlist::SiteId> cand_sites;
  cand_sites.reserve(suspects.size() * 3);
  for (GateId d : suspects) {
    cand_sites.push_back(sites_->stem_of(d));
    for (GateId g : nl_->gate(d).fanout) {
      const auto& fanin = nl_->gate(g).fanin;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        if (fanin[k] == d) {
          cand_sites.push_back(sites_->branch_of(g, static_cast<int>(k)));
        }
      }
    }
  }
  if (cand_sites.size() > opts_.max_suspects) {
    cand_sites.resize(opts_.max_suspects);
  }
  static obs::Counter& scored_ctr =
      obs::MetricsRegistry::instance().counter("diag.sites_scored");
  static obs::Counter& matched_ctr =
      obs::MetricsRegistry::instance().counter("diag.sites_matched");
  scored_ctr.add(cand_sites.size());

  signatures_.clear();
  std::vector<Candidate> scored;
  scored.reserve(cand_sites.size());

  for (netlist::SiteId site : cand_sites) {
    Candidate best;
    Signature best_sig;
    if (!score_site(log.compacted, num_rows, site, best, best_sig)) continue;
    scored.push_back(best);
    if (opts_.multifault) signatures_.push_back(std::move(best_sig));
  }
  // A site is kept iff one of its polarities matched, i.e. reached phase 2.
  matched_ctr.add(scored.size());
  return scored;
}

bool Diagnoser::score_site(bool compacted, std::size_t num_rows,
                           netlist::SiteId site, Candidate& best,
                           Signature& best_sig) {
  FaultSimulator& sim = *fsim_;
  ScoreScratch& sc = scratch_;
  const std::size_t W = sim.num_words();
  // Sparse compaction scratch: one row per compactor cell, kept all-zero
  // between phases (dirtied rows are wiped after each fold).
  if (compacted && sc.cell_scratch.size() < num_rows * W) {
    sc.cell_scratch.assign(num_rows * W, 0);
  }

  // Simulates the site's kSlow machine with activation restricted to
  // `patterns` and hands each predicted row to visit(row, diff):
  // observation points in bypass mode; compactor cells in compacted mode,
  // folded per phase (the XOR compactor folds pattern by pattern, so
  // folding each phase on its own gives the full fold's bits on that
  // phase's patterns).
  auto run_phase = [&](const std::vector<Word>& patterns, auto&& visit) {
    sim.observed_diff(InjectedFault{site, FaultPolarity::kSlow}, patterns,
                      sc.pred_diff, sc.pred_touched);
    if (!compacted) {
      for (std::size_t i = 0; i < sc.pred_touched.size(); ++i) {
        visit(sc.pred_touched[i], sc.pred_diff.data() + i * W);
      }
      return;
    }
    sc.touched_cells.clear();
    for (std::size_t i = 0; i < sc.pred_touched.size(); ++i) {
      const std::uint32_t o = sc.pred_touched[i];
      const std::size_t cell =
          static_cast<std::size_t>(scan_.channel_of(o)) * scan_.chain_length +
          scan_.position_of(o);
      const Word* p = sc.pred_diff.data() + i * W;
      for (std::size_t w = 0; w < W; ++w) sc.cell_scratch[cell * W + w] ^= p[w];
      sc.touched_cells.push_back(cell);
    }
    std::sort(sc.touched_cells.begin(), sc.touched_cells.end());
    sc.touched_cells.erase(
        std::unique(sc.touched_cells.begin(), sc.touched_cells.end()),
        sc.touched_cells.end());
    for (std::size_t cell : sc.touched_cells) {
      visit(cell, sc.cell_scratch.data() + cell * W);
    }
    for (std::size_t cell : sc.touched_cells) {
      std::fill_n(sc.cell_scratch.begin() + cell * W, W, Word{0});
    }
  };

  sc.pol_masks.resize(kNumScored * W);
  for (std::size_t k = 0; k < kNumScored; ++k) {
    sim.activation_mask(InjectedFault{site, kScored[k]},
                        std::span<Word>(sc.pol_masks.data() + k * W, W));
  }
  std::size_t matched[kNumScored] = {};
  std::size_t mispred[kNumScored] = {};
  Signature sigs[kNumScored];
  // Splits a predicted row by polarity. Observed fails sit on F only, so
  // phase 2 rows add to mispred alone.
  auto tally = [&](std::size_t row, const Word* p) {
    const Word* ob = obs_mask_.data() + row * W;
    for (std::size_t k = 0; k < kNumScored; ++k) {
      const Word* act = sc.pol_masks.data() + k * W;
      for (std::size_t w = 0; w < W; ++w) {
        Word d = p[w] & act[w];
        matched[k] += static_cast<std::size_t>(std::popcount(d & ob[w]));
        mispred[k] += static_cast<std::size_t>(std::popcount(d & ~ob[w]));
        if (!opts_.multifault) continue;
        while (d) {
          const int bit = std::countr_zero(d);
          d &= d - 1;
          sigs[k].keys.push_back((static_cast<std::uint64_t>(row) << 32) |
                                 (w * kWordBits + bit));
        }
      }
    }
  };
  // Phase 1 (failing patterns) fixes every polarity's matched count; a site
  // none of whose polarities matched is done.
  run_phase(fail_patterns_, tally);
  if (*std::max_element(matched, matched + kNumScored) == 0) return false;
  // Phase 2 (passing patterns): every predicted bit is a misprediction.
  run_phase(pass_patterns_, tally);
  for (std::size_t k = 0; k < kNumScored; ++k) {
    if (matched[k] == 0) continue;
    const std::size_t missed = obs_total_fails_ - matched[k];
    const double denom = static_cast<double>(matched[k] + mispred[k] + missed);
    const double score =
        denom > 0 ? static_cast<double>(matched[k]) / denom : 0;
    if (score > best.score) {
      best.site = site;
      best.polarity = kScored[k];
      best.score = score;
      best.matched = static_cast<std::uint32_t>(matched[k]);
      best.mispredicted = static_cast<std::uint32_t>(mispred[k]);
      best.missed = static_cast<std::uint32_t>(missed);
      best_sig = std::move(sigs[k]);
    }
  }
  if (best.site == netlist::kNoSite) return false;
  best.tier = sites_->tier_of(best.site, *nl_);
  best.is_miv = sites_->is_miv_site(best.site, *nl_);
  if (opts_.multifault) {
    std::sort(best_sig.keys.begin(), best_sig.keys.end());
  }
  return true;
}

DiagnosisReport Diagnoser::assemble_single(std::vector<Candidate> scored) {
  DiagnosisReport report;
  if (scored.empty()) return report;
  // Candidate selection is by Jaccard score (the strongest evidence), but
  // the *ranking* follows what effect-cause tools actually emit: primary
  // key = number of observed failures explained. Candidates that explain
  // every failure form one large tie group in which the ground truth sits
  // at an arbitrary position — the FHI head-room that report reordering
  // (baseline [11] or the GNN policy) then exploits.
  std::sort(scored.begin(), scored.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.mispredicted != b.mispredicted) {
                return a.mispredicted < b.mispredicted;
              }
              return a.site < b.site;
            });
  const double best = scored.front().score;
  const double cutoff = std::max(opts_.min_score, opts_.keep_score_ratio * best);
  for (const Candidate& c : scored) {
    if (c.score < cutoff) break;
    report.candidates.push_back(c);
    if (report.candidates.size() >= opts_.max_candidates) break;
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.matched != b.matched) return a.matched > b.matched;
              return a.site < b.site;
            });
  return report;
}

DiagnosisReport Diagnoser::assemble_multifault(
    std::vector<Candidate> scored) {
  DiagnosisReport report;
  if (scored.empty()) return report;
  assert(signatures_.size() == scored.size());

  // Greedy cover: repeatedly pick the candidate explaining the most of the
  // residual failure set with high precision.
  std::vector<std::uint64_t> residual;
  {
    // Residual = every observed key of obs_mask_ (filled by
    // score_candidates), in the encoding of Signature::keys.
    const std::size_t W = fsim_->num_words();
    const std::size_t rows = obs_mask_.size() / std::max<std::size_t>(1, W);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t w = 0; w < W; ++w) {
        Word m = obs_mask_[r * W + w];
        while (m) {
          const int bit = std::countr_zero(m);
          m &= m - 1;
          residual.push_back((static_cast<std::uint64_t>(r) << 32) |
                             (w * kWordBits + bit));
        }
      }
    }
    std::sort(residual.begin(), residual.end());
  }

  std::vector<std::uint8_t> picked(scored.size(), 0);
  std::vector<std::size_t> pick_order;
  std::vector<std::uint64_t> inter;
  for (int round = 0; round < 8 && !residual.empty(); ++round) {
    std::size_t best_idx = scored.size();
    std::size_t best_cover = 0;
    double best_prec = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (picked[i]) continue;
      const auto& keys = signatures_[i].keys;
      if (keys.empty()) continue;
      inter.clear();
      std::set_intersection(keys.begin(), keys.end(), residual.begin(),
                            residual.end(), std::back_inserter(inter));
      const double prec =
          static_cast<double>(inter.size()) / static_cast<double>(keys.size());
      if (inter.size() > best_cover ||
          (inter.size() == best_cover && prec > best_prec)) {
        best_idx = i;
        best_cover = inter.size();
        best_prec = prec;
      }
    }
    if (best_idx == scored.size() || best_cover == 0) break;
    picked[best_idx] = 1;
    pick_order.push_back(best_idx);
    std::vector<std::uint64_t> next;
    std::set_difference(residual.begin(), residual.end(),
                        signatures_[best_idx].keys.begin(),
                        signatures_[best_idx].keys.end(),
                        std::back_inserter(next));
    residual = std::move(next);
  }

  // Report: greedy picks plus the precise remainder, ranked like the
  // single-fault reports — by observed failures explained — so the truth
  // sits inside its tie group rather than being hand-delivered at rank 1
  // (commercial tools do not know which candidates the greedy cover chose).
  for (std::size_t i : pick_order) report.candidates.push_back(scored[i]);
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (!picked[i]) rest.push_back(i);
  }
  auto precision = [&](std::size_t i) {
    const auto& c = scored[i];
    const double denom = static_cast<double>(c.matched + c.mispredicted);
    return denom > 0 ? c.matched / denom : 0.0;
  };
  std::stable_sort(rest.begin(), rest.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double pa = precision(a) * scored[a].matched;
                     const double pb = precision(b) * scored[b].matched;
                     if (pa != pb) return pa > pb;
                     return scored[a].site < scored[b].site;
                   });
  const std::size_t cap = opts_.max_candidates;
  for (std::size_t i : rest) {
    if (report.candidates.size() >= cap) break;
    if (precision(i) < 0.9) continue;  // Imprecise candidates are noise.
    report.candidates.push_back(scored[i]);
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.matched != b.matched) return a.matched > b.matched;
              return a.site < b.site;
            });
  return report;
}

DiagnosisReport Diagnoser::diagnose(const FailureLog& log) {
  assert(fsim_ && "bind() a FaultSimulator before diagnosing");
  using clock = std::chrono::steady_clock;
  auto& reg = obs::MetricsRegistry::instance();
  static obs::LatencyHistogram& bt_hist = reg.histogram("diag.backtrace");
  static obs::LatencyHistogram& score_hist = reg.histogram("diag.score");
  static obs::LatencyHistogram& rank_hist = reg.histogram("diag.rank");
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };

  const auto start = clock::now();
  DiagnosisReport report;
  if (!log.empty()) {
    std::vector<GateId> suspects;
    {
      M3DFL_OBS_SPAN(span, "diag.backtrace");
      const auto t0 = clock::now();
      suspects = suspect_gates(log);
      bt_hist.record(seconds_since(t0));
    }
    std::vector<Candidate> scored;
    {
      M3DFL_OBS_SPAN(span, "diag.score");
      const auto t0 = clock::now();
      scored = score_candidates(log, suspects);
      score_hist.record(seconds_since(t0));
    }
    {
      M3DFL_OBS_SPAN(span, "diag.rank");
      const auto t0 = clock::now();
      report = opts_.multifault ? assemble_multifault(std::move(scored))
                                : assemble_single(std::move(scored));
      rank_hist.record(seconds_since(t0));
    }
  }
  report.seconds = std::chrono::duration<double>(clock::now() - start).count();
  return report;
}

}  // namespace m3dfl::diag
