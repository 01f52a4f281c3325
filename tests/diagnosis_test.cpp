// Tests of the effect-cause diagnosis engine (the commercial-tool stand-in)
// and the PADRE-style baseline [11].

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/compactor.h"
#include "diagnosis/baseline.h"
#include "diagnosis/diagnoser.h"
#include "netlist/generators.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace m3dfl::diag {
namespace {

using netlist::GateId;
using netlist::GeneratorParams;
using netlist::SiteId;
using sim::FaultPolarity;
using sim::InjectedFault;

struct Fixture {
  netlist::Netlist nl;
  netlist::SiteTable sites;
  ScanConfig scan;
  sim::FaultSimulator fsim;
  sim::PatternSet v1, v2;
  sim::TwoVectorResult good;  ///< Netlist-major good machine, for references.

  explicit Fixture(std::uint64_t seed, std::size_t patterns = 128)
      : nl(make(seed)), sites(nl),
        scan(ScanConfig::make(static_cast<std::uint32_t>(nl.num_outputs()),
                              8, 4)),
        fsim(nl, sites) {
    Rng rng(seed + 1);
    v1 = sim::PatternSet::random(nl.num_inputs(), patterns, rng);
    v2 = sim::PatternSet::random(nl.num_inputs(), patterns, rng);
    fsim.bind(v1, v2);
    good = sim::simulate_two_vector(nl, v1, v2);
  }

  static netlist::Netlist make(std::uint64_t seed) {
    GeneratorParams p;
    p.num_logic_gates = 300;
    p.num_scan_cells = 24;
    p.num_levels = 8;
    p.seed = seed;
    return netlist::generate_netlist(p);
  }

  Diagnoser make_diagnoser(DiagnoserOptions opts = {}) {
    Diagnoser d(nl, sites, scan, opts);
    d.bind(fsim);
    return d;
  }

  /// Injects a fault and returns its failure log (empty if undetected).
  sim::FailureLog inject(const InjectedFault& f, bool compacted = false) {
    std::vector<sim::Word> diff;
    if (!fsim.observed_diff(f, diff)) return {};
    if (compacted) {
      return compress::ResponseCompactor(scan).failure_log_from_diff(
          diff, fsim.num_words(), fsim.num_patterns());
    }
    return sim::failure_log_from_diff(diff, nl.num_outputs(),
                                      fsim.num_patterns());
  }
};

class DiagnoserProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagnoserProperty, InjectedFaultAlwaysTopScores) {
  Fixture fx(GetParam());
  Diagnoser diag = fx.make_diagnoser();
  Rng rng(GetParam() + 5);
  int tested = 0;
  for (int trial = 0; trial < 40 && tested < 15; ++trial) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                           : FaultPolarity::kSlowToFall};
    const sim::FailureLog log = fx.inject(f);
    if (log.empty()) continue;
    ++tested;
    const DiagnosisReport report = diag.diagnose(log);
    ASSERT_FALSE(report.candidates.empty());
    // Exact re-simulation: the injected site reproduces its own signature,
    // so the report contains a perfect-score candidate.
    double best = 0.0;
    for (const Candidate& c : report.candidates) {
      best = std::max(best, c.score);
    }
    EXPECT_DOUBLE_EQ(best, 1.0);
    // The injected site appears unless crowded out by a larger-than-cap
    // equivalence class (rare at this size).
    EXPECT_TRUE(report.hits_any({&f.site, 1}))
        << "site " << f.site << " missing from report";
  }
  EXPECT_GE(tested, 10);
}

TEST_P(DiagnoserProperty, CompactedDiagnosisStillFindsTruth) {
  Fixture fx(GetParam() + 31);
  Diagnoser diag = fx.make_diagnoser();
  Rng rng(GetParam() + 6);
  int tested = 0, hits = 0;
  std::size_t res_sum_c = 0, res_sum_u = 0;
  for (int trial = 0; trial < 40 && tested < 12; ++trial) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    const sim::FailureLog full = fx.inject(f, false);
    const sim::FailureLog comp = fx.inject(f, true);
    if (full.empty() || comp.empty()) continue;
    ++tested;
    const DiagnosisReport ru = diag.diagnose(full);
    const DiagnosisReport rc = diag.diagnose(comp);
    hits += rc.hits_any({&f.site, 1});
    res_sum_u += ru.resolution();
    res_sum_c += rc.resolution();
  }
  EXPECT_GE(tested, 8);
  EXPECT_GE(hits, tested - 2);  // Aliasing may rarely lose the truth.
  // Compaction increases ambiguity: resolution should not be meaningfully
  // better overall (candidate caps allow tiny fluctuations).
  EXPECT_GE(res_sum_c + 3, res_sum_u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnoserProperty,
                         ::testing::Values(201, 202, 203));

TEST(Diagnoser, EmptyLogGivesEmptyReport) {
  Fixture fx(77);
  Diagnoser diag = fx.make_diagnoser();
  const DiagnosisReport r = diag.diagnose(sim::FailureLog{});
  EXPECT_TRUE(r.candidates.empty());
}

TEST(Diagnoser, RespectsMaxCandidates) {
  Fixture fx(78);
  DiagnoserOptions opts;
  opts.max_candidates = 5;
  Diagnoser diag = fx.make_diagnoser(opts);
  Rng rng(79);
  for (int trial = 0; trial < 10; ++trial) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    const auto log = fx.inject(f);
    if (log.empty()) continue;
    EXPECT_LE(diag.diagnose(log).resolution(), 5u);
  }
}

TEST(Diagnoser, RankedByExplainedFailuresDescending) {
  Fixture fx(80);
  Diagnoser diag = fx.make_diagnoser();
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    const auto log = fx.inject(f);
    if (log.empty()) continue;
    const DiagnosisReport r = diag.diagnose(log);
    for (std::size_t i = 1; i < r.candidates.size(); ++i) {
      EXPECT_GE(r.candidates[i - 1].matched, r.candidates[i].matched);
    }
  }
}

TEST(Diagnoser, MultiFaultModeFindsAllInjected) {
  Fixture fx(82);
  DiagnoserOptions opts;
  opts.multifault = true;
  opts.max_candidates = 64;
  Diagnoser diag = fx.make_diagnoser(opts);
  Rng rng(83);
  int tested = 0, all_found = 0;
  for (int trial = 0; trial < 30 && tested < 10; ++trial) {
    // Two faults with disjoint-ish sites.
    const InjectedFault faults[2] = {
        {static_cast<SiteId>(rng.next_below(fx.sites.size())),
         FaultPolarity::kSlow},
        {static_cast<SiteId>(rng.next_below(fx.sites.size())),
         FaultPolarity::kSlow}};
    if (faults[0].site == faults[1].site) continue;
    std::vector<sim::Word> diff;
    if (!fx.fsim.observed_diff(faults, diff)) continue;
    const auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                fx.fsim.num_patterns());
    if (log.empty()) continue;
    ++tested;
    const DiagnosisReport r = diag.diagnose(log);
    const SiteId truth[2] = {faults[0].site, faults[1].site};
    all_found += r.hits_all(truth);
  }
  EXPECT_GE(tested, 6);
  EXPECT_GE(all_found, tested / 2) << "multi-fault accuracy collapsed";
}

// Field-exact report equality.
void expect_reports_identical(const DiagnosisReport& a,
                              const DiagnosisReport& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const Candidate& x = a.candidates[i];
    const Candidate& y = b.candidates[i];
    EXPECT_EQ(x.site, y.site) << "rank " << i;
    EXPECT_EQ(x.polarity, y.polarity) << "rank " << i;
    EXPECT_EQ(x.tier, y.tier) << "rank " << i;
    EXPECT_EQ(x.is_miv, y.is_miv) << "rank " << i;
    EXPECT_EQ(x.score, y.score) << "rank " << i;
    EXPECT_EQ(x.matched, y.matched) << "rank " << i;
    EXPECT_EQ(x.mispredicted, y.mispredicted) << "rank " << i;
    EXPECT_EQ(x.missed, y.missed) << "rank " << i;
  }
}

// Brute-force back-trace reference: a dense fan-in-cone bitset per
// observation point, and every gate tested against every distinct
// (sub-sampled) failing response. The engine walks only the failing cones;
// the two must pick the same suspects in the same order, which makes the
// scored candidates — and so the reports — identical.
std::vector<GateId> reference_suspects(const Fixture& fx,
                                       const DiagnoserOptions& opts,
                                       const sim::FailureLog& log) {
  const netlist::Netlist& nl = fx.nl;
  const std::size_t n = nl.num_gates();
  const std::size_t words = (n + sim::kWordBits - 1) / sim::kWordBits;
  const auto outs = nl.outputs();
  std::vector<sim::Word> cone(outs.size() * words, 0);
  auto in_cone = [&](GateId g, std::uint32_t o) {
    return (cone[o * words + g / sim::kWordBits] >> (g % sim::kWordBits)) & 1;
  };
  for (std::size_t o = 0; o < outs.size(); ++o) {
    sim::Word* bits = cone.data() + o * words;
    std::vector<GateId> stack = {outs[o]};
    bits[outs[o] / sim::kWordBits] |= sim::Word{1} << (outs[o] % sim::kWordBits);
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      for (GateId d : nl.gate(g).fanin) {
        sim::Word& w = bits[d / sim::kWordBits];
        const sim::Word m = sim::Word{1} << (d % sim::kWordBits);
        if (!(w & m)) {
          w |= m;
          stack.push_back(d);
        }
      }
    }
  }

  struct Response {
    std::uint32_t pattern;
    std::vector<std::uint32_t> outputs;
  };
  // Each distinct log entry is one response, at its first position.
  std::vector<Response> responses;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  if (log.compacted) {
    for (const auto& f : log.cfails) {
      if (!seen.insert({f.pattern, f.channel, f.cycle}).second) continue;
      responses.push_back({f.pattern, fx.scan.outputs_of(f.channel, f.cycle)});
    }
  } else {
    for (const auto& f : log.fails) {
      if (!seen.insert({f.pattern, f.output, 0}).second) continue;
      responses.push_back({f.pattern, {f.output}});
    }
  }
  constexpr std::size_t kMaxResponses = 384;
  if (responses.size() > kMaxResponses) {
    std::vector<Response> sampled;
    const double stride = static_cast<double>(responses.size()) / kMaxResponses;
    for (std::size_t i = 0; i < kMaxResponses; ++i) {
      sampled.push_back(responses[static_cast<std::size_t>(i * stride)]);
    }
    responses = std::move(sampled);
  }

  std::vector<std::uint32_t> count(n, 0);
  for (const Response& r : responses) {
    for (GateId g = 0; g < n; ++g) {
      if (!((fx.good.tr_word(g, r.pattern / sim::kWordBits) >>
             (r.pattern % sim::kWordBits)) & 1)) {
        continue;
      }
      for (std::uint32_t o : r.outputs) {
        if (in_cone(g, o)) {
          ++count[g];
          break;
        }
      }
    }
  }

  std::vector<GateId> suspects;
  const auto all = static_cast<std::uint32_t>(responses.size());
  if (!opts.multifault) {
    const auto floor_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts.single_fault_relax * all));
    for (GateId g = 0; g < n; ++g) {
      if (count[g] >= floor_count) suspects.push_back(g);
    }
    if (suspects.empty()) {
      const std::uint32_t best = *std::max_element(count.begin(), count.end());
      for (GateId g = 0; g < n && best > 0; ++g) {
        if (count[g] == best) suspects.push_back(g);
      }
    }
  } else {
    for (GateId g = 0; g < n; ++g) {
      if (count[g] > 0) suspects.push_back(g);
    }
    std::stable_sort(suspects.begin(), suspects.end(),
                     [&count](GateId a, GateId b) {
                       return count[a] > count[b];
                     });
  }
  if (suspects.size() > opts.max_suspects) suspects.resize(opts.max_suspects);
  return suspects;
}

TEST(Diagnoser, ConeWalkMatchesDenseConeReference) {
  Fixture fx(97, /*patterns=*/512);
  Rng rng(98);
  std::vector<sim::FailureLog> logs;
  // Single-fault logs, bypass and compacted.
  while (logs.size() < 12) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    for (bool compacted : {false, true}) {
      sim::FailureLog log = fx.inject(f, compacted);
      if (!log.empty()) logs.push_back(std::move(log));
    }
  }
  // Multi-fault logs, bypass and compacted; the twelve-fault ones pass the
  // 384-response sub-sampling threshold.
  std::size_t largest = 0;
  for (std::size_t k : {2, 3, 12, 12}) {
    std::vector<InjectedFault> faults;
    for (std::size_t i = 0; i < k; ++i) {
      faults.push_back({static_cast<SiteId>(rng.next_below(fx.sites.size())),
                        FaultPolarity::kSlow});
    }
    std::vector<sim::Word> diff;
    if (!fx.fsim.observed_diff(faults, diff)) continue;
    logs.push_back(sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                              fx.fsim.num_patterns()));
    largest = std::max(largest, logs.back().size());
    logs.push_back(compress::ResponseCompactor(fx.scan).failure_log_from_diff(
        diff, fx.fsim.num_words(), fx.fsim.num_patterns()));
  }
  ASSERT_GT(largest, 384u) << "no log exercises response sub-sampling";
  // Repeated entries: a tester datalog may list one miscompare twice.
  for (std::size_t i = 0; i < 2; ++i) {
    sim::FailureLog rep = logs[i];
    if (rep.compacted) {
      rep.cfails.push_back(rep.cfails.front());
    } else {
      rep.fails.insert(rep.fails.begin(), rep.fails.begin(),
                       rep.fails.end());
    }
    logs.push_back(std::move(rep));
  }

  for (bool multifault : {false, true}) {
    DiagnoserOptions opts;
    opts.multifault = multifault;
    Diagnoser diag = fx.make_diagnoser(opts);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      EXPECT_EQ(diag.suspect_gates(logs[i]),
                reference_suspects(fx, opts, logs[i]))
          << "log " << i << " multifault=" << multifault;
    }
  }
}

TEST(Diagnoser, OutOfRangeLogEntriesAreRejected) {
  Fixture fx(99);
  Diagnoser diag = fx.make_diagnoser();
  const auto patterns = static_cast<std::uint32_t>(fx.fsim.num_patterns());
  const auto outputs = static_cast<std::uint32_t>(fx.nl.num_outputs());
  auto bypass = [](std::uint32_t pattern, std::uint32_t output) {
    sim::FailureLog log;
    log.fails = {{0, 0}, {pattern, output}};
    return log;
  };
  auto compacted = [](std::uint32_t pattern, std::uint32_t channel,
                      std::uint32_t cycle) {
    sim::FailureLog log;
    log.compacted = true;
    log.cfails = {{0, 0, 0}, {pattern, channel, cycle}};
    return log;
  };
  const std::pair<sim::FailureLog, const char*> bad[] = {
      {bypass(0, outputs), "output"},
      {bypass(0, 99999999), "output"},
      {bypass(patterns, 0), "pattern"},
      {compacted(patterns, 0, 0), "pattern"},
      {compacted(0, fx.scan.num_channels, 0), "channel"},
      {compacted(0, 0, fx.scan.chain_length), "cycle"},
  };
  for (const auto& [log, field] : bad) {
    try {
      diag.diagnose(log);
      ADD_FAILURE() << "accepted a log with an out-of-range " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("entry 1"), std::string::npos)
          << e.what();
    }
  }
  // The last in-range values are accepted, and a rejection leaves the
  // engine usable.
  EXPECT_NO_THROW(diag.diagnose(bypass(patterns - 1, outputs - 1)));
  EXPECT_NO_THROW(diag.diagnose(compacted(patterns - 1,
                                          fx.scan.num_channels - 1,
                                          fx.scan.chain_length - 1)));
}

// Full-simulation scoring reference: every (site, polarity) of the scored
// sites is fault-simulated on all patterns with the public observed_diff(),
// folded through the XOR compactor for compacted logs, and scored by Jaccard
// against the deduplicated observed (row, pattern) set. The engine's
// two-phase kSlow scoring must reproduce it exactly.
std::vector<Candidate> reference_scores(Fixture& fx, Diagnoser& diag,
                                        const DiagnoserOptions& opts,
                                        const sim::FailureLog& log) {
  using Key = std::pair<std::uint32_t, std::uint32_t>;  // (row, pattern)
  std::set<Key> observed;
  if (log.compacted) {
    for (const auto& f : log.cfails) {
      observed.insert({f.channel * fx.scan.chain_length + f.cycle, f.pattern});
    }
  } else {
    for (const auto& f : log.fails) observed.insert({f.output, f.pattern});
  }

  std::vector<SiteId> sites;
  for (GateId d : diag.suspect_gates(log)) {
    sites.push_back(fx.sites.stem_of(d));
    for (GateId g : fx.nl.gate(d).fanout) {
      const auto& fanin = fx.nl.gate(g).fanin;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        if (fanin[k] == d) {
          sites.push_back(fx.sites.branch_of(g, static_cast<int>(k)));
        }
      }
    }
  }
  if (sites.size() > opts.max_suspects) sites.resize(opts.max_suspects);

  const FaultPolarity polarities[] = {FaultPolarity::kSlowToRise,
                                      FaultPolarity::kSlowToFall};
  const std::size_t W = fx.fsim.num_words();
  std::vector<Candidate> scored;
  std::vector<sim::Word> diff;
  for (SiteId site : sites) {
    Candidate best;
    for (FaultPolarity pol : polarities) {
      fx.fsim.observed_diff(InjectedFault{site, pol}, diff);
      std::set<Key> predicted;
      for (std::uint32_t o = 0; o < fx.nl.num_outputs(); ++o) {
        for (std::uint32_t p = 0; p < fx.fsim.num_patterns(); ++p) {
          if (!((diff[o * W + p / sim::kWordBits] >> (p % sim::kWordBits)) &
                1)) {
            continue;
          }
          if (!log.compacted) {
            predicted.insert({o, p});
            continue;
          }
          const Key cell{fx.scan.channel_of(o) * fx.scan.chain_length +
                             fx.scan.position_of(o),
                         p};
          if (!predicted.insert(cell).second) predicted.erase(cell);  // XOR
        }
      }
      std::size_t matched = 0;
      for (const Key& k : predicted) matched += observed.count(k);
      if (matched == 0) continue;
      const std::size_t mispred = predicted.size() - matched;
      const std::size_t missed = observed.size() - matched;
      const double score = static_cast<double>(matched) /
                           static_cast<double>(matched + mispred + missed);
      if (score > best.score) {
        best.site = site;
        best.polarity = pol;
        best.score = score;
        best.matched = static_cast<std::uint32_t>(matched);
        best.mispredicted = static_cast<std::uint32_t>(mispred);
        best.missed = static_cast<std::uint32_t>(missed);
      }
    }
    if (best.site == netlist::kNoSite) continue;
    best.tier = fx.sites.tier_of(site, fx.nl);
    best.is_miv = fx.sites.is_miv_site(site, fx.nl);
    scored.push_back(best);
  }
  // The single-fault report order with no candidate cut.
  std::sort(scored.begin(), scored.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.matched != b.matched) return a.matched > b.matched;
              return a.site < b.site;
            });
  return scored;
}

TEST(Diagnoser, TwoPhaseScoringMatchesFullSimulationReference) {
  Fixture fx(103, /*patterns=*/200);  // A partial tail word.
  Rng rng(104);
  std::vector<sim::FailureLog> logs;
  const FaultPolarity kinds[] = {FaultPolarity::kSlowToRise,
                                 FaultPolarity::kSlowToFall,
                                 FaultPolarity::kStuckAt0,
                                 FaultPolarity::kStuckAt1};
  for (std::size_t i = 0; logs.size() < 16; ++i) {
    const InjectedFault f{static_cast<SiteId>(rng.next_below(fx.sites.size())),
                          kinds[i % 4]};
    for (bool compacted : {false, true}) {
      sim::FailureLog log = fx.inject(f, compacted);
      if (!log.empty()) logs.push_back(std::move(log));
    }
  }
  // Twelve-fault logs pass the 384-response sub-sampling threshold.
  std::size_t largest = 0;
  for (int trial = 0; trial < 20 && largest <= 384; ++trial) {
    std::vector<InjectedFault> faults;
    for (std::size_t i = 0; i < 12; ++i) {
      faults.push_back({static_cast<SiteId>(rng.next_below(fx.sites.size())),
                        FaultPolarity::kSlow});
    }
    std::vector<sim::Word> diff;
    if (!fx.fsim.observed_diff(faults, diff)) continue;
    logs.push_back(sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                              fx.fsim.num_patterns()));
    largest = std::max(largest, logs.back().size());
    logs.push_back(compress::ResponseCompactor(fx.scan).failure_log_from_diff(
        diff, fx.fsim.num_words(), fx.fsim.num_patterns()));
  }
  ASSERT_GT(largest, 384u) << "no log exercises response sub-sampling";
  // Repeated entries, which the reference counts once.
  for (std::size_t i = 0; i < 2; ++i) {
    sim::FailureLog rep = logs[i];
    if (rep.compacted) {
      rep.cfails.push_back(rep.cfails.back());
    } else {
      rep.fails.push_back(rep.fails.back());
    }
    logs.push_back(std::move(rep));
  }

  std::size_t compared = 0;
  DiagnoserOptions opts;
  opts.keep_score_ratio = 0;
  opts.min_score = 0;
  opts.max_candidates = 1u << 30;  // The report is every scored site.
  Diagnoser diag = fx.make_diagnoser(opts);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    SCOPED_TRACE("log " + std::to_string(i));
    DiagnosisReport want;
    want.candidates = reference_scores(fx, diag, opts, logs[i]);
    compared += want.candidates.size();
    expect_reports_identical(diag.diagnose(logs[i]), want);
  }
  EXPECT_GT(compared, 200u);
}

TEST(Diagnoser, RepeatedLogEntryLeavesReportUnchanged) {
  Fixture fx(105);
  Rng rng(106);
  // Single- and multi-fault logs, bypass and compacted.
  std::vector<sim::FailureLog> logs;
  for (int trial = 0; trial < 40 && logs.size() < 12; ++trial) {
    const InjectedFault f{static_cast<SiteId>(rng.next_below(fx.sites.size())),
                          FaultPolarity::kSlow};
    for (bool compacted : {false, true}) {
      sim::FailureLog log = fx.inject(f, compacted);
      if (!log.empty()) logs.push_back(std::move(log));
    }
  }
  ASSERT_GE(logs.size(), 8u);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<InjectedFault> faults;
    for (int i = 0; i < 3; ++i) {
      faults.push_back({static_cast<SiteId>(rng.next_below(fx.sites.size())),
                        FaultPolarity::kSlow});
    }
    std::vector<sim::Word> diff;
    if (!fx.fsim.observed_diff(faults, diff)) continue;
    logs.push_back(sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                              fx.fsim.num_patterns()));
    logs.push_back(compress::ResponseCompactor(fx.scan).failure_log_from_diff(
        diff, fx.fsim.num_words(), fx.fsim.num_patterns()));
  }

  // The default relaxed floor, the strict intersection, and the
  // multi-fault engine (whose suspects are ranked by response count).
  DiagnoserOptions strict;
  strict.single_fault_relax = 1.0;
  DiagnoserOptions multi;
  multi.multifault = true;
  for (const DiagnoserOptions& opts : {DiagnoserOptions{}, strict, multi}) {
    Diagnoser diag = fx.make_diagnoser(opts);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      SCOPED_TRACE("log " + std::to_string(i) +
                   " multifault=" + std::to_string(opts.multifault) +
                   " relax=" + std::to_string(opts.single_fault_relax));
      const sim::FailureLog& log = logs[i];
      sim::FailureLog rep = log;
      if (log.compacted) {
        rep.cfails.push_back(rep.cfails.front());
      } else {
        rep.fails.push_back(rep.fails.front());
      }
      ASSERT_EQ(diag.suspect_gates(rep), diag.suspect_gates(log));
      expect_reports_identical(diag.diagnose(rep), diag.diagnose(log));
    }
  }
}

// --- Report metrics -----------------------------------------------------------

TEST(Report, FirstHitIndexAndSingleTier) {
  DiagnosisReport r;
  Candidate a;
  a.site = 5;
  a.tier = netlist::Tier::kTop;
  Candidate b;
  b.site = 9;
  b.tier = netlist::Tier::kTop;
  Candidate m;
  m.site = 7;
  m.tier = netlist::Tier::kBottom;
  m.is_miv = true;
  r.candidates = {a, m, b};
  const SiteId truth[] = {9};
  EXPECT_EQ(r.first_hit_index(truth), 3u);
  EXPECT_TRUE(r.hits_any(truth));
  EXPECT_FALSE(r.hits_all(std::vector<SiteId>{9, 11}));
  netlist::Tier t;
  EXPECT_TRUE(r.single_tier(&t));  // MIV candidates are tier-exempt.
  EXPECT_EQ(t, netlist::Tier::kTop);
  r.candidates[0].tier = netlist::Tier::kBottom;
  EXPECT_FALSE(r.single_tier());
}

// --- Baseline [11] ---------------------------------------------------------------

TEST(Baseline, TrainedFilterKeepsTruthAndPrunes) {
  Fixture fx(90);
  Diagnoser diag = fx.make_diagnoser();
  Rng rng(91);

  // Collect labeled training reports.
  std::vector<DiagnosisReport> reports;
  std::vector<std::vector<SiteId>> truths;
  while (reports.size() < 40) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    const auto log = fx.inject(f);
    if (log.empty()) continue;
    reports.push_back(diag.diagnose(log));
    truths.push_back({f.site});
  }
  std::vector<BaselineTrainingSample> train;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    train.push_back({&reports[i], truths[i]});
  }
  const BaselineModel model = train_baseline(train, fx.nl, fx.sites);

  // Apply on fresh reports: resolution must not grow; accuracy loss small.
  std::size_t kept_hits = 0, total = 0;
  std::size_t res_before = 0, res_after = 0;
  while (total < 25) {
    const InjectedFault f{
        static_cast<SiteId>(rng.next_below(fx.sites.size())),
        FaultPolarity::kSlow};
    const auto log = fx.inject(f);
    if (log.empty()) continue;
    const DiagnosisReport before = diag.diagnose(log);
    if (!before.hits_any({&f.site, 1})) continue;
    ++total;
    const DiagnosisReport after =
        apply_baseline(before, model, fx.nl, fx.sites);
    EXPECT_LE(after.resolution(), before.resolution());
    EXPECT_GE(after.resolution(), 1u);
    res_before += before.resolution();
    res_after += after.resolution();
    kept_hits += after.hits_any({&f.site, 1});
  }
  EXPECT_GE(kept_hits, total - 2) << "baseline lost too much accuracy";
  EXPECT_LT(res_after, res_before) << "baseline never pruned anything";
}

TEST(Baseline, FeatureVectorShape) {
  Candidate c;
  c.site = 0;
  c.score = 0.8;
  c.matched = 8;
  c.mispredicted = 2;
  c.missed = 2;
  Fixture fx(92);
  const BaselineFeatures f = baseline_features(c, 1, 10, fx.nl, fx.sites);
  EXPECT_DOUBLE_EQ(f.x[0], 0.8);
  EXPECT_NEAR(f.x[1], 0.8, 1e-9);
  EXPECT_NEAR(f.x[2], 0.2, 1e-9);
  for (int i = 0; i < BaselineFeatures::kNum; ++i) {
    EXPECT_GE(f.x[i], 0.0);
    EXPECT_LE(f.x[i], 1.0);
    EXPECT_NE(BaselineFeatures::name(i), std::string("?"));
  }
}

}  // namespace
}  // namespace m3dfl::diag
