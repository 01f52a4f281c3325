// Pool stage: the chips under diagnosis. Builds the Syn-2 design, generates
// the workload's fixed pool of distinct failure logs and writes it to a file
// the serving stage reads, so that neither the generation time nor its
// memory lands in the serving process. Also scores the onboarded
// Tier-predictor on the pool's sub-graphs (held-out Syn-2 samples).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common.h"
#include "eval/framework_io.h"
#include "serve/service.h"
#include "stages.h"

namespace e2e {

namespace m = m3dfl;

namespace {

constexpr const char* kPoolHeader = "e2ebench-pool v1";

bool write_pool(const std::string& path, const std::vector<PoolLog>& pool) {
  std::ostringstream os;
  os << kPoolHeader << ' ' << pool.size() << '\n';
  for (const PoolLog& p : pool) {
    os << "log " << p.truth.size();
    for (m::netlist::SiteId t : p.truth) os << ' ' << t;
    std::string text = m::sim::to_text(p.log);
    if (!text.empty() && text.back() != '\n') text += '\n';
    os << '\n' << text << "end\n";
  }
  return write_file(path, os.str());
}

}  // namespace

bool read_pool(const std::string& path, std::vector<PoolLog>& out,
               std::string& error) {
  std::ifstream is(path);
  std::string line;
  const std::string header = std::string(kPoolHeader) + ' ';
  if (!std::getline(is, line) || line.rfind(header, 0) != 0) {
    error = "missing or bad pool header in " + path;
    return false;
  }
  const std::size_t count =
      std::strtoull(line.c_str() + header.size(), nullptr, 10);
  out.clear();
  while (std::getline(is, line)) {
    std::istringstream head(line);
    std::string tag;
    std::size_t n = 0;
    if (!(head >> tag >> n) || tag != "log") {
      error = "bad pool entry: " + line;
      return false;
    }
    PoolLog p;
    p.truth.resize(n);
    for (m::netlist::SiteId& t : p.truth) {
      if (!(head >> t)) {
        error = "bad truth sites: " + line;
        return false;
      }
    }
    std::string text;
    while (std::getline(is, line) && line != "end") text += line + '\n';
    if (line != "end") {
      error = "pool entry not terminated";
      return false;
    }
    m::sim::FailureLogParseResult parsed = m::sim::failure_log_from_text(text);
    if (!parsed.ok) {
      error = "bad failure log in pool: " + parsed.message;
      return false;
    }
    p.log = std::move(parsed.log);
    out.push_back(std::move(p));
  }
  if (out.size() != count) {
    error = "pool holds " + std::to_string(out.size()) + " logs, header says " +
            std::to_string(count);
    return false;
  }
  return true;
}

int run_pool(const Workload& w, const StageOptions& opt) {
  StageResult res;
  m::eval::TrainedFramework fw;
  std::string error;
  if (!m::eval::load_framework_file(fw, opt.framework_path, &error)) {
    res.mismatches.push_back("cannot load framework: " + error);
    return finish_stage(res, opt);
  }
  const std::unique_ptr<m::eval::Design> design =
      m::eval::build_design(w.spec, m::eval::Config::kSyn2);

  const std::size_t pool_size = w.pool_logs(opt.seconds);
  const m::eval::Dataset ds =
      generate_logs(*design, 4 * pool_size + 16, kPoolSeed);
  std::vector<PoolLog> pool;
  std::vector<m::gnn::LabeledGraph> labeled;
  std::unordered_set<std::uint64_t> seen;
  for (const m::eval::Sample& smp : ds.samples) {
    if (pool.size() == pool_size) break;
    if (smp.log.empty() ||
        !seen.insert(m::serve::failure_log_fingerprint(smp.log)).second) {
      continue;  // Distinct logs only: repeats come from the request stream.
    }
    pool.push_back({smp.log, smp.truth_sites});
    labeled.push_back({&smp.sub, smp.fault_tier});
  }
  std::uint64_t failed = 0;
  if (pool.size() < pool_size) {
    ++failed;
    res.mismatches.push_back("datagen produced too few distinct logs");
  } else if (!write_pool(opt.pool_path, pool)) {
    ++failed;
    res.mismatches.push_back("cannot write " + opt.pool_path);
  }
  res.count("pool", 1, failed);
  res.set("tier_accuracy", fw.tier.accuracy(labeled), "ratio");
  res.notes["pool_logs"] = std::to_string(pool.size());
  return finish_stage(res, opt);
}

}  // namespace e2e
