// e2ebench: the three stages of one end-to-end benchmark run, in order.
//
//   e2ebench onboard|pool|serve --workload W --seconds S --seed N
//            --trace 0|1 --framework F.m3dfl --pool P.txt --result OUT.json
//            [--trace-file T]
//
// onboard writes F, pool reads F and writes P, serve reads both. run.py
// drives all three and prints the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "stages.h"

namespace e2e {

int finish_stage(const StageResult& res, const StageOptions& opt) {
  if (!write_file(opt.result_path, res.to_json())) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n",
                 opt.result_path.c_str());
    return 1;
  }
  std::printf("e2ebench: %zu metrics, %zu output-check failures -> %s\n",
              res.metrics.size(), res.mismatches.size(),
              opt.result_path.c_str());
  return 0;
}

}  // namespace e2e

namespace {

int usage() {
  std::string names;
  for (const std::string& n : e2e::workload_names()) names += " " + n;
  std::fprintf(stderr,
               "usage: e2ebench onboard|pool|serve --workload W "
               "--seconds S --seed N --trace 0|1 --framework F --pool P "
               "--result R [--trace-file T]\nworkloads:%s\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string stage = argv[1];
  e2e::Args args;
  if ((stage != "onboard" && stage != "pool" && stage != "serve") ||
      !e2e::parse_args(argc, argv, 2, args)) {
    return usage();
  }
  const e2e::Workload* w = e2e::find_workload(args.get("workload"));
  e2e::StageOptions opt;
  opt.seconds = args.num("seconds", 0.0);
  opt.seed = static_cast<std::uint64_t>(args.num("seed", -1.0));
  opt.trace = args.get("trace") == "1";
  opt.framework_path = args.get("framework");
  opt.pool_path = args.get("pool");
  opt.result_path = args.get("result");
  opt.trace_path = args.get("trace-file");
  if (w == nullptr || opt.seconds <= 0.0 || args.num("seed", -1.0) < 0.0 ||
      opt.framework_path.empty() || opt.pool_path.empty() ||
      opt.result_path.empty()) {
    return usage();
  }
  try {
    if (stage == "onboard") return e2e::run_onboard(*w, opt);
    if (stage == "pool") return e2e::run_pool(*w, opt);
    return e2e::run_serve(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench %s: %s\n", stage.c_str(), e.what());
    return 1;
  }
}
