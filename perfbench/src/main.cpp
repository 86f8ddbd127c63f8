// perfbench — the probemon benchmark driver. run.py builds this binary
// and forwards its arguments:
//
//   perfbench --workload <des_fleet|des_paper|rt_fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny]
//
// The last line of stdout is the result object; earlier lines starting
// with '#' are notes (determinism fingerprints, cost tables) and one
// {"noise": ...} line. A failed correctness check exits 1 without a
// result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <des_fleet|des_paper|rt_fleet> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.seconds < 1 || opt.seconds > 600) usage("--seconds must be in [1, 600]");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  const double load = perfbench::loadavg_1m();
  const perfbench::Usage u0 = perfbench::Usage::now();
  const double t0 = perfbench::now_s();
  try {
    perfbench::Result r;
    if (opt.workload == "des_fleet") {
      r = perfbench::run_des_fleet(opt);
    } else if (opt.workload == "des_paper") {
      r = perfbench::run_des_paper(opt);
    } else if (opt.workload == "rt_fleet") {
      r = perfbench::run_rt_fleet(opt);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    const double nivcsw_per_s =
        static_cast<double>((perfbench::Usage::now() - u0).nivcsw) / (perfbench::now_s() - t0);
    r.noise = {{"nivcsw_per_s", nivcsw_per_s}, {"loadavg_1m_at_start", load}};
    if (opt.trace) {
      r.set("noise.nivcsw_per_s", nivcsw_per_s, "1/s");
      r.set("noise.loadavg_1m", load, "load");
    }
    r.emit(opt);
  } catch (const perfbench::CheckFailed& e) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
