// perfbench-driver: runs one benchmark workload and writes its raw
// measurements as one JSON object; perfbench/run.py turns them into
// metrics.
//
//   perfbench-driver <workload> --seed N --seconds S --trace 0|1
//                    --work-dir DIR --served PATH --out FILE
//
// Exit codes: 0 measured and correct; 3 some output mismatched the
// reference; 4 the workload did not exercise the layer it exists for;
// 2 usage or run error.  The JSON is written in every measured case.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench-driver <workload> --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --served PATH --out FILE\n");
    return 2;
  }
  const std::string workload = argv[1];
  perfbench::RunOptions opt;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--served") {
      opt.served_bin = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "perfbench-driver: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (out_path.empty() || opt.work_dir.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr, "perfbench-driver: --out, --work-dir and a positive "
                         "--seconds are required\n");
    return 2;
  }
  try {
    const bool challenge = workload.rfind("challenge-", 0) == 0;
    const perfbench::RunResult r =
        challenge ? perfbench::run_challenge(workload, opt)
                  : perfbench::run_serving(workload, opt);
    std::ofstream out(out_path);
    out << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"mismatches\":" << r.mismatches
        << ",\"drift\":" << perfbench::json_string(r.drift)
        << ",\"raw\":" << r.json << "}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "perfbench-driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    if (r.mismatches > 0) return 3;
    if (!r.drift.empty()) {
      std::fprintf(stderr, "perfbench-driver: %s\n", r.drift.c_str());
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
    return 2;
  }
}
