// perfbench — host-wall benchmark of the fftmv library.
//
//   perfbench <map_solve|hessian_batch|serve_mixed> --seed N --seconds T
//             [--trace] [--quick] [--out DIR]
//   perfbench drift [--quick]
//
// A workload run prints its human-readable report, then one line
// "RESULT <json>" carrying every metric it measured (value + unit),
// the attempted / failed operation counts, and — with --trace — the
// path of the exported Chrome trace plus the recipe perfbench/run.py
// uses to split the operation's time into layer parts.  `drift`
// prints the measured-vs-modelled table at the ROADMAP baseline shapes.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

int usage() {
  std::cerr << "usage: perfbench <map_solve|hessian_batch|serve_mixed> --seed N "
               "--seconds T [--trace] [--quick] [--out DIR]\n"
               "       perfbench drift [--quick]\n";
  return 2;
}

}  // namespace

void Result::write_json(std::ostream& os) const {
  os << "{\"workload\": " << json_string(workload) << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}, \"top_parts_ms\": {";
  first = true;
  for (const auto& [layer, ms] : top_parts_ms) {
    os << (first ? "" : ", ") << json_string(layer) << ": " << json_number(ms);
    first = false;
  }
  os << "}, \"recipe\": [";
  first = true;
  for (const auto& line : recipe) {
    os << (first ? "" : ", ") << "{\"probe\": " << json_string(line.probe)
       << ", \"per_op\": " << json_number(line.per_op)
       << ", \"parent\": " << json_string(line.parent) << "}";
    first = false;
  }
  os << "], \"trace_path\": " << json_string(trace_path) << "}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string what = argv[1];
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--quick") {
      opt.quick = true;
    } else {
      std::cerr << "perfbench: unknown or incomplete argument " << a << "\n";
      return usage();
    }
  }
  if (opt.seconds <= 0.0) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }
  try {
    if (what == "drift") return run_drift(opt);
    Result res;
    if (what == "map_solve") {
      res = run_map_solve(opt);
    } else if (what == "hessian_batch") {
      res = run_hessian_batch(opt);
    } else if (what == "serve_mixed") {
      res = run_serve_mixed(opt);
    } else {
      std::cerr << "perfbench: unknown workload " << what << "\n";
      return usage();
    }
    if (opt.trace) {
      const auto path = std::filesystem::path(opt.out_dir) /
                        (res.workload + "-" + std::to_string(opt.seed) + ".trace.json");
      if (!fftmv::util::trace::write_file(path.string())) {
        std::cerr << "perfbench: cannot write trace " << path << "\n";
        return 1;
      }
      res.trace_path = path.string();
    }
    std::cout << "RESULT ";
    res.write_json(std::cout);
    std::cout << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
