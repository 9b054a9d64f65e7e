// Shared helpers for the perfbench program: host clock, order
// statistics, the result record every workload fills, and the
// bench-side trace spans the traced run wraps around each call into a
// library layer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used so far by every thread of this process (the
/// library's pool workers and scheduler lanes included).  Time a
/// thread spends waiting, or descheduled by the host, is not counted.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds used so far by the calling thread.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One line of the per-layer decomposition recipe: the traced run's
/// standalone spans tagged `probe` (all layers they cover) count
/// `per_op` times per end-to-end operation, and are carved out of the
/// `parent` layer's share.  perfbench/run.py applies the recipe to the
/// exported Chrome trace.
struct RecipeLine {
  std::string probe;
  double per_op = 0.0;
  std::string parent;
};

/// Everything one workload run measured.  `metrics` holds every named
/// metric the run produced (end-to-end and per-layer, both clocks);
/// run.py picks the ones BENCHMARK.json lists.
struct Result {
  std::string workload;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Top-level parts of one operation's time that are not spans on a
  /// single thread (open-loop serving): layer -> ms per operation.
  std::map<std::string, double> top_parts_ms;
  std::vector<RecipeLine> recipe;
  std::string trace_path;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void write_json(std::ostream& os) const;
};

/// Host-clock span around one bench-side call into a library layer
/// (`cat` is the layer's module name).  Carries the id of the
/// operation it belongs to and, for standalone probes, the probe tag
/// and repetition, so run.py can group spans without guessing.
/// Emits nothing while tracing is off.
class LayerSpan {
 public:
  LayerSpan(const char* name, const char* cat, std::int64_t id,
            std::string probe = {}, std::int64_t rep = -1)
      : name_(name),
        cat_(cat),
        id_(id),
        probe_(std::move(probe)),
        rep_(rep),
        active_(fftmv::util::trace::enabled()) {
    if (active_) t0_us_ = fftmv::util::trace::now_us();
  }
  ~LayerSpan() {
    if (!active_) return;
    const double dur = fftmv::util::trace::now_us() - t0_us_;
    if (probe_.empty()) {
      fftmv::util::trace::complete(name_, cat_, t0_us_, dur, {{"id", id_}});
    } else {
      fftmv::util::trace::complete(name_, cat_, t0_us_, dur,
                                   {{"id", id_}, {"probe", probe_}, {"rep", rep_}});
    }
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t id_;
  std::string probe_;
  std::int64_t rep_;
  double t0_us_ = 0.0;
  bool active_;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".";
};

Result run_map_solve(const RunOptions& opt);
Result run_hessian_batch(const RunOptions& opt);
Result run_serve_mixed(const RunOptions& opt);
/// Measured-vs-modelled drift table at the ROADMAP baseline shapes.
int run_drift(const RunOptions& opt);

}  // namespace perfbench
