// Workload `map_solve`: closed loop of mixed-precision iterative-
// refinement MAP solves on the in-tree advection-diffusion p2o map at
// the paper's N_t (N_m=128, N_d=8, N_t=1000, so L=2000 takes the
// Bluestein FFT path).  Every F / F* action is a single-RHS apply, so
// the fft and inverse layers carry the time; serving and multi-RHS
// GEMV do none.
#include <iostream>
#include <memory>
#include <vector>

#include "blas/vector_ops.hpp"  // refinement.hpp uses blas::nrm2 without including it
#include "common.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "device/device_spec.hpp"
#include "inverse/lti_system.hpp"
#include "inverse/refinement.hpp"
#include "probe.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace fftmv;

constexpr double kRelTolerance = 1e-10;
constexpr double kMaxRelError = 1e-8;

/// Everything a solve needs, built from scratch (the set-up the
/// benchmark times): p2o first block column, operator spectrum and its
/// single-precision cast, plan, both Hessians, manufactured solution.
struct MapProblem {
  MapProblem(index_t n_t, std::uint64_t seed)
      : cfg(inverse::LtiConfig::with_uniform_sensors(128, n_t, 8)),
        dev(device::make_mi300x()),
        stream(dev),
        local(core::LocalDims::single_rank({cfg.n_m(), cfg.n_d(), cfg.n_t})) {
    const auto t0 = Clock::now();
    const inverse::AdvectionDiffusion1D system(cfg);
    op = std::make_unique<core::BlockToeplitzOperator>(dev, stream, local,
                                                       system.first_block_column());
    op->spectrum_f(stream);
    operator_setup_s = seconds_since(t0);
    plan = std::make_unique<core::FftMatvecPlan>(dev, stream, local);
    inverse::PriorModel prior;
    prior.n_m = cfg.n_m();
    inverse::NoiseModel noise;
    hess_double = std::make_unique<inverse::HessianOperator>(
        *plan, *op, prior, noise, precision::PrecisionConfig{});
    hess_mixed = std::make_unique<inverse::HessianOperator>(
        *plan, *op, prior, noise, precision::PrecisionConfig::parse("dssdd"));
    util::Rng rng(seed);
    m_true.resize(static_cast<std::size_t>(hess_double->parameter_size()));
    for (auto& v : m_true) v = rng.uniform(-1.0, 1.0);
    rhs.resize(m_true.size());
    // The first apply of each config warms the plan (FFT plans,
    // workspaces); b = H_double m_true is the manufactured right side.
    const auto t1 = Clock::now();
    hess_double->apply(m_true, rhs);
    plan_warm_ms = seconds_since(t1) * 1e3;
    std::vector<double> scratch(m_true.size());
    hess_mixed->apply(m_true, scratch);
  }

  inverse::LtiConfig cfg;
  device::Device dev;
  device::Stream stream;
  core::LocalDims local;
  std::unique_ptr<core::BlockToeplitzOperator> op;
  std::unique_ptr<core::FftMatvecPlan> plan;
  std::unique_ptr<inverse::HessianOperator> hess_double, hess_mixed;
  std::vector<double> m_true, rhs;
  double operator_setup_s = 0.0;
  double plan_warm_ms = 0.0;
};

struct SolveSample {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU, all threads
  inverse::RefinementResult result;
  bool ok = false;
};

SolveSample timed_solve(MapProblem& p, std::int64_t id) {
  std::vector<double> m(p.m_true.size());
  SolveSample s;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    const LayerSpan op_span("op", "bench", id);
    const LayerSpan span("solve_with_refinement", "inverse", id);
    s.result = inverse::solve_with_refinement(*p.hess_double, *p.hess_mixed, p.rhs, m,
                                              kRelTolerance);
  }
  s.seconds = seconds_since(t0);
  s.cpu_seconds = process_cpu_seconds() - cpu0;
  const double err = blas::relative_l2_error(static_cast<index_t>(m.size()), m.data(),
                                             p.m_true.data());
  s.ok = s.result.converged && err <= kMaxRelError;
  std::cout << "map_solve: solve " << id << ": " << s.seconds << " s (" << s.cpu_seconds
            << " CPU s), "
            << s.result.inner_cg_iterations << " CG iterations, "
            << s.result.outer_iterations << " outer, rel error " << err << "\n";
  if (!s.ok) {
    std::cout << "map_solve: solve " << id << " FAILED (converged="
              << s.result.converged << ", residual=" << s.result.residual_norm
              << ", rel error vs m_true=" << err << ")\n";
  }
  return s;
}

}  // namespace

Result run_map_solve(const RunOptions& opt) {
  Result res;
  res.workload = "map_solve";
  const index_t n_t = opt.quick ? 100 : 1000;

  // Set-up, repeated; the median is setup_s and the last one is kept.
  std::vector<double> setups;
  std::unique_ptr<MapProblem> p;
  const int n_setups = opt.trace ? 1 : 9;
  for (int i = 0; i < n_setups; ++i) {
    p.reset();
    const auto t0 = Clock::now();
    p = std::make_unique<MapProblem>(n_t, opt.seed);
    setups.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(setups), "s");

  // Closed loop: start another solve while, at the last solve's
  // length, it would end no later than a quarter of the window past
  // its close (a solve takes ~10 s, so this bounds the run's length).
  std::vector<SolveSample> solves;
  const auto t_run = Clock::now();
  std::int64_t id = 0;
  if (opt.trace) {
    solves.push_back(timed_solve(*p, id++));  // untraced reference
    util::trace::start();
    solves.push_back(timed_solve(*p, id++));
  } else {
    do {
      solves.push_back(timed_solve(*p, id++));
    } while (seconds_since(t_run) + solves.back().seconds <= 1.25 * opt.seconds);
  }

  std::vector<double> solve_ms, cpu_ms_per_matvec;
  double solve_s_sum = 0.0;
  double matvecs = 0.0;
  for (const auto& s : solves) {
    ++res.attempted;
    if (!s.ok) ++res.failed;
    solve_ms.push_back(s.seconds * 1e3);
    solve_s_sum += s.seconds;
    cpu_ms_per_matvec.push_back(
        s.cpu_seconds * 1e3 /
        static_cast<double>(s.result.mixed_matvecs + s.result.double_matvecs));
    matvecs += static_cast<double>(s.result.mixed_matvecs + s.result.double_matvecs);
  }
  const auto& last = solves.back().result;
  res.set("latency_p50_ms", median(solve_ms), "ms");
  res.set("latency_p99_ms", quantile(solve_ms, 0.99), "ms");
  res.set("rhs_per_s", matvecs / solve_s_sum, "1/s");
  res.set("cpu_ms_per_rhs", median(cpu_ms_per_matvec), "ms");
  res.set("solve_s", median(solve_ms) / 1e3, "s");
  res.set("inverse.cg_iterations", static_cast<double>(last.inner_cg_iterations), "count");
  res.set("inverse.outer_iterations", static_cast<double>(last.outer_iterations), "count");
  res.set("inverse.matvecs_mixed", static_cast<double>(last.mixed_matvecs), "count");
  res.set("inverse.matvecs_double", static_cast<double>(last.double_matvecs), "count");
  res.set("core.operator_setup_s", p->operator_setup_s, "s");
  res.set("core.plan_warm_ms", p->plan_warm_ms, "ms");
  if (!opt.trace) return res;

  // Traced run: the op above was traced; the standalone probes below
  // time every layer the solve reaches, at its exact shapes.
  const double traced_ms = solve_ms.back();
  const double untraced_ms = solve_ms.front();
  res.set("trace.overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0, "%");
  const int reps = opt.quick ? 3 : 7;
  const auto mixed = precision::PrecisionConfig::parse("dssdd");
  const precision::PrecisionConfig dbl{};
  const double n_mixed_applies = static_cast<double>(last.mixed_matvecs) / 2.0;
  const double n_double_applies = static_cast<double>(last.double_matvecs) / 2.0;

  // Hessian applies (the solve's inner operator), both configs.
  std::vector<double> y(p->m_true.size());
  double apply_ms[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const auto& h = k == 0 ? *p->hess_mixed : *p->hess_double;
    std::vector<double> t;
    for (int rep = 0; rep < reps; ++rep) {
      const LayerSpan span("hessian_apply", "inverse", rep,
                           k == 0 ? "hessian.dssdd" : "hessian.ddddd", rep);
      const auto t0 = Clock::now();
      h.apply(p->m_true, y);
      t.push_back(seconds_since(t0) * 1e3);
    }
    apply_ms[k] = median(t);
  }
  res.set("inverse.hessian_apply_ms.mixed", apply_ms[0], "ms");
  res.set("inverse.hessian_apply_ms.double", apply_ms[1], "ms");
  res.set("inverse.self_s",
          (median(solve_ms) - n_mixed_applies * apply_ms[0] -
           n_double_applies * apply_ms[1]) / 1e3,
          "s");

  double model_solve_ms = 0.0;
  for (const auto& config : {mixed, dbl}) {
    const std::string c = config.to_string();
    const double per_op = c == "dssdd" ? n_mixed_applies : n_double_applies;
    for (const auto dir : {core::ApplyDirection::kForward, core::ApplyDirection::kAdjoint}) {
      const std::string d = dir == core::ApplyDirection::kForward ? "fwd" : "adj";
      const ProbeShape shape{config, dir, 1, 1};
      const auto at = probe_apply(*p->plan, *p->op, shape, reps, "core." + d + "." + c,
                                  opt.seed);
      const auto lt = probe_leaves(p->dev, *p->op, shape, reps, "leaf." + d + "." + c,
                                   opt.seed);
      res.recipe.push_back({"core." + d + "." + c, per_op, "inverse"});
      res.recipe.push_back({"leaf." + d + "." + c, per_op, "core"});
      model_solve_ms += per_op * at.model_ms;
      if (c == "dssdd" && d == "fwd") {
        report_leaf_metrics(res, at, at, lt);
      }
    }
  }
  util::trace::stop();
  res.set("model_ms_per_rhs", model_solve_ms / (2.0 * (n_mixed_applies + n_double_applies)),
          "ms");
  res.set("device.host_over_model", median(solve_ms) / model_solve_ms, "x");
  return res;
}

}  // namespace perfbench
