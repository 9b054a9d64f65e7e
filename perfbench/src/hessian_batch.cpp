// Workload `hessian_batch`: closed loop of Hessian-action batches on a
// synthetic operator (N_m=512, N_d=32, N_t=1024, b=16, dssdd) — the
// paper's §4.2.2 Hessian assembly.  Each batch is a forward
// apply_batch of 16 RHS, then an adjoint apply_batch of their outputs,
// both at the chunk count serve::adaptive_pipeline_chunks resolves.
// L = 2048 is a power of two (no Bluestein), and the grouped SBGEMV
// carries most of the host time, so a GEMV change moves this workload
// and an FFT change barely does.
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "probe.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {
namespace {

using namespace fftmv;

constexpr index_t kRhs = 16;

struct HessianProblem {
  HessianProblem(const core::ProblemDims& dims, std::uint64_t seed)
      : dev(device::make_mi300x()),
        stream(dev),
        local(core::LocalDims::single_rank(dims)),
        config(precision::PrecisionConfig::parse("dssdd")) {
    const auto t0 = Clock::now();
    op = std::make_unique<core::BlockToeplitzOperator>(
        dev, stream, local, core::make_first_block_col(local, seed));
    op->spectrum_f(stream);
    operator_setup_s = seconds_since(t0);
    plan = std::make_unique<core::FftMatvecPlan>(dev, stream, local);
    chunks_fwd = serve::adaptive_pipeline_chunks(dev.spec(), dims, kRhs,
                                                 core::ApplyDirection::kForward, config);
    chunks_adj = serve::adaptive_pipeline_chunks(dev.spec(), dims, kRhs,
                                                 core::ApplyDirection::kAdjoint, config);
    for (index_t r = 0; r < kRhs; ++r) {
      inputs.push_back(core::make_input_vector(dims.n_t * dims.n_m,
                                               seed + 101 + static_cast<std::uint64_t>(r)));
      mid.emplace_back(static_cast<std::size_t>(dims.n_t * dims.n_d));
      outs.emplace_back(static_cast<std::size_t>(dims.n_t * dims.n_m));
    }
    const auto t1 = Clock::now();
    apply();
    plan_warm_ms = seconds_since(t1) * 1e3;
  }

  /// One Hessian-action batch: F on the 16 inputs, then F* on F's
  /// outputs.  Returns {forward, adjoint} modelled makespans (s).
  std::pair<double, double> apply(std::int64_t id = -1) {
    std::vector<core::ConstVectorView> in_v(inputs.begin(), inputs.end());
    std::vector<core::VectorView> mid_v(mid.begin(), mid.end());
    std::vector<core::ConstVectorView> mid_cv(mid.begin(), mid.end());
    std::vector<core::VectorView> out_v(outs.begin(), outs.end());
    double fwd_model = 0.0;
    {
      const LayerSpan span("apply_batch.forward", "core", id);
      plan->apply_batch(*op, core::ApplyDirection::kForward, config, in_v, mid_v,
                        core::BatchPipeline{.chunks = chunks_fwd});
      fwd_model = plan->last_timings().span();
    }
    {
      const LayerSpan span("apply_batch.adjoint", "core", id);
      plan->apply_batch(*op, core::ApplyDirection::kAdjoint, config, mid_cv, out_v,
                        core::BatchPipeline{.chunks = chunks_adj});
    }
    return {fwd_model, plan->last_timings().span()};
  }

  device::Device dev;
  device::Stream stream;
  core::LocalDims local;
  precision::PrecisionConfig config;
  std::unique_ptr<core::BlockToeplitzOperator> op;
  std::unique_ptr<core::FftMatvecPlan> plan;
  int chunks_fwd = 1;
  int chunks_adj = 1;
  std::vector<std::vector<double>> inputs, mid, outs;
  double operator_setup_s = 0.0;
  double plan_warm_ms = 0.0;
};

/// Number of RHS (forward and adjoint counted apart) that differ from
/// the reference by even one bit.
std::int64_t mismatches(const std::vector<std::vector<double>>& got,
                        const std::vector<std::vector<double>>& want) {
  std::int64_t bad = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (std::memcmp(got[r].data(), want[r].data(), got[r].size() * sizeof(double)) != 0) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

Result run_hessian_batch(const RunOptions& opt) {
  Result res;
  res.workload = "hessian_batch";
  const core::ProblemDims dims =
      opt.quick ? core::ProblemDims{64, 8, 64} : core::ProblemDims{512, 32, 1024};

  std::vector<double> setups;
  std::unique_ptr<HessianProblem> p;
  const int n_setups = opt.trace ? 1 : 5;
  for (int i = 0; i < n_setups; ++i) {
    p.reset();
    const auto t0 = Clock::now();
    p = std::make_unique<HessianProblem>(dims, opt.seed);
    setups.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(setups), "s");

  // Reference: b independent single-RHS forward() / adjoint() calls on
  // a fresh plan, computed once before timing.
  std::vector<std::vector<double>> ref_mid, ref_out;
  {
    core::FftMatvecPlan ref_plan(p->dev, p->stream, p->local);
    for (index_t r = 0; r < kRhs; ++r) {
      ref_mid.emplace_back(p->mid[0].size());
      ref_out.emplace_back(p->outs[0].size());
      ref_plan.forward(*p->op, p->inputs[static_cast<std::size_t>(r)],
                       ref_mid.back(), p->config);
      ref_plan.adjoint(*p->op, ref_mid.back(), ref_out.back(), p->config);
    }
  }

  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_ms;  // process CPU inside each batch, all threads
  double model_batch_s = 0.0;
  const auto t_run = Clock::now();
  std::int64_t id = 0;
  const auto one_batch = [&] {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::pair<double, double> model;
    {
      const LayerSpan span("op", "bench", id);
      model = p->apply(id);
    }
    batch_ms.push_back(seconds_since(t0) * 1e3);
    batch_cpu_ms.push_back((process_cpu_seconds() - cpu0) * 1e3);
    model_batch_s = model.first + model.second;
    res.attempted += 2 * kRhs;
    res.failed += mismatches(p->mid, ref_mid) + mismatches(p->outs, ref_out);
    ++id;
  };
  if (opt.trace) {
    for (int i = 0; i < 3; ++i) one_batch();  // untraced reference
    util::trace::start();
    for (int i = 0; i < 3; ++i) one_batch();
  } else {
    do {
      one_batch();
    } while (seconds_since(t_run) < opt.seconds);
  }
  if (res.failed > 0) {
    std::cout << "hessian_batch: " << res.failed << " of " << res.attempted
              << " RHS outputs differ from independent forward()/adjoint() calls\n";
  }

  double total_ms = 0.0;
  for (double ms : batch_ms) total_ms += ms;
  res.set("latency_p50_ms", median(batch_ms), "ms");
  res.set("latency_p99_ms", quantile(batch_ms, 0.99), "ms");
  res.set("rhs_per_s", 2.0 * kRhs * static_cast<double>(batch_ms.size()) / (total_ms / 1e3),
          "1/s");
  res.set("cpu_ms_per_rhs", median(batch_cpu_ms) / (2.0 * kRhs), "ms");
  res.set("model_ms_per_rhs", model_batch_s * 1e3 / (2.0 * kRhs), "ms");
  res.set("core.operator_setup_s", p->operator_setup_s, "s");
  res.set("core.plan_warm_ms", p->plan_warm_ms, "ms");
  res.set("core.pipeline_chunks.forward", p->chunks_fwd, "count");
  res.set("core.pipeline_chunks.adjoint", p->chunks_adj, "count");
  if (!opt.trace) return res;

  const std::vector<double> untraced(batch_ms.begin(), batch_ms.begin() + 3);
  const std::vector<double> traced(batch_ms.begin() + 3, batch_ms.end());
  res.set("trace.overhead_pct", (median(traced) / median(untraced) - 1.0) * 100.0, "%");
  res.set("device.host_over_model", median(batch_ms) / (model_batch_s * 1e3), "x");

  const int reps = opt.quick ? 3 : 5;
  ApplyTimes fwd_batch;
  LeafTimes fwd_leaves;
  for (const auto dir : {core::ApplyDirection::kForward, core::ApplyDirection::kAdjoint}) {
    const bool fwd = dir == core::ApplyDirection::kForward;
    const std::string d = fwd ? "fwd" : "adj";
    const ProbeShape shape{p->config, dir, kRhs, fwd ? p->chunks_fwd : p->chunks_adj};
    const auto lt = probe_leaves(p->dev, *p->op, shape, reps, "leaf." + d, opt.seed);
    res.recipe.push_back({"leaf." + d, 1.0, "core"});
    if (fwd) {
      fwd_leaves = lt;
      fwd_batch = probe_apply(*p->plan, *p->op, shape, reps, "core.batch.fwd", opt.seed);
    }
  }
  const ProbeShape single_shape{p->config, core::ApplyDirection::kForward, 1, 1};
  const auto single =
      probe_apply(*p->plan, *p->op, single_shape, reps, "core.single.fwd", opt.seed);
  util::trace::stop();
  report_leaf_metrics(res, single, fwd_batch, fwd_leaves);
  return res;
}

}  // namespace perfbench
