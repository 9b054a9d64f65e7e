// Measured-vs-modelled drift table (report only): forward dssdd
// apply_batch host ms next to its PhaseTimings makespan, and the
// standalone FFT / SBGEMV kernels next to their modelled times, at the
// ROADMAP "Measured baseline" shapes and at each closed-loop workload
// shape.  `python3 perfbench/run.py --drift` regenerates that table.
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "probe.hpp"

namespace perfbench {

int run_drift(const RunOptions& opt) {
  using namespace fftmv;
  struct Row {
    core::ProblemDims dims;
    index_t b;
    const char* note;
  };
  std::vector<Row> rows = {
      {{48, 4, 24}, 1, "baseline"},       {{48, 4, 24}, 8, "baseline"},
      {{192, 12, 96}, 1, "baseline"},     {{192, 12, 96}, 8, "baseline"},
      {{1000, 20, 1000}, 1, "baseline"},  {{1000, 20, 1000}, 8, "baseline"},
      {{1000, 20, 1024}, 1, "baseline"},  {{1000, 20, 1024}, 8, "baseline"},
      {{128, 8, 1000}, 1, "map_solve"},   {{512, 32, 1024}, 16, "hessian_batch"},
  };
  if (opt.quick) rows.resize(4);
  const auto config = precision::PrecisionConfig::parse("dssdd");
  const int reps = opt.quick ? 3 : 5;
  std::cout << "drift: forward apply_batch, dssdd, host clock vs modelled MI300X "
               "clock (medians of "
            << reps << " reps)\n\n";
  std::cout << "| N_m x N_d x N_t | b | host ms/batch | modelled ms/batch | host / "
               "modelled | fft host / model ms | sbgemv host / model ms | shape |\n"
            << "|---|---|---|---|---|---|---|---|\n";
  std::cout << std::fixed;
  for (const auto& row : rows) {
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    const auto local = core::LocalDims::single_rank(row.dims);
    const core::BlockToeplitzOperator op(dev, stream, local,
                                         core::make_first_block_col(local, opt.seed));
    core::FftMatvecPlan plan(dev, stream, local);
    const ProbeShape shape{config, core::ApplyDirection::kForward, row.b, 1};
    const auto at = probe_apply(plan, op, shape, reps, "drift", opt.seed);
    const auto lt = probe_leaves(dev, op, shape, reps, "drift", opt.seed);
    std::cout << "| " << row.dims.n_m << " x " << row.dims.n_d << " x " << row.dims.n_t
              << " | " << row.b << " | " << std::setprecision(3) << at.host_ms << " | "
              << at.model_ms << " | " << std::setprecision(1)
              << at.host_ms / at.model_ms << "x | " << std::setprecision(3)
              << lt.fft_fwd_ms + lt.fft_inv_ms << " / "
              << lt.model_fft_fwd_ms + lt.model_fft_inv_ms << " | " << lt.gemv_ms
              << " / " << lt.model_gemv_ms << " | " << row.note << " |" << std::endl;
  }
  return 0;
}

}  // namespace perfbench
