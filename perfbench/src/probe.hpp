// Standalone leaf probes: the phase-1..5 kernels of one apply_batch,
// launched one by one through the public fft / blas / precision entry
// points at a workload's exact shape, batch and precision config, each
// timed on the host clock and on the modelled device clock.
#pragma once

#include <cstdint>
#include <string>

#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "device/device.hpp"
#include "precision/precision.hpp"

namespace perfbench {

using fftmv::index_t;

/// Medians over the probe's repetitions, per full b-RHS pass.
struct LeafTimes {
  double fft_fwd_ms = 0.0;    ///< phase-2 batched real FFT, host
  double fft_inv_ms = 0.0;    ///< phase-4 batched inverse FFT, host
  double gemv_ms = 0.0;       ///< phase-3 grouped SBGEMV, host
  double precision_ms = 0.0;  ///< staging cast, pad, both reorders, unpad, host
  double model_fft_fwd_ms = 0.0;
  double model_fft_inv_ms = 0.0;
  double model_gemv_ms = 0.0;
  double model_precision_ms = 0.0;
  double gemv_bytes = 0.0;    ///< matrix + x + y bytes, computed from operand sizes
  double fft_fwd_elems = 0.0; ///< reals transformed by the phase-2 launch(es)
};

struct ProbeShape {
  fftmv::precision::PrecisionConfig config;
  fftmv::core::ApplyDirection direction = fftmv::core::ApplyDirection::kForward;
  index_t rhs = 1;     ///< b
  index_t chunks = 1;  ///< pipeline chunks the real apply_batch uses
};

/// Runs the probe `reps` times after one warm-up pass.  When tracing
/// is on, every launch is wrapped in a LayerSpan tagged `tag` (layer
/// = fft / blas / precision).  Supports the configs the workloads use
/// (ddddd, dssdd, sssss); throws std::invalid_argument otherwise.
LeafTimes probe_leaves(fftmv::device::Device& dev,
                       const fftmv::core::BlockToeplitzOperator& op,
                       const ProbeShape& shape, int reps, const std::string& tag,
                       std::uint64_t seed);

/// One whole apply through the public core entry point: forward() /
/// adjoint() when shape.rhs == 1, else apply_batch with shape.chunks.
struct ApplyTimes {
  double host_ms = 0.0;   ///< median over reps
  double model_ms = 0.0;  ///< PhaseTimings::span() of the apply
  fftmv::core::PhaseTimings timings;
};

ApplyTimes probe_apply(fftmv::core::FftMatvecPlan& plan,
                       const fftmv::core::BlockToeplitzOperator& op,
                       const ProbeShape& shape, int reps, const std::string& tag,
                       std::uint64_t seed);

struct Result;

/// Sets the uniform fft / blas / precision / core per-layer metrics of
/// a workload from its primary probes: `single` is a single-RHS apply,
/// `batch` the apply at the workload's batch size and `leaves` the
/// standalone kernels of that batched apply.
void report_leaf_metrics(Result& res, const ApplyTimes& single,
                         const ApplyTimes& batch, const LeafTimes& leaves);

}  // namespace perfbench
