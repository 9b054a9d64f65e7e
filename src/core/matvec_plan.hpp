// The FFTMatvec execution plan: five-phase mixed-precision matvecs
// with a block-triangular Toeplitz operator (paper §2.4, §3.2).
//
// One stage executor runs every apply.  Forward (F) matvec of b
// right-hand sides on rank (r, c) of a p_r x p_c grid:
//   1. per RHS, the fused TOSI->SOTI transpose + zero-pad (+cast to
//      the FFT precision); a grid apply first stages the local
//      parameter chunk in the phase-1 precision and broadcasts it over
//      the grid column,
//   2. one batched real FFT (b * n_m_local sequences of length 2 N_t),
//   3. Fourier-space reorder, strided batched GEMV over the N_t + 1
//      frequency blocks, reorder back — the reorders are charged to
//      the SBGEMV phase exactly as the artifact's timing output does,
//   4. one batched inverse real FFT (b * n_d_local sequences),
//   5. per RHS, the fused unpad + SOTI->TOSI transpose and the final
//      cast to double; a grid apply tree-reduces the partial outputs
//      over the grid row before that cast.
// The adjoint (F*) matvec mirrors the pipeline with the conjugate-
// transpose SBGEMV and broadcast/reduce roles swapped.  forward(),
// adjoint() and the *_partial spellings are the b = 1 case; only they
// take the grid stages (a RankComms) or a partial sink.
//
// Precision semantics (§3.2): input/output are always double; each
// phase computes in its configured precision; casts occur where the
// working precision changes and are fused into the adjacent memory
// operations (toggleable for the fusion ablation); the pure reorders
// read the producer's precision and write the consumer's, so traffic
// runs at the lowest adjacent width.
//
// Batched applies (apply_batch) optionally execute phase-pipelined:
// the RHS dimension splits into chunks software-pipelined over two
// streams under the device layer's Event/Stream::wait ordering
// contract (see BatchPipeline and device/stream.hpp), overlapping one
// chunk's SBGEMV with its successor's pad+FFT.  Outputs are
// bit-identical to the serial batch; PhaseTimings separates the
// end-to-end makespan from the busy-time phase fields.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "blas/sbgemv.hpp"
#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/block_toeplitz.hpp"
#include "core/problem.hpp"
#include "device/device_vector.hpp"
#include "device/stream.hpp"
#include "fft/plan.hpp"
#include "precision/precision.hpp"

namespace fftmv::core {

/// Simulated seconds per computational phase of one matvec
/// (mirroring the runtime breakdowns of Figures 2-3).
///
/// Makespan vs busy time: the per-phase fields are *busy* time — the
/// simulated seconds each phase's kernels were charged, regardless of
/// which stream ran them — so total() is the serial-equivalent work.
/// `makespan` is the end-to-end simulated duration of the apply.  A
/// serial apply sets makespan == total(); a pipelined apply_batch
/// overlaps the SBGEMV stage with the FFT stages of neighbouring RHS
/// chunks on a second stream, so makespan < total() and the gap is
/// exactly the overlapped time (credited max-over-streams, see
/// device/stream.hpp).  Per-RHS attributions (last_batch_timings)
/// split both: phase fields sum to the batch's phase fields and
/// makespan shares sum to the batch makespan.
struct PhaseTimings {
  double pad = 0.0;     ///< broadcast staging + transpose/pad (+cast)
  double fft = 0.0;     ///< phase-2 batched FFT
  double sbgemv = 0.0;  ///< phase-3 GEMV incl. both Fourier reorders
  double ifft = 0.0;    ///< phase-4 batched IFFT
  double unpad = 0.0;   ///< unpad/transpose + final cast
  double comm = 0.0;    ///< modelled broadcast + reduction time
  double makespan = 0.0;  ///< end-to-end duration (== total() when serial)

  double compute_total() const { return pad + fft + sbgemv + ifft + unpad; }
  double total() const { return compute_total() + comm; }
  /// End-to-end simulated duration (every apply records makespan).
  double span() const { return makespan; }

  PhaseTimings& operator+=(const PhaseTimings& o);
  PhaseTimings& operator*=(double s);
};

/// Direction selector for the batched entry point (forward() /
/// adjoint() remain the single-RHS spellings).
enum class ApplyDirection : unsigned char { kForward, kAdjoint };

/// ABFT verification level for apply_batch:
///   kOff       no checks (today's behaviour, zero extra cost);
///   kChecksum  Huang-Abraham column checksums on the grouped
///              phase-3 SBGEMV — covers the library's silent-
///              corruption injection site at a few percent modelled
///              overhead;
///   kParanoid  checksum plus a Parseval energy invariant on every
///              phase-2/4 FFT chunk (defense in depth for corruption
///              sources the GEMV checksum cannot see).
/// Detection throws device::SilentCorruption; outputs of a verified
/// apply are bit-identical to an unverified one (the checks only
/// read), so a clean recompute after a detection is a full repair.
/// Tolerances come from core::verify_tolerances, calibrated per
/// precision config so legitimate rounding never trips a check.
enum class VerifyMode : unsigned char { kOff, kChecksum, kParanoid };

inline const char* verify_mode_name(VerifyMode m) {
  switch (m) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kChecksum: return "checksum";
    case VerifyMode::kParanoid: return "paranoid";
  }
  return "?";
}

/// Mutable / immutable views of one right-hand side or output vector
/// in an apply_batch call.
using VectorView = std::span<double>;
using ConstVectorView = std::span<const double>;

/// Pipelined-execution request for apply_batch: split the batch's b
/// right-hand sides into `chunks` contiguous chunks and software-
/// pipeline them across two streams — chunk i's phase-3 grouped
/// SBGEMV (plus both Fourier reorders) runs on the auxiliary stream
/// while chunk i+1's phase-1/2 pad+FFT runs on the plan's own stream,
/// with phase-4/5 draining behind.  Cross-stream ordering uses the
/// device layer's Event/Stream::wait contract; the spectrum
/// workspaces ping-pong so a chunk's FFT never overwrites the
/// spectrum its predecessor's GEMV is still consuming.  Results are
/// bit-identical to the serial batch for every precision config
/// (chunks partition the RHS dimension; per-RHS arithmetic is
/// untouched); chunks <= 1 is exactly today's serial execution.
struct BatchPipeline {
  /// RHS chunks to pipeline; clamped to the batch size; <= 1 = serial.
  index_t chunks = 1;
  /// Stream for the SBGEMV stage.  nullptr lets the plan use an
  /// internally-owned second stream; the serving layer passes its
  /// lane's own auxiliary stream instead (stream pairs are lane-
  /// owned, so a cached plan is still never driven by two threads).
  device::Stream* aux = nullptr;
  /// ABFT verification level for this batch (see VerifyMode).  Lives
  /// here rather than in MatvecOptions so flipping it never splits
  /// plan-cache entries.
  VerifyMode verify = VerifyMode::kOff;
};

struct MatvecOptions {
  blas::GemvKernelPolicy gemv_policy = blas::GemvKernelPolicy::kAuto;
  /// When false, precision changes run as separate cast kernels after
  /// a same-precision memory op (the fusion ablation of §3.2).
  bool fuse_casts = true;
  /// Network model used to charge communication time in distributed
  /// applies.
  comm::NetworkSpec network = comm::NetworkSpec::frontier();

  bool operator==(const MatvecOptions&) const = default;
};

class FftMatvecPlan {
 public:
  FftMatvecPlan(device::Device& dev, device::Stream& stream,
                const LocalDims& dims, MatvecOptions options = {});

  const LocalDims& dims() const { return dims_; }
  device::Stream& stream() const { return *stream_; }
  const MatvecOptions& options() const { return options_; }

  /// d = F m: the b = 1 case of apply_batch, plus the optional grid
  /// stages.  `m` is the rank-local TOSI chunk (N_t x n_m_local,
  /// significant on the grid-column root), `d` receives the local
  /// TOSI result (N_t x n_d_local, valid on the grid-row root).
  /// Single-rank when `comms == nullptr`; otherwise the input is
  /// broadcast before phase 1 and the partials reduced after phase 5,
  /// both charged to PhaseTimings::comm.  Extents are checked on the
  /// roots only.  Like any batch, it consults the grouped SBGEMV's
  /// silent-corruption hook (FaultStats::buffer_writes counts it) and
  /// leaves one share in last_batch_timings().
  void forward(const BlockToeplitzOperator& op, std::span<const double> m,
               std::span<double> d, const precision::PrecisionConfig& config,
               comm::RankComms* comms = nullptr);

  /// m = F* d; mirror conventions of forward().
  void adjoint(const BlockToeplitzOperator& op, std::span<const double> d,
               std::span<double> m, const precision::PrecisionConfig& config,
               comm::RankComms* comms = nullptr);

  /// Execute b same-shape right-hand sides as ONE fused pipeline
  /// (single-rank; the executor behind every apply): the phase-1/5
  /// transposes loop over the RHS dimension, the phase-2/4 real FFTs
  /// run the cached plan with a runtime batch multiplier (b * n_s
  /// sequences in one launch), and phase 3 is a single multi-RHS
  /// strided batched GEMV that pays the operator's matrix traffic
  /// once per frequency block instead of once per request.  Results
  /// are bit-identical to b independent forward()/adjoint() calls for
  /// every precision config; b == 1 is the degenerate case.
  /// last_timings() afterwards holds the totals for the whole batch
  /// and last_batch_timings() the per-RHS shares.
  /// `pipeline` requests chunked dual-stream execution (bit-identical
  /// outputs, lower makespan — see BatchPipeline).
  void apply_batch(const BlockToeplitzOperator& op, ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   const BatchPipeline& pipeline = {});

  /// One operator's contiguous slice of a grouped batch: `rhs_count`
  /// right-hand sides applied through `op`.  Every group's operator
  /// must share this plan's local shape (n_t, n_m_local, n_d_local):
  /// same-shape requests from different tenants, or same-shape ranks.
  struct OperatorGroup {
    const BlockToeplitzOperator* op = nullptr;
    index_t rhs_count = 0;
  };

  /// Grouped batched apply: b right-hand sides spanning several
  /// same-shape operators run as ONE fused pipeline.  Phases 1/2/4/5
  /// are operator-agnostic and execute exactly as in the single-
  /// operator apply_batch; only phase 3 switches to the grouped
  /// multi-operator SBGEMV (blas::sbgemv_grouped), whose per-group
  /// arithmetic — and, for a single group, modelled cost — is
  /// identical to the flat multi-RHS kernel.  Inputs/outputs are
  /// ordered group by group: group g's RHS r sits at global index
  /// (sum of earlier groups' rhs_count) + r.  Results are
  /// bit-identical to per-operator apply_batch calls (and therefore
  /// to b independent applies) in every precision config, pipelined
  /// or serial (chunks split the RHS dimension across group
  /// boundaries; each chunk carries its groups' slice).
  void apply_batch(std::span<const OperatorGroup> groups,
                   ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   const BatchPipeline& pipeline = {});

  /// Receives the un-reduced phase-5 partial output in the phase-5
  /// precision (exactly one pointer must be set, matching the
  /// config's phase-5 precision).  Used by the sequential
  /// LockstepCluster, which performs the tree reduction itself.
  struct PartialSink {
    float* f = nullptr;
    double* d = nullptr;
  };

  /// The b = 1 apply with the phase-5 partial (n_t x n_d_local, in
  /// the phase-5 precision) copied into `sink` in place of the
  /// reduction and final cast.
  void forward_partial(const BlockToeplitzOperator& op,
                       std::span<const double> m, const PartialSink& sink,
                       const precision::PrecisionConfig& config);

  /// Adjoint analogue; partial extent is n_t x n_m_local.
  void adjoint_partial(const BlockToeplitzOperator& op,
                       std::span<const double> d, const PartialSink& sink,
                       const precision::PrecisionConfig& config);

  /// Timings of the most recent apply (an apply_batch reports the
  /// whole batch's totals).
  const PhaseTimings& last_timings() const { return timings_; }

  /// Per-RHS attribution of the most recent apply's totals (size =
  /// the batch's RHS count, one share after a single-RHS apply;
  /// valid until the next apply).
  /// Phases 1/2/4/5 split evenly — every RHS is the same shape — but
  /// the SBGEMV phase splits by modelled work: the GEMV launch's time
  /// is shared across groups in proportion to each group's share of
  /// the modelled traffic (one matrix read per group + the group's
  /// vector traffic), then evenly within a group, so an RHS riding a
  /// large group is correctly attributed less matrix traffic than a
  /// singleton.  The shares always sum to last_timings().  With one
  /// group the split is exactly even.
  const std::vector<PhaseTimings>& last_batch_timings() const {
    return rhs_timings_;
  }

  /// Pipeline executions so far: +1 per forward/adjoint/partial apply
  /// and +1 per apply_batch REGARDLESS of its RHS count.  The serving
  /// layer's tests hook this to assert a coalesced batch costs one
  /// plan execution.
  std::int64_t executions() const { return executions_; }

 private:
  /// A workspace in both precisions, grown on demand (max-size
  /// semantics): get<D>() or get<F>() returns at least n elements.
  template <class D, class F>
  struct Dual {
    std::optional<device::device_vector<D>> d;
    std::optional<device::device_vector<F>> f;
    template <class T>
    T* get(device::Device& dev, index_t n) {
      auto& slot = [&]() -> auto& {
        if constexpr (std::is_same_v<T, D>) {
          return d;
        } else {
          static_assert(std::is_same_v<T, F>, "Dual holds D or F");
          return f;
        }
      }();
      if (!slot || slot->size() < n) slot.emplace(dev, n);
      return slot->data();
    }
  };
  using DualReal = Dual<double, float>;
  using DualComplex = Dual<cdouble, cfloat>;

  /// The stage executor behind every apply.  `comms` (grid stages)
  /// and `sink` (partial output) are set only by the single-RHS
  /// spellings.
  void execute(std::span<const OperatorGroup> groups, ApplyDirection direction,
               const precision::PrecisionConfig& config,
               std::span<const ConstVectorView> inputs,
               std::span<const VectorView> outputs,
               const BatchPipeline& pipeline, comm::RankComms* comms,
               const PartialSink* sink);

  void apply_single(const BlockToeplitzOperator& op, ApplyDirection direction,
                    std::span<const double> in, std::span<double> out,
                    const precision::PrecisionConfig& config,
                    comm::RankComms* comms, const PartialSink* sink);

  /// Cached real-FFT plan in precision S over the parameter-side
  /// (n_m_local) or sensor-side (n_d_local) sequences; built lazily.
  template <class S>
  fft::BatchedRealFft<S>& fft_plan(bool param_side);

  device::Device* dev_;
  device::Stream* stream_;
  LocalDims dims_;
  MatvecOptions options_;
  PhaseTimings timings_;
  std::vector<PhaseTimings> rhs_timings_;
  std::int64_t executions_ = 0;

  // FFT plans per precision, indexed by fft_plan's param_side.
  std::optional<fft::BatchedRealFft<double>> fft_d_[2];
  std::optional<fft::BatchedRealFft<float>> fft_f_[2];

  // Pipeline buffers (shared between directions, max-size semantics).
  DualReal bcast_;     ///< phase-1 staging copy/cast (broadcast payload)
  DualReal padded_;    ///< SOTI zero-padded real input (x L)
  DualComplex spec_;   ///< spectrum, space-outer (ns x n_f)
  DualComplex spec_t_; ///< spectrum, frequency-outer (n_f x ns)
  DualComplex ospec_t_;///< GEMV output spectrum, frequency-outer
  DualComplex ospec_;  ///< GEMV output spectrum, space-outer
  DualReal opad_;      ///< padded real output (x L)
  DualReal olocal_;    ///< unpadded TOSI partial output
  DualReal oreduce_;   ///< reduction receive buffer (group root)

  // Second spectrum workspace set for pipelined apply_batch: chunk i
  // uses set i % 2, so chunk i+1's FFT (stream A) writes while chunk
  // i's GEMV stage (stream B) still reads the other set.  Serial
  // applies only ever touch set 0 (the members above).
  DualComplex spec_alt_, spec_t_alt_, ospec_t_alt_, ospec_alt_;
  /// Lazily-created second stream for pipelined applies when the
  /// caller does not supply one (BatchPipeline::aux == nullptr).
  std::optional<device::Stream> owned_aux_;

  // ABFT verify workspaces (double-width regardless of the precision
  // config — see blas::SbgemvVerify::acc_t): per (frequency block,
  // RHS) checksum dots and magnitude estimates.  A single set
  // suffices even when pipelined: launches execute synchronously at
  // issue time, so stage 2 writes and consumes them within one call.
  std::optional<device::device_vector<cdouble>> chk_;
  std::optional<device::device_vector<double>> chk_scale_;
};

}  // namespace fftmv::core
