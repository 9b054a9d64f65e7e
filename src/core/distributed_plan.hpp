// Distributed batched matvec: one operator partitioned across a group
// of simulated ranks, with the collectives fused across the WHOLE
// right-hand-side batch.  DistributedMatvecPlan::apply_batch is the one
// executor that runs a matvec across ranks; every rank's compute is
// the unmodified rank-local FftMatvecPlan pipeline.
//
// Every apply runs on a p_r x p_c process grid (paper §2.4; grid rows
// split the sensors, grid columns the parameters).  Rank r slices its
// input columns out of the caller's vectors, runs its fused batch, and
// the partial outputs of each reduction group — the ranks of a grid
// row for the forward matvec, of a grid column for the adjoint — are
// summed by comm::tree_reduce in the communicator's pairwise-tree
// order, in the phase-5 precision, then cast to double and scattered
// into the caller's outputs.  A ShardedOperator comes in two
// partitions:
//
//   process grid (the paper's): one set of rank slices on the grid,
//     shared by both directions.  Reductions carry real partial sums,
//     so results round exactly as the threaded communicator's
//     broadcast/reduce run does (the Figure 4 error measurements), and
//     collectives are priced by CommCostModel::matvec_collectives.
//   output partition (the serving layer's): forward splits sensor rows
//     on an (R, 1) grid, adjoint splits parameter columns on (1, R),
//     so each direction's reduction groups have ONE member.  Every
//     rank reads the whole input, the phase-3 GEMV computes full-width
//     dot products for the rank's rows in exactly the single-rank
//     accumulation order, and the "reduction" of disjoint slices is a
//     copy (summing zero-padded partials would flip the sign bit of a
//     -0.0 output).  Outputs are therefore BIT-identical to the
//     single-rank apply in every precision config; the price is that
//     phases 1-2 run on every rank and each direction needs its own
//     operator slice, ~2x operator storage.  The group gathers the
//     slices to the caller, priced by
//     CommCostModel::rank_group_collectives.
//
// One caveat the tests pin down implicitly: output-partition
// bit-identity also needs the phase-3 GEMV kernel KIND to agree
// between the slice and the full operator, since the reference and
// optimized transpose kernels accumulate in different orders.
// Forward always dispatches the reference N kernel, and for the
// adjoint the reduction length (n_d, the GEMV's m) is unchanged by the
// split, so under kAuto's `m < n || m <= 1024` rule a flip needs
// n_d > 1024 — far outside the serve envelope (the paper's N_d is
// 100).  Forcing MatvecOptions::gemv_policy away from kAuto removes
// even that case.
//
// Comm fusion (multi-RHS batching's amortization applied to the
// network): CommMode::kBatched charges ONE broadcast of all b inputs
// and ONE reduction of all b outputs per batch; CommMode::kPerRequest
// charges b of each (the ablation bench/serve_scaling gates against);
// CommMode::kNone charges none (the degraded single-survivor mode).
// Compute is identical in every mode.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/process_grid.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/problem.hpp"

namespace fftmv::core {

/// How a distributed apply charges collective time: fused once per
/// batch (the production mode), once per right-hand side (the
/// ablation), or not at all — the degraded single-survivor mode, whose
/// lanes all run on one surviving stream (pair): no rank-sync fault
/// check, no collectives, the makespan is the survivor's elapsed
/// clock, and outputs are bit-identical to the collective modes.
enum class CommMode : unsigned char { kBatched, kPerRequest, kNone };

/// One operator sliced for a group of simulated ranks (see the header
/// comment for the two partitions).  Slicing happens in the time
/// domain (slice_first_block_col) before the setup FFT, and the FFT
/// of each block entry's time series is independent of its
/// neighbours, so a slice's spectrum entries are bit-identical to the
/// corresponding entries of the full operator's spectrum.  With one
/// rank both directions share one unsliced operator.
class ShardedOperator {
 public:
  /// The serving layer's output partition over `ranks`.
  /// `first_block_col` is the global time-outer (n_t, n_d, n_m)
  /// column; empty builds unbacked slices (phantom cost-model runs).
  /// Throws std::invalid_argument when `ranks` < 1 or exceeds either
  /// output dimension (LocalDims refuses a split with an empty slice).
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, index_t ranks,
                  std::span<const double> first_block_col);

  /// The paper's 2-D partition: rank r owns LocalDims::for_rank(dims,
  /// grid, r) in both directions.  Ragged splits are allowed; throws
  /// std::invalid_argument when a grid dimension exceeds the problem
  /// dimension it splits.
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, const comm::ProcessGrid& grid,
                  std::span<const double> first_block_col);

  index_t ranks() const { return fwd_grid_.size(); }
  const ProblemDims& dims() const { return dims_; }

  /// The grid an apply in `direction` runs on.
  const comm::ProcessGrid& grid(ApplyDirection direction) const {
    return direction == ApplyDirection::kForward ? fwd_grid_ : adj_grid_;
  }
  /// True for the output partition, whose disjoint output slices are
  /// gathered to the caller (priced by rank_group_collectives).
  bool gathers_output() const { return gathers_output_; }

  const LocalDims& rank_dims(ApplyDirection direction, index_t rank) const {
    return direction == ApplyDirection::kForward ? fwd_dims_[check(rank)]
                                                 : adj_dims_[check(rank)];
  }
  const BlockToeplitzOperator& rank_op(ApplyDirection direction,
                                       index_t rank) const {
    return direction == ApplyDirection::kForward ? *fwd_ops_[check(rank)]
                                                 : *adj_ops_[check(rank)];
  }

  /// Materialise every slice's single-precision spectrum (serve's
  /// registration-time warm, so the lazily-cast copy is never raced
  /// on the request path).
  void warm_spectrum_f(device::Stream& stream);

  /// Materialise every slice's ABFT checksum vectors (both precisions,
  /// the directions each slice serves) — the verify-mode analogue of
  /// warm_spectrum_f, so request-path applies never build checksums
  /// lazily under concurrency.
  void warm_checksums(device::Stream& stream);

 private:
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, const comm::ProcessGrid& fwd_grid,
                  const comm::ProcessGrid& adj_grid, bool gathers_output,
                  std::span<const double> first_block_col);

  std::size_t check(index_t rank) const;

  ProblemDims dims_;
  comm::ProcessGrid fwd_grid_, adj_grid_;
  bool gathers_output_ = false;
  std::vector<LocalDims> fwd_dims_, adj_dims_;
  // shared_ptr so a slice serving both directions is stored once.
  std::vector<std::shared_ptr<BlockToeplitzOperator>> fwd_ops_, adj_ops_;
};

/// Orchestrates one distributed apply_batch over borrowed per-rank
/// execution resources.  The plan owns only grow-only host staging
/// for the per-rank input slices and partial outputs; the per-rank
/// FftMatvecPlans and streams are the caller's (the serving layer
/// acquires them from its PlanCache, benches and tests construct their
/// own), so one DistributedMatvecPlan instance can serve any operator
/// of any shape.
class DistributedMatvecPlan {
 public:
  /// Rank r's borrowed resources: a plan whose local shape equals
  /// op.rank_dims(direction, r)'s (offsets aside, so equal-shaped
  /// ranks may share one plan and stream), driving its own stream (the
  /// plan's construction stream); `aux` optionally carries the chunked
  /// dual-stream pipeline (BatchPipeline) for the rank's slice.
  struct RankLane {
    FftMatvecPlan* plan = nullptr;
    device::Stream* aux = nullptr;
  };

  explicit DistributedMatvecPlan(comm::NetworkSpec network)
      : network_(network) {}

  /// Apply b right-hand sides through the distributed operator.  With
  /// op.ranks() == 1 this short-circuits to the single-rank
  /// apply_batch — zero communication charged, byte-for-byte the
  /// non-distributed path.  Otherwise, with collectives: every rank
  /// stream first syncs to the group's latest clock (collectives are
  /// bulk-synchronous), the input broadcast is charged on every
  /// distinct rank stream, each rank runs ONE fused batch over its
  /// slice, the streams sync again, the reduction is charged, and the
  /// partials are combined into the caller's outputs (see the header
  /// comment).  Any chunk count, ragged partitions included; outputs
  /// do not depend on `mode` or `pipeline_chunks`.
  /// Every extent is checked (non-phantom devices) before anything is
  /// charged.  Throws comm::RankFailure — before any compute or
  /// communication is charged — when the device's FaultPlan reports a
  /// rank of the group down at the entry collective sync (never in
  /// CommMode::kNone, which completes while the group outage lasts).
  void apply_batch(const ShardedOperator& op, ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   std::span<const RankLane> lanes,
                   CommMode mode = CommMode::kBatched,
                   index_t pipeline_chunks = 1,
                   VerifyMode verify = VerifyMode::kOff);

  /// Totals of the most recent apply: per-phase fields are the
  /// group's summed busy time (serial-equivalent work), `comm` the
  /// charged collective time and `makespan` the group's end-to-end
  /// simulated duration (max over rank streams).
  const PhaseTimings& last_timings() const { return timings_; }

  /// Per-RHS attribution: phase fields sum the ranks' own per-RHS
  /// shares, comm and makespan split evenly, so shares sum to
  /// last_timings() and spans sum to the group makespan.
  const std::vector<PhaseTimings>& last_batch_timings() const {
    return rhs_timings_;
  }

 private:
  /// Argument validation (lanes, rank-plan shapes, every extent).
  void validate_batch(const ShardedOperator& op, ApplyDirection direction,
                      std::span<const ConstVectorView> inputs,
                      std::span<const VectorView> outputs,
                      std::span<const RankLane> lanes) const;
  /// The batch's collective bill under `mode`.
  comm::MatvecCollectives collectives(const ShardedOperator& op,
                                      ApplyDirection direction,
                                      const precision::PrecisionConfig& config,
                                      index_t b, CommMode mode) const;
  /// Run every rank's slice apply into the staging buffers,
  /// accumulating timings_ and rhs_timings_ (comm/makespan left for
  /// the caller to fill).  Returns true when the outputs were staged
  /// as single-precision partials (stage_f_), false for stage_.
  bool run_ranks(const ShardedOperator& op, ApplyDirection direction,
                 const precision::PrecisionConfig& config,
                 std::span<const ConstVectorView> inputs,
                 std::span<const RankLane> lanes, index_t pipeline_chunks,
                 VerifyMode verify, bool phantom);
  /// Tree-reduce each reduction group's staged outputs, cast to
  /// double and scatter them into the caller's outputs.
  template <class T>
  void combine_outputs(const ShardedOperator& op, ApplyDirection direction,
                       const std::vector<std::vector<T>>& stage,
                       std::span<const VectorView> outputs) const;

  comm::NetworkSpec network_;
  PhaseTimings timings_;
  std::vector<PhaseTimings> rhs_timings_;
  /// Grow-only per-rank staging: sliced inputs, and the b outputs in
  /// double (also double partials) or single-precision partials.
  std::vector<std::vector<double>> in_stage_, stage_;
  std::vector<std::vector<float>> stage_f_;
};

}  // namespace fftmv::core
