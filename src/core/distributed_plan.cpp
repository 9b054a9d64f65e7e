#include "core/distributed_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/fault.hpp"
#include "comm/tree_reduce.hpp"
#include "core/synthetic.hpp"

namespace fftmv::core {

namespace {

double view_width(const precision::PrecisionConfig& config, int phase) {
  return config.phase(phase) == precision::Precision::kSingle ? 4.0 : 8.0;
}

}  // namespace

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims, index_t ranks,
                                 std::span<const double> first_block_col)
    : ShardedOperator(dev, stream, dims, comm::ProcessGrid(ranks, 1),
                      comm::ProcessGrid(1, ranks), /*gathers_output=*/true,
                      first_block_col) {}

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims,
                                 const comm::ProcessGrid& grid,
                                 std::span<const double> first_block_col)
    : ShardedOperator(dev, stream, dims, grid, grid, /*gathers_output=*/false,
                      first_block_col) {}

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims,
                                 const comm::ProcessGrid& fwd_grid,
                                 const comm::ProcessGrid& adj_grid,
                                 bool gathers_output,
                                 std::span<const double> first_block_col)
    : dims_(dims),
      fwd_grid_(fwd_grid),
      adj_grid_(adj_grid),
      gathers_output_(gathers_output) {
  const auto make_op = [&](const LocalDims& local) {
    if (first_block_col.empty() || fwd_grid.size() == 1) {
      return std::make_shared<BlockToeplitzOperator>(dev, stream, local,
                                                     first_block_col);
    }
    return std::make_shared<BlockToeplitzOperator>(
        dev, stream, local, slice_first_block_col(dims, local, first_block_col));
  };
  // Both directions share a slice when they run on the same grid (a
  // process grid, or the one-rank output partition).
  const bool shared = fwd_grid.rows() == adj_grid.rows() &&
                      fwd_grid.cols() == adj_grid.cols();
  for (index_t r = 0; r < fwd_grid.size(); ++r) {
    fwd_dims_.push_back(LocalDims::for_rank(dims, fwd_grid, r));
    fwd_ops_.push_back(make_op(fwd_dims_.back()));
    if (shared) {
      adj_dims_.push_back(fwd_dims_.back());
      adj_ops_.push_back(fwd_ops_.back());
    } else {
      adj_dims_.push_back(LocalDims::for_rank(dims, adj_grid, r));
      adj_ops_.push_back(make_op(adj_dims_.back()));
    }
  }
}

std::size_t ShardedOperator::check(index_t rank) const {
  if (rank < 0 || rank >= ranks()) {
    throw std::out_of_range("ShardedOperator: rank out of range");
  }
  return static_cast<std::size_t>(rank);
}

void ShardedOperator::warm_spectrum_f(device::Stream& stream) {
  // A slice shared by both directions appears in both lists; the
  // second call hits the operator's cached copy.
  for (const auto& op : fwd_ops_) op->spectrum_f(stream);
  for (const auto& op : adj_ops_) op->spectrum_f(stream);
}

void ShardedOperator::warm_checksums(device::Stream& stream) {
  // Each list warms just its own direction (a slice shared by both
  // directions gets both).
  for (const auto& op : fwd_ops_) {
    op->checksum_d(stream, /*adjoint=*/false);
    op->checksum_f(stream, /*adjoint=*/false);
  }
  for (const auto& op : adj_ops_) {
    op->checksum_d(stream, /*adjoint=*/true);
    op->checksum_f(stream, /*adjoint=*/true);
  }
}

void DistributedMatvecPlan::validate_batch(
    const ShardedOperator& op, ApplyDirection direction,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs,
    std::span<const RankLane> lanes) const {
  if (inputs.empty()) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need at least one right-hand side");
  }
  if (outputs.size() != inputs.size()) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: inputs/outputs count mismatch");
  }
  const index_t ranks = op.ranks();
  if (static_cast<index_t>(lanes.size()) != ranks) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need one RankLane per shard rank");
  }
  for (index_t r = 0; r < ranks; ++r) {
    if (lanes[r].plan == nullptr) {
      throw std::invalid_argument("DistributedMatvecPlan: null rank plan");
    }
    if (!lanes[r].plan->dims().same_shape(op.rank_dims(direction, r))) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: rank plan dims do not match the shard");
    }
  }
  if (lanes[0].plan->stream().device().phantom()) return;
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const ProblemDims& dims = op.dims();
  const auto in_len = static_cast<std::size_t>(
      dims.n_t * (adjoint ? dims.n_d : dims.n_m));
  const auto out_len = static_cast<std::size_t>(
      dims.n_t * (adjoint ? dims.n_m : dims.n_d));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].size() != in_len) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: input span has wrong extent");
    }
    if (outputs[i].size() != out_len) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: output span has wrong extent");
    }
  }
}

comm::MatvecCollectives DistributedMatvecPlan::collectives(
    const ShardedOperator& op, ApplyDirection direction,
    const precision::PrecisionConfig& config, index_t b, CommMode mode) const {
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const comm::CommCostModel net(network_);
  const index_t nt = op.dims().n_t;
  // Per-RHS payloads.  The output partition broadcasts the whole input
  // and gathers the whole output; a process grid broadcasts each
  // rank's input slice and reduces its partial output, priced at rank
  // 0's (the block split's largest) slices.
  const LocalDims& local = op.gathers_output()
                               ? LocalDims::single_rank(op.dims())
                               : op.rank_dims(direction, 0);
  const index_t ns_in = adjoint ? local.n_d_local : local.n_m_local;
  const index_t ns_out = adjoint ? local.n_m_local : local.n_d_local;
  const double in_bytes = static_cast<double>(nt * ns_in) *
                          view_width(config, precision::kPhasePad);
  const double out_bytes = static_cast<double>(nt * ns_out) *
                           view_width(config, precision::kPhaseUnpad);
  const auto price = [&](double rhs) {
    if (op.gathers_output()) {
      return net.rank_group_collectives(op.ranks(), rhs * in_bytes,
                                        rhs * out_bytes);
    }
    const comm::ProcessGrid& grid = op.grid(direction);
    return net.matvec_collectives(grid.rows(), grid.cols(), adjoint,
                                  rhs * in_bytes, rhs * out_bytes);
  };
  // Batched mode moves the whole batch's payload in ONE broadcast and
  // ONE reduction; per-request mode (the ablation) pays the alpha
  // terms b times.
  switch (mode) {
    case CommMode::kBatched:
      return price(static_cast<double>(b));
    case CommMode::kPerRequest: {
      const auto per = price(1.0);
      return {static_cast<double>(b) * per.broadcast_s,
              static_cast<double>(b) * per.reduce_s};
    }
    case CommMode::kNone:
      break;
  }
  return {};
}

void DistributedMatvecPlan::apply_batch(
    const ShardedOperator& op, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs,
    std::span<const RankLane> lanes, CommMode mode, index_t pipeline_chunks,
    VerifyMode verify) {
  validate_batch(op, direction, inputs, outputs, lanes);
  const index_t b = static_cast<index_t>(inputs.size());
  const index_t ranks = op.ranks();

  if (ranks == 1) {
    // Degenerate placement: byte-for-byte the single-rank fused batch,
    // zero communication charged.
    FftMatvecPlan& plan = *lanes[0].plan;
    plan.apply_batch(op.rank_op(direction, 0), direction, config, inputs,
                     outputs,
                     BatchPipeline{pipeline_chunks, lanes[0].aux, verify});
    timings_ = plan.last_timings();
    rhs_timings_ = plan.last_batch_timings();
    return;
  }

  device::Device& dev = lanes[0].plan->stream().device();
  const bool collectives_on = mode != CommMode::kNone;

  // Fault consult at the entry collective: a down rank aborts the
  // dispatch before any compute or communication is charged, so the
  // caller can re-dispatch in CommMode::kNone with bit-identical
  // results.
  if (device::FaultPlan* faults = dev.fault_plan();
      faults != nullptr && collectives_on) {
    const index_t down = faults->on_group_sync(ranks);
    if (down >= 0) throw comm::RankFailure(down, ranks);
  }
  const comm::MatvecCollectives coll =
      collectives(op, direction, config, b, mode);

  // The group's distinct streams: equal-shaped ranks may share one
  // plan (and stream), which is charged each collective once.
  std::vector<device::Stream*> mains, streams;
  const auto add = [](std::vector<device::Stream*>& v, device::Stream* s) {
    if (s != nullptr && std::find(v.begin(), v.end(), s) == v.end()) {
      v.push_back(s);
    }
  };
  for (const auto& lane : lanes) add(mains, &lane.plan->stream());
  streams = mains;
  for (const auto& lane : lanes) add(streams, lane.aux);
  const auto latest = [&streams]() -> const device::Stream& {
    return **std::max_element(
        streams.begin(), streams.end(),
        [](const device::Stream* a, const device::Stream* c) {
          return a->now() < c->now();
        });
  };
  // Collectives are bulk-synchronous: every rank stream first catches
  // up to the group's latest clock (idle jump), then all are charged
  // the collective's duration together, staying in lockstep.
  const auto sync_group = [&]() {
    device::Event e;
    e.record(latest());
    for (device::Stream* s : streams) s->wait(e);
    return e.seconds();
  };
  const auto charge = [&mains](double seconds) {
    for (device::Stream* s : mains) s->advance(seconds);
  };

  // Without collectives the window is the survivor-local elapsed
  // clock: no sync, no charge.
  double t_start = latest().now();
  if (collectives_on) {
    t_start = sync_group();
    charge(coll.broadcast_s);
  }
  const bool partials_f = run_ranks(op, direction, config, inputs, lanes,
                                    pipeline_chunks, verify, dev.phantom());
  double t_end = latest().now();
  if (collectives_on) {
    sync_group();
    charge(coll.reduce_s);
    t_end = sync_group();
  }

  if (!dev.phantom()) {
    if (partials_f) {
      combine_outputs(op, direction, stage_f_, outputs);
    } else {
      combine_outputs(op, direction, stage_, outputs);
    }
  }

  // Group accounting: phase fields stay the ranks' summed busy time
  // (serial-equivalent), comm is the collective bill charged once, and
  // the makespan is the group's end-to-end window.
  timings_.comm = coll.total();
  timings_.makespan = t_end - t_start;
  const double comm_share = coll.total() / static_cast<double>(b);
  const double span_share = timings_.makespan / static_cast<double>(b);
  for (auto& share : rhs_timings_) {
    share.comm = comm_share;
    share.makespan = span_share;
  }
}

bool DistributedMatvecPlan::run_ranks(
    const ShardedOperator& op, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs, std::span<const RankLane> lanes,
    index_t pipeline_chunks, VerifyMode verify, bool phantom) {
  const index_t b = static_cast<index_t>(inputs.size());
  const auto ub = static_cast<std::size_t>(b);
  const index_t ranks = op.ranks();
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t nt = op.dims().n_t;
  const index_t ns_in = adjoint ? op.dims().n_d : op.dims().n_m;
  const comm::ProcessGrid& grid = op.grid(direction);
  // Reduction groups of one member (the output partition) write final
  // double outputs; larger groups write phase-5-precision partials.
  const bool partial = (adjoint ? grid.rows() : grid.cols()) > 1;
  const bool partial_f =
      partial && config.phase(precision::kPhaseUnpad) ==
                     precision::Precision::kSingle;

  timings_ = PhaseTimings{};
  rhs_timings_.assign(ub, PhaseTimings{});
  const auto ur = static_cast<std::size_t>(ranks);
  if (stage_.size() < ur) stage_.resize(ur);
  if (stage_f_.size() < ur) stage_f_.resize(ur);
  if (in_stage_.size() < ur) in_stage_.resize(ur);

  std::vector<ConstVectorView> rank_in(ub);
  std::vector<VectorView> rank_out(ub);
  for (index_t r = 0; r < ranks; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const LocalDims& local = op.rank_dims(direction, r);
    const index_t in_off = adjoint ? local.d_offset : local.m_offset;
    const index_t in_cnt = adjoint ? local.n_d_local : local.n_m_local;
    const index_t out_elems =
        nt * (adjoint ? local.n_m_local : local.n_d_local);

    // A rank whose slice spans the whole input dimension reads the
    // caller's vectors; otherwise its TOSI columns are sliced out.
    if (phantom || in_cnt == ns_in) {
      std::copy(inputs.begin(), inputs.end(), rank_in.begin());
    } else {
      auto& st = in_stage_[rr];
      st.resize(std::max(st.size(), static_cast<std::size_t>(b * nt * in_cnt)));
      for (index_t i = 0; i < b; ++i) {
        const double* src = inputs[static_cast<std::size_t>(i)].data();
        double* dst = st.data() + i * nt * in_cnt;
        for (index_t t = 0; t < nt; ++t) {
          std::copy(src + t * ns_in + in_off, src + t * ns_in + in_off + in_cnt,
                    dst + t * in_cnt);
        }
        rank_in[static_cast<std::size_t>(i)] = {
            dst, static_cast<std::size_t>(nt * in_cnt)};
      }
    }

    const auto grow = [&](auto& v) {
      const auto need = static_cast<std::size_t>(b * out_elems);
      if (!phantom && v.size() < need) v.resize(need);
      return phantom ? nullptr : v.data();
    };
    FftMatvecPlan& plan = *lanes[r].plan;
    const BatchPipeline pipe{pipeline_chunks, lanes[r].aux, verify};
    if (!partial) {
      double* out = grow(stage_[rr]);
      for (index_t i = 0; i < b; ++i) {
        rank_out[static_cast<std::size_t>(i)] =
            phantom ? VectorView{}
                    : VectorView{out + i * out_elems,
                                 static_cast<std::size_t>(out_elems)};
      }
      plan.apply_batch(op.rank_op(direction, r), direction, config, rank_in,
                       rank_out, pipe);
    } else {
      FftMatvecPlan::PartialSink sink;
      if (partial_f) {
        sink.f = grow(stage_f_[rr]);
      } else {
        sink.d = grow(stage_[rr]);
      }
      plan.apply_partial(op.rank_op(direction, r), direction, config, rank_in,
                         sink, pipe);
    }
    timings_ += plan.last_timings();
    const auto& shares = plan.last_batch_timings();
    for (std::size_t i = 0; i < ub; ++i) rhs_timings_[i] += shares[i];
  }
  return partial_f;
}

template <class T>
void DistributedMatvecPlan::combine_outputs(
    const ShardedOperator& op, ApplyDirection direction,
    const std::vector<std::vector<T>>& stage,
    std::span<const VectorView> outputs) const {
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const comm::ProcessGrid& grid = op.grid(direction);
  const index_t nt = op.dims().n_t;
  const index_t ns_out = adjoint ? op.dims().n_m : op.dims().n_d;
  // Forward partials combine across a grid row (the p_c ranks of each
  // row), adjoint partials down a grid column; member k of group g is
  // indexed as the communicator's row/column groups index their ranks.
  const index_t groups = adjoint ? grid.cols() : grid.rows();
  const index_t q = adjoint ? grid.rows() : grid.cols();
  const auto member = [&](index_t g, index_t k) {
    return adjoint ? grid.rank_of(k, g) : grid.rank_of(g, k);
  };
  std::vector<const T*> src(static_cast<std::size_t>(q));
  for (index_t g = 0; g < groups; ++g) {
    const LocalDims& local = op.rank_dims(direction, member(g, 0));
    const index_t offset = adjoint ? local.m_offset : local.d_offset;
    const index_t count = adjoint ? local.n_m_local : local.n_d_local;
    const index_t elems = nt * count;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      for (index_t k = 0; k < q; ++k) {
        src[static_cast<std::size_t>(k)] =
            stage[static_cast<std::size_t>(member(g, k))].data() +
            static_cast<index_t>(i) * elems;
      }
      double* out = outputs[i].data();
      for (index_t t = 0; t < nt; ++t) {
        for (index_t c = 0; c < count; ++c) {
          out[t * ns_out + offset + c] = static_cast<double>(
              comm::tree_sum_element(src.data(), q, t * count + c));
        }
      }
    }
  }
}

}  // namespace fftmv::core
