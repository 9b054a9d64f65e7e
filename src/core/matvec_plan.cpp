#include "core/matvec_plan.hpp"

#include <stdexcept>

#include "core/error_model.hpp"
#include "precision/convert.hpp"
#include "util/trace.hpp"

namespace fftmv::core {

using precision::Precision;
using precision::PrecisionConfig;

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& o) {
  pad += o.pad;
  fft += o.fft;
  sbgemv += o.sbgemv;
  ifft += o.ifft;
  unpad += o.unpad;
  comm += o.comm;
  makespan += o.makespan;
  return *this;
}

PhaseTimings& PhaseTimings::operator*=(double s) {
  pad *= s;
  fft *= s;
  sbgemv *= s;
  ifft *= s;
  unpad *= s;
  comm *= s;
  makespan *= s;
  return *this;
}

FftMatvecPlan::FftMatvecPlan(device::Device& dev, device::Stream& stream,
                             const LocalDims& dims, MatvecOptions options)
    : dev_(&dev), stream_(&stream), dims_(dims), options_(options) {
  dims_.global.validate();
}

namespace {

/// Invoke fn(Tag{}) with a float/double value tag for `p`.
template <class Fn>
void dispatch1(Precision p, Fn&& fn) {
  if (p == Precision::kDouble) {
    fn(double{});
  } else {
    fn(float{});
  }
}

/// Invoke fn(SrcTag{}, DstTag{}) for the given precision pair.
template <class Fn>
void dispatch2(Precision src, Precision dst, Fn&& fn) {
  dispatch1(src, [&](auto s) { dispatch1(dst, [&](auto d) { fn(s, d); }); });
}

index_t scalar_width(Precision p) {
  return p == Precision::kSingle ? 4 : 8;
}

}  // namespace

template <class S>
fft::BatchedRealFft<S>& FftMatvecPlan::fft_plan(bool param_side) {
  auto& slot = [&]() -> std::optional<fft::BatchedRealFft<S>>& {
    if constexpr (std::is_same_v<S, double>) {
      return fft_d_[param_side];
    } else {
      return fft_f_[param_side];
    }
  }();
  if (!slot) {
    slot.emplace(dims_.padded_length(),
                 param_side ? dims_.n_m_local : dims_.n_d_local);
  }
  return *slot;
}

void FftMatvecPlan::apply_single(const BlockToeplitzOperator& op,
                                 ApplyDirection direction,
                                 std::span<const double> in,
                                 std::span<double> out,
                                 const PrecisionConfig& config,
                                 comm::RankComms* comms,
                                 const PartialSink* sink) {
  const OperatorGroup group{&op, 1};
  const ConstVectorView inputs[] = {in};
  const VectorView outputs[] = {out};
  execute({&group, 1}, direction, config, inputs, outputs, {}, comms, sink);
}

void FftMatvecPlan::forward(const BlockToeplitzOperator& op,
                            std::span<const double> m, std::span<double> d,
                            const PrecisionConfig& config,
                            comm::RankComms* comms) {
  apply_single(op, ApplyDirection::kForward, m, d, config, comms, nullptr);
}

void FftMatvecPlan::adjoint(const BlockToeplitzOperator& op,
                            std::span<const double> d, std::span<double> m,
                            const PrecisionConfig& config,
                            comm::RankComms* comms) {
  apply_single(op, ApplyDirection::kAdjoint, d, m, config, comms, nullptr);
}

void FftMatvecPlan::forward_partial(const BlockToeplitzOperator& op,
                                    std::span<const double> m,
                                    const PartialSink& sink,
                                    const PrecisionConfig& config) {
  apply_single(op, ApplyDirection::kForward, m, {}, config, nullptr, &sink);
}

void FftMatvecPlan::adjoint_partial(const BlockToeplitzOperator& op,
                                    std::span<const double> d,
                                    const PartialSink& sink,
                                    const PrecisionConfig& config) {
  apply_single(op, ApplyDirection::kAdjoint, d, {}, config, nullptr, &sink);
}

void FftMatvecPlan::apply_batch(const BlockToeplitzOperator& op,
                                ApplyDirection direction,
                                const PrecisionConfig& config,
                                std::span<const ConstVectorView> inputs,
                                std::span<const VectorView> outputs,
                                const BatchPipeline& pipeline) {
  const OperatorGroup group{&op, static_cast<index_t>(inputs.size())};
  apply_batch({&group, 1}, direction, config, inputs, outputs, pipeline);
}

void FftMatvecPlan::apply_batch(std::span<const OperatorGroup> groups,
                                ApplyDirection direction,
                                const PrecisionConfig& config,
                                std::span<const ConstVectorView> inputs,
                                std::span<const VectorView> outputs,
                                const BatchPipeline& pipeline) {
  execute(groups, direction, config, inputs, outputs, pipeline, nullptr,
          nullptr);
}

void FftMatvecPlan::execute(std::span<const OperatorGroup> groups,
                            ApplyDirection direction,
                            const PrecisionConfig& config,
                            std::span<const ConstVectorView> inputs,
                            std::span<const VectorView> outputs,
                            const BatchPipeline& pipeline,
                            comm::RankComms* comms, const PartialSink* sink) {
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t b = static_cast<index_t>(inputs.size());
  if (b < 1) {
    throw std::invalid_argument("apply_batch: need at least one right-hand side");
  }
  if (outputs.size() != inputs.size()) {
    throw std::invalid_argument("apply_batch: inputs/outputs count mismatch");
  }
  if (groups.empty()) {
    throw std::invalid_argument("apply_batch: need at least one operator group");
  }
  index_t grouped_rhs = 0;
  for (const auto& g : groups) {
    if (g.op == nullptr || g.rhs_count < 1) {
      throw std::invalid_argument(
          "apply_batch: every group needs an operator and >= 1 RHS");
    }
    // Shape, not placement: a lockstep cluster drives every rank's
    // operator (same local shape, different offsets) through one plan.
    const LocalDims& od = g.op->dims();
    if (od.n_t() != dims_.n_t() || od.n_m_local != dims_.n_m_local ||
        od.n_d_local != dims_.n_d_local) {
      throw std::invalid_argument(
          "apply_batch: group operator dims do not match the plan");
    }
    grouped_rhs += g.rhs_count;
  }
  if (grouped_rhs != b) {
    throw std::invalid_argument(
        "apply_batch: group RHS counts do not sum to the input count");
  }

  const Precision p1 = config.phase(precision::kPhasePad);
  const Precision p2 = config.phase(precision::kPhaseFft);
  const Precision p3 = config.phase(precision::kPhaseSbgemv);
  const Precision p4 = config.phase(precision::kPhaseIfft);
  const Precision p5 = config.phase(precision::kPhaseUnpad);

  const index_t nt = dims_.n_t();
  const index_t L = dims_.padded_length();
  const index_t nf = dims_.num_frequencies();
  const index_t ns_in = adjoint ? dims_.n_d_local : dims_.n_m_local;
  const index_t ns_out = adjoint ? dims_.n_m_local : dims_.n_d_local;

  // Grid stages of the single-RHS spellings: the input is broadcast
  // from the root of `bcast` and the partial outputs are summed to the
  // root of `reduce`, each charged through the comm cost model (the
  // single source of truth shared with the fig4/serve scaling
  // harnesses and the serving layer's sharded dispatch).
  comm::GroupComm* bcast = nullptr;
  comm::GroupComm* reduce = nullptr;
  comm::MatvecCollectives coll;
  if (comms != nullptr) {
    if (dev_->phantom()) {
      throw std::logic_error("distributed apply is not supported on a phantom device");
    }
    bcast = adjoint ? &comms->grid_row : &comms->grid_col;
    reduce = adjoint ? &comms->grid_col : &comms->grid_row;
    coll = comm::CommCostModel(options_.network)
               .matvec_collectives(
                   comms->grid_col.size(), comms->grid_row.size(), adjoint,
                   static_cast<double>(nt * ns_in * scalar_width(p1)),
                   static_cast<double>(nt * ns_out * scalar_width(p5)));
  }
  const bool in_root = bcast == nullptr || bcast->rank() == 0;
  const bool out_root =
      sink == nullptr && (reduce == nullptr || reduce->rank() == 0);
  if (bcast != nullptr && bcast->size() < 2) bcast = nullptr;
  if (reduce != nullptr && reduce->size() < 2) reduce = nullptr;

  if (!dev_->phantom()) {
    for (index_t r = 0; r < b; ++r) {
      if (in_root && static_cast<index_t>(inputs[r].size()) != nt * ns_in) {
        throw std::invalid_argument("matvec: input span has wrong extent");
      }
      if (out_root && static_cast<index_t>(outputs[r].size()) != nt * ns_out) {
        throw std::invalid_argument("matvec: output span has wrong extent");
      }
    }
  }
  if (sink != nullptr &&
      (p5 == Precision::kDouble ? sink->d == nullptr : sink->f == nullptr)) {
    throw std::invalid_argument(
        "PartialSink pointer does not match the phase-5 precision");
  }

  // Pipeline-argument validation (before any state mutation, like
  // the span checks above: a throwing call must not perturb
  // executions() or the previous apply's timings).
  const index_t chunks =
      std::min<index_t>(std::max<index_t>(pipeline.chunks, 1), b);
  if (chunks > 1 && pipeline.aux != nullptr &&
      &pipeline.aux->device() != dev_) {
    throw std::invalid_argument(
        "apply_batch: pipeline aux stream is bound to a different device");
  }

  timings_ = PhaseTimings{};
  rhs_timings_.clear();
  ++executions_;
  const bool fuse = options_.fuse_casts;

  // ---- Chunked executor.  The batch's b RHS are split into `chunks`
  // contiguous chunks (serial execution is the chunks == 1 degenerate
  // case running every stage on the plan's own stream).  Per chunk,
  // three stages:
  //   stage 1 (stream A): per-RHS staging cast (+ grid broadcast) and
  //     fused transpose/pad into the RHS-outer padded buffer, then ONE
  //     batched real FFT over cb * ns_in sequences (runtime batch
  //     multiplier);
  //   stage 2 (stream B): Fourier reorder, grouped multi-RHS SBGEMV,
  //     reorder back — the dominant phase at paper scale;
  //   stage 3 (stream A): ONE batched inverse FFT + per-RHS fused
  //     unpad/transpose, then (+ grid reduce) the final cast into the
  //     caller's output views, or the copy into the partial sink.
  // Issue order software-pipelines the chunks — stage2(i) on B, then
  // stage1(i+1) on A, then stage3(i) on A — so chunk i's SBGEMV
  // overlaps chunk i+1's pad+FFT.  Cross-stream dependencies are
  // events: stage2(i) waits for stage1(i)'s FFT, stage3(i) waits for
  // stage2(i); the spectrum workspaces ping-pong on chunk parity so
  // stage1(i+1) never overwrites the set stage2(i) still reads, and
  // the remaining reuse hazards (set parity recurs at i+2) are
  // already ordered by stage3(i)'s wait on stream A.  Numerics are
  // bit-identical to the serial batch: chunks partition the RHS
  // dimension, every kernel's per-RHS arithmetic is unchanged, and
  // host execution order per buffer is dependency-ordered.
  device::Stream& sa = *stream_;
  device::Stream* sb = &sa;
  if (chunks > 1) {
    if (pipeline.aux != nullptr) {
      sb = pipeline.aux;
    } else {
      if (!owned_aux_) owned_aux_.emplace(*dev_);
      sb = &*owned_aux_;
    }
  }
  // ABFT verification state: per-config tolerances plus the shared
  // double-width checksum workspaces (sized for the largest chunk).
  const VerifyMode verify = pipeline.verify;
  VerifyTolerances vtol;
  if (verify != VerifyMode::kOff) {
    vtol = verify_tolerances(config, dims_, adjoint);
  }
  const double t_begin = sa.now();
  const index_t cmax = (b + chunks - 1) / chunks;
  if (verify != VerifyMode::kOff) {
    const index_t chk_elems = nf * cmax;
    if (!chk_ || chk_->size() < chk_elems) chk_.emplace(*dev_, chk_elems);
    if (!chk_scale_ || chk_scale_->size() < chk_elems) {
      chk_scale_.emplace(*dev_, chk_elems);
    }
  }
  const auto chunk_lo = [&](index_t i) { return (i * b) / chunks; };
  DualComplex* spec_set[2] = {&spec_, &spec_alt_};
  DualComplex* spec_t_set[2] = {&spec_t_, &spec_t_alt_};
  DualComplex* ospec_t_set[2] = {&ospec_t_, &ospec_t_alt_};
  DualComplex* ospec_set[2] = {&ospec_, &ospec_alt_};
  std::vector<device::Event> ev_fft(static_cast<std::size_t>(chunks));
  std::vector<device::Event> ev_gemv(static_cast<std::size_t>(chunks));
  double gemv_seconds = 0.0;

  // Per-phase device-clock trace spans: each stage's [t0, now()]
  // window on its stream's track, so a pipelined batch renders chunk
  // i's SBGEMV (stream B) actually overlapping chunk i+1's pad+FFT
  // (stream A).  Untracked streams (trace_tid < 0 — phantom probes,
  // ad-hoc streams) never emit.
  const auto trace_phase = [&](const device::Stream& s, const char* phase,
                               index_t i, index_t cb, double t0) {
    if (util::trace::enabled() && s.trace_tid() >= 0) {
      util::trace::complete_device(s.trace_tid(), phase, "phase", t0,
                                   s.now() - t0, {{"chunk", i}, {"rhs", cb}});
    }
  };

  const auto stage1 = [&](index_t i) {
    const index_t lo = chunk_lo(i), hi = chunk_lo(i + 1);
    const index_t cb = hi - lo;
    const std::size_t par = static_cast<std::size_t>(i % 2);
    double t0 = sa.now();
    double comm_s = 0.0;
    dispatch2(p1, p2, [&](auto tag1, auto tag2) {
      using S1 = decltype(tag1);
      using S2 = decltype(tag2);
      S2* dst_all = padded_.get<S2>(*dev_, cmax * ns_in * L);
      for (index_t r = lo; r < hi; ++r) {
        const ConstVectorView in = inputs[r];
        const S1* src = nullptr;
        if constexpr (std::is_same_v<S1, double>) src = in.data();
        // Staging copy/cast in the phase-1 precision, which is also the
        // broadcast payload.  Phantom devices still charge its time.
        if (!std::is_same_v<S1, double> || bcast != nullptr) {
          S1* bc = bcast_.get<S1>(*dev_, nt * ns_in);
          if (!in.empty() || dev_->phantom()) {
            if constexpr (std::is_same_v<S1, double>) {
              sa.copy(in.data(), bc, nt * ns_in);
            } else {
              precision::convert_array(sa, in.data(), bc, nt * ns_in);
            }
          }
          if (bcast != nullptr) {
            bcast->broadcast(bc, nt * ns_in, 0);
            sa.advance(coll.broadcast_s);
            comm_s += coll.broadcast_s;
          }
          src = bc;
        }
        S2* dst = dst_all + (r - lo) * ns_in * L;
        if (fuse || std::is_same_v<S1, S2>) {
          precision::transpose_pad_cast<S2>(sa, src, dst, nt, ns_in, L);
        } else {
          S1* tmp = padded_.get<S1>(*dev_, ns_in * L);
          precision::transpose_pad_cast<S1>(sa, src, tmp, nt, ns_in, L);
          precision::convert_array(sa, tmp, dst, ns_in * L);
        }
      }
    });
    trace_phase(sa, "pad", i, cb, t0);
    timings_.pad += sa.now() - t0 - comm_s;
    timings_.comm += comm_s;
    t0 = sa.now();
    dispatch1(p2, [&](auto tag2) {
      using S2 = decltype(tag2);
      using C2 = std::complex<S2>;
      auto& plan = fft_plan<S2>(/*param_side=*/!adjoint);
      const S2* padded = padded_.get<S2>(*dev_, cmax * ns_in * L);
      C2* spec = spec_set[par]->get<C2>(*dev_, cmax * ns_in * nf);
      plan.forward_on(sa, padded, L, spec, nf, /*batch_multiplier=*/cb);
      if (verify == VerifyMode::kParanoid) {
        plan.verify_parseval_on(sa, padded, L, spec, nf, cb, vtol.fft_forward,
                                "fft-parseval-forward");
      }
    });
    trace_phase(sa, "fft", i, cb, t0);
    timings_.fft += sa.now() - t0;
    ev_fft[static_cast<std::size_t>(i)].record(sa);
  };

  const auto stage2 = [&](index_t i) {
    const index_t lo = chunk_lo(i), hi = chunk_lo(i + 1);
    const index_t cb = hi - lo;
    const std::size_t par = static_cast<std::size_t>(i % 2);
    sb->wait(ev_fft[static_cast<std::size_t>(i)]);
    const double t0 = sb->now();
    dispatch2(p2, p3, [&](auto tag2, auto tag3) {
      using C2 = std::complex<decltype(tag2)>;
      using C3 = std::complex<decltype(tag3)>;
      const C2* spec = spec_set[par]->get<C2>(*dev_, cmax * ns_in * nf);
      C3* spec_t = spec_t_set[par]->get<C3>(*dev_, nf * cmax * ns_in);
      if (fuse || std::is_same_v<C2, C3>) {
        precision::transpose_cast<C3>(*sb, spec, spec_t, cb * ns_in, nf);
      } else {
        C2* tmp = spec_t_set[par]->get<C2>(*dev_, nf * cmax * ns_in);
        precision::transpose_cast<C2>(*sb, spec, tmp, cb * ns_in, nf);
        precision::convert_array(*sb, tmp, spec_t, nf * cb * ns_in);
      }
    });
    const double gemv_t0 = sb->now();
    dispatch1(p3, [&](auto tag3) {
      using C3 = std::complex<decltype(tag3)>;
      // Per-group operator-spectrum base pointers, sliced to this
      // chunk's RHS range [lo, hi): nothing else in the pipeline is
      // operator-specific, so this is the only stage that
      // distinguishes a grouped (cross-tenant) batch from a flat one.
      std::vector<blas::SbgemvGroup<C3>> gemv_groups;
      gemv_groups.reserve(groups.size());
      index_t g0 = 0;
      for (const auto& g : groups) {
        const index_t s = std::max(lo, g0);
        const index_t e = std::min(hi, g0 + g.rhs_count);
        g0 += g.rhs_count;
        if (s >= e) continue;
        const C3* spectrum;
        const C3* checksum = nullptr;
        if constexpr (std::is_same_v<C3, cdouble>) {
          spectrum = g.op->spectrum_d();
          if (verify != VerifyMode::kOff) {
            checksum = g.op->checksum_d(*sb, adjoint);
          }
        } else {
          spectrum = g.op->spectrum_f(*sb);
          if (verify != VerifyMode::kOff) {
            checksum = g.op->checksum_f(*sb, adjoint);
          }
        }
        gemv_groups.push_back({spectrum, e - s, checksum});
      }
      blas::SbgemvGroupedArgs<C3> args;
      args.base.op = adjoint ? blas::Op::C : blas::Op::N;
      args.base.m = dims_.n_d_local;
      args.base.n = dims_.n_m_local;
      args.base.alpha = C3(1);
      args.base.lda = dims_.n_d_local;
      args.base.stride_a = dims_.n_d_local * dims_.n_m_local;
      args.base.x = spec_t_set[par]->get<C3>(*dev_, nf * cmax * ns_in);
      args.base.stride_x = cb * ns_in;
      args.base.beta = C3(0);
      args.base.y = ospec_t_set[par]->get<C3>(*dev_, nf * cmax * ns_out);
      args.base.stride_y = cb * ns_out;
      args.base.batch = nf;
      args.rhs_stride_x = ns_in;
      args.rhs_stride_y = ns_out;
      args.groups = gemv_groups;
      blas::SbgemvVerify<C3> vreq;
      if (verify != VerifyMode::kOff) {
        vreq.enabled = true;
        vreq.checksum_out = chk_->data();
        vreq.scale_out = chk_scale_->data();
        vreq.tolerance = vtol.gemv;
      }
      blas::sbgemv_grouped(*sb, args, options_.gemv_policy, vreq);
    });
    gemv_seconds += sb->now() - gemv_t0;
    dispatch2(p3, p4, [&](auto tag3, auto tag4) {
      using C3 = std::complex<decltype(tag3)>;
      using C4 = std::complex<decltype(tag4)>;
      const C3* ospec_t = ospec_t_set[par]->get<C3>(*dev_, nf * cmax * ns_out);
      C4* ospec = ospec_set[par]->get<C4>(*dev_, cmax * ns_out * nf);
      if (fuse || std::is_same_v<C3, C4>) {
        precision::transpose_cast<C4>(*sb, ospec_t, ospec, nf, cb * ns_out);
      } else {
        C3* tmp = ospec_set[par]->get<C3>(*dev_, cmax * ns_out * nf);
        precision::transpose_cast<C3>(*sb, ospec_t, tmp, nf, cb * ns_out);
        precision::convert_array(*sb, tmp, ospec, cb * ns_out * nf);
      }
    });
    trace_phase(*sb, "sbgemv", i, cb, t0);
    timings_.sbgemv += sb->now() - t0;
    ev_gemv[static_cast<std::size_t>(i)].record(*sb);
  };

  const auto stage3 = [&](index_t i) {
    const index_t lo = chunk_lo(i), hi = chunk_lo(i + 1);
    const index_t cb = hi - lo;
    const std::size_t par = static_cast<std::size_t>(i % 2);
    sa.wait(ev_gemv[static_cast<std::size_t>(i)]);
    double t0 = sa.now();
    dispatch1(p4, [&](auto tag4) {
      using S4 = decltype(tag4);
      using C4 = std::complex<S4>;
      auto& plan = fft_plan<S4>(/*param_side=*/adjoint);
      const C4* ospec = ospec_set[par]->get<C4>(*dev_, cmax * ns_out * nf);
      S4* opad = opad_.get<S4>(*dev_, cmax * ns_out * L);
      plan.inverse_on(sa, ospec, nf, opad, L, /*batch_multiplier=*/cb);
      if (verify == VerifyMode::kParanoid) {
        plan.verify_parseval_on(sa, opad, L, ospec, nf, cb, vtol.fft_inverse,
                                "fft-parseval-inverse");
      }
    });
    trace_phase(sa, "ifft", i, cb, t0);
    timings_.ifft += sa.now() - t0;
    t0 = sa.now();
    double comm_s = 0.0;
    for (index_t r = lo; r < hi; ++r) {
      dispatch2(p4, p5, [&](auto tag4, auto tag5) {
        using S4 = decltype(tag4);
        using S5 = decltype(tag5);
        const S4* opad =
            opad_.get<S4>(*dev_, cmax * ns_out * L) + (r - lo) * ns_out * L;
        S5* olocal = olocal_.get<S5>(*dev_, nt * ns_out);
        if (fuse || std::is_same_v<S4, S5>) {
          precision::unpad_transpose_cast<S5>(sa, opad, olocal, nt, ns_out, L);
        } else {
          S4* tmp = olocal_.get<S4>(*dev_, nt * ns_out);
          precision::unpad_transpose_cast<S4>(sa, opad, tmp, nt, ns_out, L);
          precision::convert_array(sa, tmp, olocal, nt * ns_out);
        }
      });
      dispatch1(p5, [&](auto tag5) {
        using S5 = decltype(tag5);
        const S5* result = olocal_.get<S5>(*dev_, nt * ns_out);
        if (sink != nullptr) {
          S5* dst;
          if constexpr (std::is_same_v<S5, double>) {
            dst = sink->d;
          } else {
            dst = sink->f;
          }
          sa.copy(result, dst, nt * ns_out);
          return;
        }
        if (reduce != nullptr) {
          S5* recv = oreduce_.get<S5>(*dev_, nt * ns_out);
          reduce->reduce_sum(result, recv, nt * ns_out, 0);
          sa.advance(coll.reduce_s);
          comm_s += coll.reduce_s;
          result = recv;
        }
        const VectorView out = outputs[r];
        if (out_root && (!out.empty() || dev_->phantom())) {
          if constexpr (std::is_same_v<S5, double>) {
            sa.copy(result, out.data(), nt * ns_out);
          } else {
            precision::convert_array(sa, result, out.data(), nt * ns_out);
          }
        }
      });
    }
    trace_phase(sa, "unpad", i, cb, t0);
    timings_.unpad += sa.now() - t0 - comm_s;
    timings_.comm += comm_s;
  };

  stage1(0);
  for (index_t i = 0; i < chunks; ++i) {
    stage2(i);
    if (i + 1 < chunks) stage1(i + 1);
    stage3(i);
  }
  // Stream A waited on every stage-2 event, so its elapsed time IS
  // the two-stream makespan: overlapped time is credited as
  // max-over-streams, while the per-phase fields above carry the
  // busy-time sum (makespan == busy total iff chunks == 1).
  timings_.makespan = sa.now() - t_begin;

  // ---- Per-RHS attribution (last_batch_timings).  Phases 1/2/4/5,
  // the phase-3 reorders and the batch makespan do identical work per
  // RHS (one shape per batch) and split evenly (so the shares' phase
  // fields sum to the batch's busy phases and their makespans to the
  // batch makespan); the GEMV launch splits across groups in
  // proportion to each group's modelled traffic — one n_d x n_m
  // matrix read per group plus the group's (ns_in + ns_out) vector
  // elements per RHS, the nf and element-size factors cancelling —
  // then evenly within a group.  A singleton group therefore carries
  // its full matrix read while a b-wide group amortises its own over
  // b requests; with one group this reduces to the even split.
  const double db = static_cast<double>(b);
  const double mat_w = static_cast<double>(dims_.n_d_local) *
                       static_cast<double>(dims_.n_m_local);
  const double vec_w = static_cast<double>(ns_in + ns_out);
  double total_w = 0.0;
  for (const auto& g : groups) {
    total_w += mat_w + static_cast<double>(g.rhs_count) * vec_w;
  }
  PhaseTimings even = timings_;
  even.sbgemv = timings_.sbgemv - gemv_seconds;  // the two reorders
  even *= 1.0 / db;
  rhs_timings_.assign(static_cast<std::size_t>(b), even);
  std::size_t r0 = 0;
  for (const auto& g : groups) {
    const double group_w = mat_w + static_cast<double>(g.rhs_count) * vec_w;
    const double gemv_share =
        gemv_seconds * (group_w / total_w) / static_cast<double>(g.rhs_count);
    for (index_t r = 0; r < g.rhs_count; ++r) {
      rhs_timings_[r0 + static_cast<std::size_t>(r)].sbgemv += gemv_share;
    }
    r0 += static_cast<std::size_t>(g.rhs_count);
  }
}

}  // namespace fftmv::core
