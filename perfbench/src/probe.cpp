#include "probe.hpp"

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "blas/sbgemv.hpp"
#include "common.hpp"
#include "core/synthetic.hpp"
#include "fft/plan.hpp"
#include "precision/convert.hpp"

namespace perfbench {
namespace {

using namespace fftmv;

/// S1..S5 are the working precisions of phases 1..5 (config letters).
template <class S1, class S2, class S3, class S4, class S5>
LeafTimes probe_typed(device::Device& dev, const core::BlockToeplitzOperator& op,
                      const ProbeShape& shape, int reps, const std::string& tag,
                      std::uint64_t seed) {
  using C2 = std::complex<S2>;
  using C3 = std::complex<S3>;
  using C4 = std::complex<S4>;
  const auto& dims = op.dims();
  const bool adjoint = shape.direction == core::ApplyDirection::kAdjoint;
  const index_t nt = dims.n_t();
  const index_t L = dims.padded_length();
  const index_t nf = dims.num_frequencies();
  const index_t ns_in = adjoint ? dims.n_d_local : dims.n_m_local;
  const index_t ns_out = adjoint ? dims.n_m_local : dims.n_d_local;
  const index_t b = shape.rhs;
  const index_t chunks = std::clamp<index_t>(shape.chunks, 1, b);
  const index_t cmax = (b + chunks - 1) / chunks;
  const auto sz = [](index_t n) { return static_cast<std::size_t>(n); };

  device::Stream stream(dev);
  const std::vector<double> in = core::make_input_vector(b * nt * ns_in, seed);
  std::vector<S1> staged(sz(nt * ns_in));
  std::vector<S2> padded(sz(cmax * ns_in * L));
  std::vector<C2> spec(sz(cmax * ns_in * nf));
  std::vector<C3> spec_t(sz(nf * cmax * ns_in));
  std::vector<C3> ospec_t(sz(nf * cmax * ns_out));
  std::vector<C4> ospec(sz(cmax * ns_out * nf));
  std::vector<S4> opad(sz(cmax * ns_out * L));
  std::vector<S5> olocal(sz(nt * ns_out));
  std::vector<double> out(sz(nt * ns_out));
  const fft::BatchedRealFft<S2> fft_in(L, ns_in);
  const fft::BatchedRealFft<S4> fft_out(L, ns_out);
  const C3* matrix = nullptr;
  if constexpr (std::is_same_v<S3, double>) {
    matrix = op.spectrum_d();
  } else {
    matrix = op.spectrum_f(stream);
  }

  struct Acc {
    double host = 0.0;
    double model = 0.0;
  };
  std::vector<double> h_fwd, h_inv, h_gemv, h_prec;
  LeafTimes lt;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms up
    Acc fwd, inv, gemv, prec;
    const auto timed = [&](Acc& acc, const char* name, const char* cat,
                           auto&& launch) {
      const LayerSpan span(name, cat, rep, tag, rep);
      const auto t0 = Clock::now();
      const device::KernelTiming kt = launch();
      acc.host += seconds_since(t0);
      acc.model += kt.seconds;
    };
    for (index_t c = 0; c < chunks; ++c) {
      const index_t lo = c * b / chunks;
      const index_t hi = (c + 1) * b / chunks;
      const index_t cb = hi - lo;
      for (index_t r = lo; r < hi; ++r) {
        timed(prec, "stage_pad", "precision", [&] {
          device::KernelTiming t{};
          const double* src_d = in.data() + r * nt * ns_in;
          const S1* src = nullptr;
          if constexpr (std::is_same_v<S1, double>) {
            src = src_d;
          } else {
            t = precision::convert_array(stream, src_d, staged.data(), nt * ns_in);
            src = staged.data();
          }
          t.seconds += precision::transpose_pad_cast<S2>(
                           stream, src, padded.data() + (r - lo) * ns_in * L, nt,
                           ns_in, L)
                           .seconds;
          return t;
        });
      }
      timed(fwd, "forward_on", "fft", [&] {
        return fft_in.forward_on(stream, padded.data(), L, spec.data(), nf, cb);
      });
      timed(prec, "reorder_in", "precision", [&] {
        return precision::transpose_cast<C3>(stream, spec.data(), spec_t.data(),
                                             cb * ns_in, nf);
      });
      // A single-RHS apply runs the plain strided batched GEMV; batched
      // applies run the grouped multi-RHS kernel.
      timed(gemv, b == 1 ? "sbgemv" : "sbgemv_grouped", "blas", [&] {
        const blas::SbgemvGroup<C3> group{matrix, cb, nullptr};
        blas::SbgemvGroupedArgs<C3> args;
        args.base.op = adjoint ? blas::Op::C : blas::Op::N;
        args.base.m = dims.n_d_local;
        args.base.n = dims.n_m_local;
        args.base.alpha = C3(1);
        args.base.a = matrix;
        args.base.lda = dims.n_d_local;
        args.base.stride_a = dims.n_d_local * dims.n_m_local;
        args.base.x = spec_t.data();
        args.base.stride_x = cb * ns_in;
        args.base.beta = C3(0);
        args.base.y = ospec_t.data();
        args.base.stride_y = cb * ns_out;
        args.base.batch = nf;
        args.rhs_stride_x = ns_in;
        args.rhs_stride_y = ns_out;
        args.groups = std::span<const blas::SbgemvGroup<C3>>(&group, 1);
        return b == 1 ? blas::sbgemv(stream, args.base) : blas::sbgemv_grouped(stream, args);
      });
      timed(prec, "reorder_out", "precision", [&] {
        return precision::transpose_cast<C4>(stream, ospec_t.data(), ospec.data(),
                                             nf, cb * ns_out);
      });
      timed(inv, "inverse_on", "fft", [&] {
        return fft_out.inverse_on(stream, ospec.data(), nf, opad.data(), L, cb);
      });
      for (index_t r = lo; r < hi; ++r) {
        timed(prec, "unpad", "precision", [&] {
          device::KernelTiming t = precision::unpad_transpose_cast<S5>(
              stream, opad.data() + (r - lo) * ns_out * L, olocal.data(), nt,
              ns_out, L);
          if constexpr (!std::is_same_v<S5, double>) {
            t.seconds += precision::convert_array(stream, olocal.data(), out.data(),
                                                  nt * ns_out)
                             .seconds;
          }
          return t;
        });
      }
    }
    if (rep < 0) continue;
    h_fwd.push_back(fwd.host * 1e3);
    h_inv.push_back(inv.host * 1e3);
    h_gemv.push_back(gemv.host * 1e3);
    h_prec.push_back(prec.host * 1e3);
    lt.model_fft_fwd_ms = fwd.model * 1e3;
    lt.model_fft_inv_ms = inv.model * 1e3;
    lt.model_gemv_ms = gemv.model * 1e3;
    lt.model_precision_ms = prec.model * 1e3;
  }
  lt.fft_fwd_ms = median(h_fwd);
  lt.fft_inv_ms = median(h_inv);
  lt.gemv_ms = median(h_gemv);
  lt.precision_ms = median(h_prec);
  const double c3 = static_cast<double>(sizeof(C3));
  lt.gemv_bytes = c3 * static_cast<double>(nf) *
                  (static_cast<double>(chunks * dims.n_d_local * dims.n_m_local) +
                   static_cast<double>(b * (ns_in + ns_out)));
  lt.fft_fwd_elems = static_cast<double>(b * ns_in * L);
  return lt;
}

}  // namespace

LeafTimes probe_leaves(fftmv::device::Device& dev,
                       const fftmv::core::BlockToeplitzOperator& op,
                       const ProbeShape& shape, int reps, const std::string& tag,
                       std::uint64_t seed) {
  const std::string c = shape.config.to_string();
  if (c == "ddddd") {
    return probe_typed<double, double, double, double, double>(dev, op, shape, reps,
                                                               tag, seed);
  }
  if (c == "dssdd") {
    return probe_typed<double, float, float, double, double>(dev, op, shape, reps,
                                                             tag, seed);
  }
  if (c == "sssss") {
    return probe_typed<float, float, float, float, float>(dev, op, shape, reps, tag,
                                                          seed);
  }
  throw std::invalid_argument("probe_leaves: unsupported config " + c);
}

ApplyTimes probe_apply(fftmv::core::FftMatvecPlan& plan,
                       const fftmv::core::BlockToeplitzOperator& op,
                       const ProbeShape& shape, int reps, const std::string& tag,
                       std::uint64_t seed) {
  const auto& dims = op.dims();
  const bool adjoint = shape.direction == core::ApplyDirection::kAdjoint;
  const index_t n_in = dims.n_t() * (adjoint ? dims.n_d_local : dims.n_m_local);
  const index_t n_out = dims.n_t() * (adjoint ? dims.n_m_local : dims.n_d_local);
  std::vector<std::vector<double>> ins, outs;
  std::vector<core::ConstVectorView> in_views;
  std::vector<core::VectorView> out_views;
  for (index_t r = 0; r < shape.rhs; ++r) {
    ins.push_back(core::make_input_vector(n_in, seed + static_cast<std::uint64_t>(r)));
    outs.emplace_back(static_cast<std::size_t>(n_out));
  }
  for (index_t r = 0; r < shape.rhs; ++r) {
    in_views.emplace_back(ins[static_cast<std::size_t>(r)]);
    out_views.emplace_back(outs[static_cast<std::size_t>(r)]);
  }
  std::vector<double> host;
  ApplyTimes at;
  for (int rep = -1; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    if (shape.rhs == 1) {
      const LayerSpan span(adjoint ? "adjoint" : "forward", "core", rep, tag, rep);
      if (adjoint) {
        plan.adjoint(op, ins[0], outs[0], shape.config);
      } else {
        plan.forward(op, ins[0], outs[0], shape.config);
      }
    } else {
      const LayerSpan span("apply_batch", "core", rep, tag, rep);
      plan.apply_batch(op, shape.direction, shape.config, in_views, out_views,
                       core::BatchPipeline{.chunks = shape.chunks});
    }
    if (rep >= 0) host.push_back(seconds_since(t0) * 1e3);
  }
  at.host_ms = median(host);
  at.timings = plan.last_timings();
  at.model_ms = at.timings.span() * 1e3;
  return at;
}

void report_leaf_metrics(Result& res, const ApplyTimes& single,
                         const ApplyTimes& batch, const LeafTimes& leaves) {
  res.set("fft.fwd_ms", leaves.fft_fwd_ms, "ms");
  res.set("fft.inv_ms", leaves.fft_inv_ms, "ms");
  res.set("fft.ns_per_elem", leaves.fft_fwd_ms * 1e6 / leaves.fft_fwd_elems, "ns");
  res.set("fft.host_over_model",
          (leaves.fft_fwd_ms + leaves.fft_inv_ms) /
              (leaves.model_fft_fwd_ms + leaves.model_fft_inv_ms),
          "x");
  res.set("blas.sbgemv_ms", leaves.gemv_ms, "ms");
  res.set("blas.gbps_computed", leaves.gemv_bytes / (leaves.gemv_ms * 1e-3) / 1e9,
          "GB/s");
  res.set("blas.host_over_model", leaves.gemv_ms / leaves.model_gemv_ms, "x");
  res.set("precision.ms", leaves.precision_ms, "ms");
  res.set("precision.host_over_model", leaves.precision_ms / leaves.model_precision_ms,
          "x");
  res.set("core.apply_ms", single.host_ms, "ms");
  res.set("core.apply_batch_ms", batch.host_ms, "ms");
  res.set("core.self_ms", batch.host_ms - leaves.fft_fwd_ms - leaves.fft_inv_ms -
                              leaves.gemv_ms,
          "ms");
  const auto& t = batch.timings;
  res.set("core.model_ms.pad", t.pad * 1e3, "ms");
  res.set("core.model_ms.fft", t.fft * 1e3, "ms");
  res.set("core.model_ms.sbgemv", t.sbgemv * 1e3, "ms");
  res.set("core.model_ms.ifft", t.ifft * 1e3, "ms");
  res.set("core.model_ms.unpad", t.unpad * 1e3, "ms");
}

}  // namespace perfbench
