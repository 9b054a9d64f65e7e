// Core matvec tests: the FFT-based pipeline against the dense
// block-triangular Toeplitz reference, the adjoint identity, all 32
// mixed-precision configurations, fused-vs-unfused casts, kernel
// policies, Bluestein vs power-of-two padding, timings, and phantom
// dry runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"

namespace fftmv::core {
namespace {

using precision::PrecisionConfig;

struct Problem {
  ProblemDims dims;
  std::vector<double> first_col;
  std::vector<double> m;
  std::vector<double> d;
};

Problem make_problem(index_t n_m, index_t n_d, index_t n_t, std::uint64_t seed) {
  Problem p;
  p.dims = {n_m, n_d, n_t};
  const auto local = LocalDims::single_rank(p.dims);
  p.first_col = make_first_block_col(local, seed);
  p.m = make_input_vector(n_t * n_m, seed + 1);
  p.d = make_input_vector(n_t * n_d, seed + 2);
  return p;
}

class MatvecFixture : public ::testing::Test {
 protected:
  device::Device dev_{device::make_mi300x()};
  device::Stream stream_{dev_};
};

// ------------------------------------------------- dense agreement
class MatvecSizes
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(MatvecSizes, ForwardMatchesDenseReference) {
  const auto [n_m, n_d, n_t] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto p = make_problem(n_m, n_d, n_t, 100);
  const auto local = LocalDims::single_rank(p.dims);

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d_fft(static_cast<std::size_t>(n_t * n_d));
  plan.forward(op, p.m, d_fft, PrecisionConfig{});

  std::vector<double> d_dense(d_fft.size());
  dense_forward(local, p.first_col, p.m, d_dense);
  EXPECT_LT(blas::relative_l2_error(n_t * n_d, d_fft.data(), d_dense.data()),
            1e-12)
      << "n_m=" << n_m << " n_d=" << n_d << " n_t=" << n_t;
}

TEST_P(MatvecSizes, AdjointMatchesDenseReference) {
  const auto [n_m, n_d, n_t] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto p = make_problem(n_m, n_d, n_t, 200);
  const auto local = LocalDims::single_rank(p.dims);

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> m_fft(static_cast<std::size_t>(n_t * n_m));
  plan.adjoint(op, p.d, m_fft, PrecisionConfig{});

  std::vector<double> m_dense(m_fft.size());
  dense_adjoint(local, p.first_col, p.d, m_dense);
  EXPECT_LT(blas::relative_l2_error(n_t * n_m, m_fft.data(), m_dense.data()),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatvecSizes,
    ::testing::Values(
        std::make_tuple<index_t, index_t, index_t>(1, 1, 1),
        std::make_tuple<index_t, index_t, index_t>(8, 3, 5),
        std::make_tuple<index_t, index_t, index_t>(33, 4, 16),
        std::make_tuple<index_t, index_t, index_t>(50, 2, 25),   // Bluestein
        std::make_tuple<index_t, index_t, index_t>(64, 8, 32),
        std::make_tuple<index_t, index_t, index_t>(5, 5, 40),    // n_d == n_m
        std::make_tuple<index_t, index_t, index_t>(3, 7, 12)),   // n_d > n_m
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "d" +
             std::to_string(std::get<1>(info.param)) + "t" +
             std::to_string(std::get<2>(info.param));
    });

// -------------------------------------------------- algebraic laws
TEST_F(MatvecFixture, AdjointIdentity) {
  // <F m, d> == <m, F* d> up to rounding.
  auto p = make_problem(40, 6, 24, 7);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> Fm(static_cast<std::size_t>(24 * 6));
  std::vector<double> Ftd(static_cast<std::size_t>(24 * 40));
  plan.forward(op, p.m, Fm, PrecisionConfig{});
  plan.adjoint(op, p.d, Ftd, PrecisionConfig{});

  const double lhs = blas::dot<double>(24 * 6, Fm.data(), p.d.data());
  const double rhs = blas::dot<double>(24 * 40, p.m.data(), Ftd.data());
  EXPECT_NEAR(lhs, rhs, 1e-10 * (std::abs(lhs) + 1.0));
}

TEST_F(MatvecFixture, Linearity) {
  auto p = make_problem(20, 3, 16, 9);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  auto m2 = make_input_vector(16 * 20, 77);
  std::vector<double> combo(m2.size());
  for (std::size_t i = 0; i < combo.size(); ++i) {
    combo[i] = 2.0 * p.m[i] - 0.5 * m2[i];
  }
  std::vector<double> f1(static_cast<std::size_t>(16 * 3)), f2(f1.size()),
      fc(f1.size());
  plan.forward(op, p.m, f1, PrecisionConfig{});
  plan.forward(op, m2, f2, PrecisionConfig{});
  plan.forward(op, combo, fc, PrecisionConfig{});
  for (std::size_t i = 0; i < fc.size(); ++i) {
    EXPECT_NEAR(fc[i], 2.0 * f1[i] - 0.5 * f2[i],
                1e-11 * (std::abs(fc[i]) + 1.0));
  }
}

TEST_F(MatvecFixture, ZeroInputGivesZeroOutput) {
  auto p = make_problem(16, 2, 8, 3);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> zero(static_cast<std::size_t>(8 * 16), 0.0);
  std::vector<double> out(static_cast<std::size_t>(8 * 2), 1.0);
  plan.forward(op, zero, out, PrecisionConfig{});
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-13);
}

TEST_F(MatvecFixture, RepeatApplicationsAreBitIdentical) {
  auto p = make_problem(24, 4, 20, 15);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> a(static_cast<std::size_t>(20 * 4)), b(a.size());
  const auto cfg = PrecisionConfig::parse("dssdd");
  plan.forward(op, p.m, a, cfg);
  plan.forward(op, p.m, b, cfg);
  EXPECT_EQ(a, b);
}

// --------------------------------------------- mixed precision (32)
TEST_F(MatvecFixture, AllThirtyTwoConfigsStayAccurate) {
  auto p = make_problem(48, 4, 32, 21);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> baseline(static_cast<std::size_t>(32 * 4));
  plan.forward(op, p.m, baseline, PrecisionConfig{});

  std::vector<double> out(baseline.size());
  for (const auto& cfg : PrecisionConfig::all_configs()) {
    plan.forward(op, p.m, out, cfg);
    const double err =
        blas::relative_l2_error(32 * 4, out.data(), baseline.data());
    if (cfg.all_double()) {
      EXPECT_EQ(err, 0.0);
    } else {
      // Any single-precision phase: error visible but far below the
      // single-precision cliff.
      EXPECT_LT(err, 1e-3) << cfg.to_string();
      EXPECT_GT(err, 1e-12) << cfg.to_string();
    }
  }
}

TEST_F(MatvecFixture, SingleSbgemvDominatesErrorOverSinglePad) {
  // §3.2.1: the SBGEMV term carries the n_m factor, so "dsdds"-style
  // configs with single SBGEMV must err more than single-pad-only.
  auto p = make_problem(64, 4, 32, 33);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> baseline(static_cast<std::size_t>(32 * 4));
  plan.forward(op, p.m, baseline, PrecisionConfig{});
  std::vector<double> out(baseline.size());

  plan.forward(op, p.m, out, PrecisionConfig::parse("sdddd"));
  const double err_pad =
      blas::relative_l2_error(32 * 4, out.data(), baseline.data());
  plan.forward(op, p.m, out, PrecisionConfig::parse("ddsdd"));
  const double err_gemv =
      blas::relative_l2_error(32 * 4, out.data(), baseline.data());
  EXPECT_GT(err_gemv, err_pad);
}

TEST_F(MatvecFixture, MantissaTrickMakesPadPhaseLossy) {
  // Without unrepresentable inputs a single-precision broadcast would
  // be error-free and bias the Pareto analysis (§4.2.1).  Our
  // synthetic inputs must therefore make "sdddd" differ from "ddddd".
  auto p = make_problem(16, 2, 8, 41);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> a(static_cast<std::size_t>(8 * 2)), b(a.size());
  plan.forward(op, p.m, a, PrecisionConfig{});
  plan.forward(op, p.m, b, PrecisionConfig::parse("sdddd"));
  EXPECT_NE(a, b);
}

// ------------------------------------------------ options / fusion
TEST_F(MatvecFixture, UnfusedCastsGiveSameNumbersSlower) {
  auto p = make_problem(32, 4, 16, 55);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);

  MatvecOptions fused_opt;
  MatvecOptions unfused_opt;
  unfused_opt.fuse_casts = false;

  device::Stream s1(dev_), s2(dev_);
  FftMatvecPlan fused(dev_, s1, local, fused_opt);
  FftMatvecPlan unfused(dev_, s2, local, unfused_opt);

  const auto cfg = PrecisionConfig::parse("dssdd");
  std::vector<double> a(static_cast<std::size_t>(16 * 4)), b(a.size());
  fused.forward(op, p.m, a, cfg);
  unfused.forward(op, p.m, b, cfg);
  EXPECT_EQ(a, b);
  EXPECT_LT(fused.last_timings().compute_total(),
            unfused.last_timings().compute_total());
}

TEST_F(MatvecFixture, KernelPoliciesAgreeNumericallyForAdjoint) {
  auto p = make_problem(40, 5, 20, 66);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);

  MatvecOptions ref_opt;
  ref_opt.gemv_policy = blas::GemvKernelPolicy::kReference;
  MatvecOptions opt_opt;
  opt_opt.gemv_policy = blas::GemvKernelPolicy::kOptimized;
  FftMatvecPlan ref_plan(dev_, stream_, local, ref_opt);
  FftMatvecPlan opt_plan(dev_, stream_, local, opt_opt);

  std::vector<double> a(static_cast<std::size_t>(20 * 40)), b(a.size());
  ref_plan.adjoint(op, p.d, a, PrecisionConfig{});
  opt_plan.adjoint(op, p.d, b, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(20 * 40, a.data(), b.data()), 1e-13);
}

// --------------------------------------------------------- timings
//
// Reduced-size problems are launch-overhead-bound on the real specs
// (microsecond kernels vs the paper's millisecond kernels), so the
// timing-*ratio* tests use an overhead-free MI300X variant: they
// assert the phase byte-ratio structure, which is scale-invariant.
device::DeviceSpec mi300x_no_overhead() {
  auto spec = device::make_mi300x();
  spec.launch_overhead_s = 0.0;
  spec.block_residency_floor_s = 0.0;
  return spec;
}

TEST(MatvecTimings, PopulatedAndSbgemvDominates) {
  // With the paper's aspect ratio (n_d << n_m) the SBGEMV phase
  // dominates the runtime (~92% in Figure 2).
  device::Device dev(mi300x_no_overhead());
  device::Stream stream(dev);
  auto p = make_problem(256, 16, 64, 77);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(64 * 16));
  plan.forward(op, p.m, d, PrecisionConfig{});
  const auto& t = plan.last_timings();
  EXPECT_GT(t.pad, 0.0);
  EXPECT_GT(t.fft, 0.0);
  EXPECT_GT(t.sbgemv, 0.0);
  EXPECT_GT(t.ifft, 0.0);
  EXPECT_GT(t.unpad, 0.0);
  EXPECT_EQ(t.comm, 0.0);  // single rank
  EXPECT_GT(t.sbgemv / t.compute_total(), 0.6);
}

TEST(MatvecTimings, MixedPrecisionIsFasterThanDouble) {
  device::Device dev(mi300x_no_overhead());
  device::Stream stream(dev);
  auto p = make_problem(256, 16, 64, 88);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(64 * 16));

  plan.forward(op, p.m, d, PrecisionConfig{});
  const double t_double = plan.last_timings().compute_total();
  // Warm the single-precision operator copy, then measure.
  plan.forward(op, p.m, d, PrecisionConfig::parse("dssdd"));
  plan.forward(op, p.m, d, PrecisionConfig::parse("dssdd"));
  const double t_mixed = plan.last_timings().compute_total();
  EXPECT_LT(t_mixed, t_double);
  EXPECT_GT(t_double / t_mixed, 1.3);
}

// --------------------------------------------------------- phantom
TEST(PhantomMatvec, PaperScaleDryRunMatchesReducedScaleStructure) {
  // A paper-scale (N_m=5000, N_d=100, N_t=1000) dry run must work on
  // this machine without allocating, and show the Figure-2 structure.
  util::ThreadPool& pool = util::ThreadPool::global();
  device::Device dev(device::make_mi300x(), &pool, /*phantom=*/true);
  device::Stream stream(dev);
  const ProblemDims dims{5000, 100, 1000};
  const auto local = LocalDims::single_rank(dims);
  BlockToeplitzOperator op(dev, stream, local, {});
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> empty;
  plan.forward(op, {}, empty, PrecisionConfig{});
  const auto& t = plan.last_timings();
  EXPECT_GT(t.sbgemv / t.compute_total(), 0.85);  // ~92% in the paper
  // Total in the single-digit-millisecond range on MI300X (Fig. 2).
  EXPECT_GT(t.compute_total(), 5e-4);
  EXPECT_LT(t.compute_total(), 2e-2);
}

TEST(PhantomMatvec, DistributedApplyRejected) {
  util::ThreadPool& pool = util::ThreadPool::global();
  device::Device dev(device::make_mi300x(), &pool, /*phantom=*/true);
  device::Stream stream(dev);
  const ProblemDims dims{64, 4, 16};
  const auto local = LocalDims::single_rank(dims);
  BlockToeplitzOperator op(dev, stream, local, {});
  FftMatvecPlan plan(dev, stream, local);
  comm::RankComms comms;  // dummy
  std::vector<double> empty;
  EXPECT_THROW(plan.forward(op, {}, empty, PrecisionConfig{}, &comms),
               std::logic_error);
}

// ------------------------------------------------------ validation
TEST_F(MatvecFixture, WrongExtentsThrow) {
  auto p = make_problem(16, 2, 8, 4);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> short_in(3), out(static_cast<std::size_t>(8 * 2));
  EXPECT_THROW(plan.forward(op, short_in, out, PrecisionConfig{}),
               std::invalid_argument);
  std::vector<double> short_out(3);
  EXPECT_THROW(plan.forward(op, p.m, short_out, PrecisionConfig{}),
               std::invalid_argument);
}

TEST_F(MatvecFixture, OperatorRejectsWrongColumnExtent) {
  const ProblemDims dims{16, 2, 8};
  const auto local = LocalDims::single_rank(dims);
  std::vector<double> wrong(10);
  EXPECT_THROW(BlockToeplitzOperator(dev_, stream_, local, wrong),
               std::invalid_argument);
}

TEST_F(MatvecFixture, PartialSinkPrecisionMismatchThrows) {
  auto p = make_problem(16, 2, 8, 4);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  FftMatvecPlan::PartialSink sink;  // no pointers set
  EXPECT_THROW(plan.forward_partial(op, p.m, sink, PrecisionConfig{}),
               std::invalid_argument);
}

// --------------------------------------------------- batched applies
struct BatchCase {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> batched;
  std::vector<std::vector<double>> independent;
};

/// Run b RHS through one apply_batch and through b independent
/// forward()/adjoint() calls on an identically-constructed plan.
BatchCase run_batch_vs_independent(device::Device& dev, device::Stream& stream,
                                   const Problem& p, index_t b, bool adjoint,
                                   const PrecisionConfig& config) {
  const auto local = LocalDims::single_rank(p.dims);
  const index_t in_len = p.dims.n_t * (adjoint ? p.dims.n_d : p.dims.n_m);
  const index_t out_len = p.dims.n_t * (adjoint ? p.dims.n_m : p.dims.n_d);

  BatchCase c;
  for (index_t r = 0; r < b; ++r) {
    c.inputs.push_back(make_input_vector(in_len, 900 + static_cast<std::uint64_t>(r)));
  }
  c.batched.assign(static_cast<std::size_t>(b),
                   std::vector<double>(static_cast<std::size_t>(out_len)));
  c.independent = c.batched;

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<ConstVectorView> in_views(c.inputs.begin(), c.inputs.end());
    std::vector<VectorView> out_views(c.batched.begin(), c.batched.end());
    plan.apply_batch(op,
                     adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward,
                     config, in_views, out_views);
  }
  {
    FftMatvecPlan plan(dev, stream, local);
    for (index_t r = 0; r < b; ++r) {
      auto& out = c.independent[static_cast<std::size_t>(r)];
      if (adjoint) {
        plan.adjoint(op, c.inputs[static_cast<std::size_t>(r)], out, config);
      } else {
        plan.forward(op, c.inputs[static_cast<std::size_t>(r)], out, config);
      }
    }
  }
  return c;
}

TEST_F(MatvecFixture, ApplyBatchBitIdenticalToIndependentAppliesDouble) {
  auto p = make_problem(40, 6, 24, 71);
  for (bool adjoint : {false, true}) {
    const auto c = run_batch_vs_independent(dev_, stream_, p, 4, adjoint,
                                            PrecisionConfig{});
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      EXPECT_EQ(c.batched[r], c.independent[r])
          << (adjoint ? "adjoint" : "forward") << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchMixedConfigsMatchDenseReference) {
  auto p = make_problem(32, 4, 20, 73);
  const auto local = LocalDims::single_rank(p.dims);
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    const auto c = run_batch_vs_independent(dev_, stream_, p, 3, false, cfg);
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      // Bit-identical to the single-RHS path in every config...
      EXPECT_EQ(c.batched[r], c.independent[r]) << cfg_str << " rhs " << r;
      // ...and within the config's tolerance of the dense reference.
      std::vector<double> dense(c.batched[r].size());
      dense_forward(local, p.first_col, c.inputs[r], dense);
      const double err = blas::relative_l2_error(
          static_cast<index_t>(dense.size()), c.batched[r].data(), dense.data());
      EXPECT_LT(err, cfg.all_double() ? 1e-12 : 1e-5) << cfg_str << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchSingleRhsDegeneratesToForward) {
  auto p = make_problem(24, 3, 16, 77);
  const auto c = run_batch_vs_independent(dev_, stream_, p, 1, false,
                                          PrecisionConfig::parse("dssdd"));
  EXPECT_EQ(c.batched[0], c.independent[0]);
}

TEST_F(MatvecFixture, ApplyBatchOddRhsCountsWork) {
  // Non-power-of-two b (a ragged final serving batch lands here).
  auto p = make_problem(20, 3, 12, 79);
  for (index_t b : {3, 5}) {
    const auto c =
        run_batch_vs_independent(dev_, stream_, p, b, true, PrecisionConfig{});
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      EXPECT_EQ(c.batched[r], c.independent[r]) << "b=" << b << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchCountsOneExecutionAndBeatsIndependentSimTime) {
  auto p = make_problem(48, 6, 32, 81);
  const auto local = LocalDims::single_rank(p.dims);
  const index_t b = 8;
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);

  std::vector<std::vector<double>> inputs, outputs(
      static_cast<std::size_t>(b),
      std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d)));
  for (index_t r = 0; r < b; ++r) {
    inputs.push_back(make_input_vector(p.dims.n_t * p.dims.n_m,
                                       500 + static_cast<std::uint64_t>(r)));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());

  FftMatvecPlan plan(dev_, stream_, local);
  EXPECT_EQ(plan.executions(), 0);
  const double sim0 = stream_.now();
  plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  const double batched_sim = stream_.now() - sim0;
  // One pipeline execution for the whole batch, with populated
  // per-phase timings.
  EXPECT_EQ(plan.executions(), 1);
  EXPECT_NEAR(plan.last_timings().compute_total(), batched_sim, 1e-12);
  EXPECT_GT(plan.last_timings().sbgemv, 0.0);

  // The fused pipeline must beat b sequential applies on simulated
  // time — the whole point of batching (launch amortisation + matrix
  // traffic paid once per frequency block).
  double independent_sim = 0.0;
  std::vector<double> out(outputs[0].size());
  for (index_t r = 0; r < b; ++r) {
    plan.forward(op, inputs[static_cast<std::size_t>(r)], out, PrecisionConfig{});
    independent_sim += plan.last_timings().compute_total();
  }
  EXPECT_EQ(plan.executions(), 1 + b);
  EXPECT_LT(batched_sim, independent_sim);
}

// ------------------------------------------- grouped batched applies
/// Run the given per-group RHS counts through ONE grouped apply_batch
/// (distinct operators, seeds 600+g) and through per-operator
/// apply_batch calls on an identically-constructed plan; both output
/// sets are returned for bit-compare.
struct GroupedCase {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> grouped;
  std::vector<std::vector<double>> per_tenant;
};

GroupedCase run_grouped_vs_per_tenant(device::Device& dev, device::Stream& stream,
                                      const ProblemDims& dims,
                                      const std::vector<index_t>& rhs_counts,
                                      bool adjoint,
                                      const PrecisionConfig& config) {
  const auto local = LocalDims::single_rank(dims);
  const index_t in_len = dims.n_t * (adjoint ? dims.n_d : dims.n_m);
  const index_t out_len = dims.n_t * (adjoint ? dims.n_m : dims.n_d);
  const auto direction =
      adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward;

  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops;
  std::vector<FftMatvecPlan::OperatorGroup> groups;
  GroupedCase c;
  index_t b = 0;
  for (std::size_t g = 0; g < rhs_counts.size(); ++g) {
    const auto col =
        make_first_block_col(local, 600 + static_cast<std::uint64_t>(g));
    ops.push_back(std::make_unique<BlockToeplitzOperator>(dev, stream, local, col));
    groups.push_back({ops.back().get(), rhs_counts[g]});
    for (index_t r = 0; r < rhs_counts[g]; ++r) {
      c.inputs.push_back(
          make_input_vector(in_len, 700 + static_cast<std::uint64_t>(b + r)));
    }
    b += rhs_counts[g];
  }
  c.grouped.assign(static_cast<std::size_t>(b),
                   std::vector<double>(static_cast<std::size_t>(out_len)));
  c.per_tenant = c.grouped;

  std::vector<ConstVectorView> in_views(c.inputs.begin(), c.inputs.end());
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<VectorView> out_views(c.grouped.begin(), c.grouped.end());
    plan.apply_batch(groups, direction, config, in_views, out_views);
  }
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<VectorView> out_views(c.per_tenant.begin(), c.per_tenant.end());
    std::size_t r0 = 0;
    for (const auto& g : groups) {
      const auto n = static_cast<std::size_t>(g.rhs_count);
      plan.apply_batch(*g.op, direction, config, {in_views.data() + r0, n},
                       {out_views.data() + r0, n});
      r0 += n;
    }
  }
  return c;
}

TEST_F(MatvecFixture, GroupedApplyBatchBitIdenticalToPerTenantApplies) {
  // Ragged groups (3 + 2 + 1), forward and adjoint, every precision
  // mix: the grouped dispatch must agree bit for bit with per-tenant
  // apply_batch calls (which are themselves bit-identical to
  // independent applies — the tested PR 3 contract).
  const auto dims = ProblemDims{32, 4, 20};
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (bool adjoint : {false, true}) {
      const auto c = run_grouped_vs_per_tenant(dev_, stream_, dims, {3, 2, 1},
                                               adjoint, cfg);
      for (std::size_t r = 0; r < c.grouped.size(); ++r) {
        EXPECT_EQ(c.grouped[r], c.per_tenant[r])
            << cfg_str << (adjoint ? " adjoint" : " forward") << " rhs " << r;
      }
    }
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchSingleGroupDegeneratesToApplyBatch) {
  const auto c = run_grouped_vs_per_tenant(dev_, stream_, ProblemDims{24, 3, 16},
                                           {4}, false, PrecisionConfig{});
  for (std::size_t r = 0; r < c.grouped.size(); ++r) {
    EXPECT_EQ(c.grouped[r], c.per_tenant[r]) << "rhs " << r;
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchMatchesDenseReferencePerOperator) {
  // Each RHS must be applied through ITS OWN group's operator — a
  // pointer mix-up would still pass grouped-vs-grouped comparisons,
  // but not the per-operator dense reference.
  const auto dims = ProblemDims{28, 4, 16};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  std::vector<std::vector<double>> cols;
  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops;
  std::vector<FftMatvecPlan::OperatorGroup> groups;
  for (std::size_t g = 0; g < 2; ++g) {
    cols.push_back(make_first_block_col(local, 810 + static_cast<std::uint64_t>(g)));
    ops.push_back(std::make_unique<BlockToeplitzOperator>(dev_, stream, local,
                                                          cols.back()));
    groups.push_back({ops.back().get(), 2});
  }
  std::vector<std::vector<double>> inputs, outputs(
      4, std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  for (std::uint64_t r = 0; r < 4; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m, 820 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, stream, local);
  plan.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<double> dense(outputs[r].size());
    dense_forward(local, cols[r / 2], inputs[r], dense);
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                      outputs[r].data(), dense.data()),
              1e-12)
        << "rhs " << r;
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchCountsOneExecutionAndAttributesTimings) {
  const auto dims = ProblemDims{32, 4, 20};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  const auto col_a = make_first_block_col(local, 830);
  const auto col_b = make_first_block_col(local, 831);
  BlockToeplitzOperator op_a(dev_, stream, local, col_a);
  BlockToeplitzOperator op_b(dev_, stream, local, col_b);
  // A singleton group next to a 5-wide group.
  const FftMatvecPlan::OperatorGroup groups[] = {{&op_a, 1}, {&op_b, 5}};

  std::vector<std::vector<double>> inputs, outputs(
      6, std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  for (std::uint64_t r = 0; r < 6; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m, 840 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, stream, local);
  const double sim0 = stream.now();
  plan.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  const double sim = stream.now() - sim0;
  EXPECT_EQ(plan.executions(), 1);

  // The per-RHS attribution covers the whole batch exactly...
  const auto& shares = plan.last_batch_timings();
  ASSERT_EQ(shares.size(), 6u);
  PhaseTimings sum;
  for (const auto& s : shares) sum += s;
  EXPECT_NEAR(sum.compute_total(), plan.last_timings().compute_total(), 1e-12);
  EXPECT_NEAR(sum.sbgemv, plan.last_timings().sbgemv, 1e-12);
  EXPECT_NEAR(plan.last_timings().compute_total(), sim, 1e-12);
  // ...splits the tenant-agnostic phases evenly...
  EXPECT_DOUBLE_EQ(shares[0].fft, shares[5].fft);
  EXPECT_DOUBLE_EQ(shares[0].unpad, shares[5].unpad);
  // ...and charges the singleton more SBGEMV than a 5-wide member
  // (its matrix read amortises over one request, not five).
  EXPECT_GT(shares[0].sbgemv, shares[1].sbgemv);
}

// ------------------------------------------ pipelined batched applies
/// Run b RHS through the serial apply_batch and through the chunked
/// dual-stream pipelined apply_batch on identically-constructed
/// plans; outputs must agree bit for bit.
struct PipelinedCase {
  std::vector<std::vector<double>> serial;
  std::vector<std::vector<double>> pipelined;
  PhaseTimings serial_timings;
  PhaseTimings pipelined_timings;
  double serial_sim = 0.0;
  double pipelined_sim = 0.0;
};

PipelinedCase run_pipelined_vs_serial(device::Device& dev, const Problem& p,
                                      index_t b, index_t chunks, bool adjoint,
                                      const PrecisionConfig& config) {
  const auto local = LocalDims::single_rank(p.dims);
  const index_t in_len = p.dims.n_t * (adjoint ? p.dims.n_d : p.dims.n_m);
  const index_t out_len = p.dims.n_t * (adjoint ? p.dims.n_m : p.dims.n_d);
  const auto direction =
      adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward;

  std::vector<std::vector<double>> inputs;
  for (index_t r = 0; r < b; ++r) {
    inputs.push_back(make_input_vector(in_len, 950 + static_cast<std::uint64_t>(r)));
  }
  PipelinedCase c;
  c.serial.assign(static_cast<std::size_t>(b),
                  std::vector<double>(static_cast<std::size_t>(out_len)));
  c.pipelined = c.serial;
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());

  device::Stream stream(dev);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  if (config.phase(precision::kPhaseSbgemv) == precision::Precision::kSingle) {
    op.spectrum_f(stream);  // warm the one-time cast so timings compare
  }
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<VectorView> out_views(c.serial.begin(), c.serial.end());
    const double t0 = stream.now();
    plan.apply_batch(op, direction, config, in_views, out_views);
    c.serial_sim = stream.now() - t0;
    c.serial_timings = plan.last_timings();
  }
  {
    device::Stream main(dev), aux(dev);
    FftMatvecPlan plan(dev, main, local);
    std::vector<VectorView> out_views(c.pipelined.begin(), c.pipelined.end());
    const double t0 = main.now();
    plan.apply_batch(op, direction, config, in_views, out_views, {chunks, &aux});
    c.pipelined_sim = main.now() - t0;
    c.pipelined_timings = plan.last_timings();
  }
  return c;
}

TEST_F(MatvecFixture, PipelinedApplyBatchBitIdenticalAcrossConfigs) {
  // Every precision mix, both directions, an odd b against an uneven
  // chunk count: the chunked dual-stream schedule must not perturb a
  // single bit relative to the serial batch.
  auto p = make_problem(32, 4, 20, 91);
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (bool adjoint : {false, true}) {
      for (index_t chunks : {2, 3}) {
        const auto c = run_pipelined_vs_serial(dev_, p, 5, chunks, adjoint, cfg);
        for (std::size_t r = 0; r < c.serial.size(); ++r) {
          EXPECT_EQ(c.pipelined[r], c.serial[r])
              << cfg_str << (adjoint ? " adjoint" : " forward") << " chunks "
              << chunks << " rhs " << r;
        }
      }
    }
  }
}

TEST_F(MatvecFixture, PipelinedApplyBatchChunkCountEdgeCases) {
  // chunks > b clamps to b (one RHS per chunk); chunks == b is the
  // fully-unrolled pipeline; both still bit-identical.
  auto p = make_problem(24, 3, 16, 93);
  for (index_t chunks : {4, 7, 9}) {
    const auto c = run_pipelined_vs_serial(dev_, p, 4, chunks, false,
                                           PrecisionConfig::parse("dssdd"));
    for (std::size_t r = 0; r < c.serial.size(); ++r) {
      EXPECT_EQ(c.pipelined[r], c.serial[r]) << "chunks " << chunks << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, PipelinedChunksOneDegeneratesToSerialExactly) {
  // chunks == 1 through the pipeline entry point IS the serial batch:
  // same outputs, same simulated time, same phase timings, and the
  // makespan equals the busy total.
  auto p = make_problem(28, 4, 16, 95);
  const auto c = run_pipelined_vs_serial(dev_, p, 6, 1, false,
                                         PrecisionConfig::parse("dssdd"));
  for (std::size_t r = 0; r < c.serial.size(); ++r) {
    EXPECT_EQ(c.pipelined[r], c.serial[r]) << "rhs " << r;
  }
  EXPECT_DOUBLE_EQ(c.pipelined_sim, c.serial_sim);
  EXPECT_DOUBLE_EQ(c.pipelined_timings.makespan, c.serial_timings.makespan);
  EXPECT_DOUBLE_EQ(c.pipelined_timings.sbgemv, c.serial_timings.sbgemv);
  EXPECT_NEAR(c.serial_timings.makespan, c.serial_timings.total(), 1e-15);
}

TEST_F(MatvecFixture, PipelinedMakespanBelowBusyTotalAndSharesSum) {
  // With real overlap the end-to-end makespan must drop below the
  // busy-time sum (the per-phase fields), the per-RHS attributions
  // must still sum to the batch totals — makespan included — and the
  // aux stream must never end ahead of the joined main stream.
  auto p = make_problem(48, 6, 32, 97);
  const auto local = LocalDims::single_rank(p.dims);
  const index_t b = 8;
  device::Stream main(dev_), aux(dev_);
  BlockToeplitzOperator op(dev_, main, local, p.first_col);
  std::vector<std::vector<double>> inputs, outputs(
      static_cast<std::size_t>(b),
      std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d)));
  for (index_t r = 0; r < b; ++r) {
    inputs.push_back(make_input_vector(p.dims.n_t * p.dims.n_m,
                                       970 + static_cast<std::uint64_t>(r)));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, main, local);
  const double t0 = main.now();
  plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views, {2, &aux});
  const auto& t = plan.last_timings();
  EXPECT_NEAR(t.makespan, main.now() - t0, 1e-15);
  EXPECT_LT(t.makespan, t.total());  // some SBGEMV/FFT overlap happened
  EXPECT_LE(aux.now(), main.now());  // the apply joins the pair
  PhaseTimings sum;
  for (const auto& share : plan.last_batch_timings()) sum += share;
  EXPECT_NEAR(sum.makespan, t.makespan, 1e-12);
  EXPECT_NEAR(sum.total(), t.total(), 1e-12);
  EXPECT_NEAR(sum.sbgemv, t.sbgemv, 1e-12);
}

TEST_F(MatvecFixture, PipelinedGroupedRaggedBitIdenticalToSerialGrouped) {
  // Ragged operator groups (3 + 2 + 1) split across chunks that cut
  // straight through group boundaries: each chunk's grouped SBGEMV
  // carries its slice of the group layout, and every RHS must still
  // ride its own operator bit-exactly.
  const auto dims = ProblemDims{32, 4, 20};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops;
  std::vector<FftMatvecPlan::OperatorGroup> groups;
  for (std::size_t g = 0; g < 3; ++g) {
    const auto col = make_first_block_col(local, 860 + static_cast<std::uint64_t>(g));
    ops.push_back(std::make_unique<BlockToeplitzOperator>(dev_, stream, local, col));
    groups.push_back({ops.back().get(), static_cast<index_t>(3 - g)});
  }
  const index_t b = 6;
  std::vector<std::vector<double>> inputs, serial_out(
      static_cast<std::size_t>(b),
      std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  auto pipelined_out = serial_out;
  for (index_t r = 0; r < b; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m,
                                       870 + static_cast<std::uint64_t>(r)));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  for (const char* cfg_str : {"ddddd", "dssdd"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    {
      FftMatvecPlan plan(dev_, stream, local);
      std::vector<VectorView> out_views(serial_out.begin(), serial_out.end());
      plan.apply_batch(groups, ApplyDirection::kForward, cfg, in_views, out_views);
    }
    for (index_t chunks : {2, 4}) {
      device::Stream main(dev_), aux(dev_);
      FftMatvecPlan plan(dev_, main, local);
      std::vector<VectorView> out_views(pipelined_out.begin(), pipelined_out.end());
      plan.apply_batch(groups, ApplyDirection::kForward, cfg, in_views,
                       out_views, {chunks, &aux});
      for (std::size_t r = 0; r < serial_out.size(); ++r) {
        EXPECT_EQ(pipelined_out[r], serial_out[r])
            << cfg_str << " chunks " << chunks << " rhs " << r;
      }
    }
  }
}

TEST_F(MatvecFixture, PipelinedAuxStreamMustMatchDevice) {
  auto p = make_problem(24, 3, 16, 99);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  device::Device other(device::make_mi355x());
  device::Stream foreign(other);
  std::vector<std::vector<double>> inputs, outputs(
      2, std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d)));
  for (std::uint64_t r = 0; r < 2; ++r) {
    inputs.push_back(make_input_vector(p.dims.n_t * p.dims.n_m, 990 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  const auto executions_before = plan.executions();
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                in_views, out_views, {2, &foreign}),
               std::invalid_argument);
  // Argument validation must not perturb the plan's accounting.
  EXPECT_EQ(plan.executions(), executions_before);
  // Without an aux stream the plan falls back to an internally-owned
  // second stream and still matches the serial result.
  auto serial = outputs;
  std::vector<VectorView> serial_views(serial.begin(), serial.end());
  plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   serial_views);
  plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views, {2, nullptr});
  EXPECT_EQ(outputs, serial);
}

TEST_F(MatvecFixture, SerialAppliesRecordMakespanEqualToTotal) {
  auto p = make_problem(24, 3, 16, 101);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  plan.forward(op, p.m, d, PrecisionConfig{});
  EXPECT_NEAR(plan.last_timings().makespan, plan.last_timings().total(), 1e-15);
  EXPECT_DOUBLE_EQ(plan.last_timings().span(), plan.last_timings().makespan);
}

TEST_F(MatvecFixture, GroupedApplyBatchValidates) {
  const auto dims = ProblemDims{16, 2, 8};
  const auto local = LocalDims::single_rank(dims);
  const auto col = make_first_block_col(local, 850);
  BlockToeplitzOperator op(dev_, stream_, local, col);
  BlockToeplitzOperator other_op(
      dev_, stream_, LocalDims::single_rank(ProblemDims{12, 2, 8}),
      make_first_block_col(LocalDims::single_rank(ProblemDims{12, 2, 8}), 851));
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> in(static_cast<std::size_t>(8 * 16));
  std::vector<double> out(static_cast<std::size_t>(8 * 2));
  const ConstVectorView in_views[] = {in};
  VectorView out_views[] = {out};

  // No groups at all.
  EXPECT_THROW(plan.apply_batch(std::span<const FftMatvecPlan::OperatorGroup>{},
                                ApplyDirection::kForward, PrecisionConfig{},
                                in_views, out_views),
               std::invalid_argument);
  // Group RHS counts must sum to the input count.
  const FftMatvecPlan::OperatorGroup wrong_sum[] = {{&op, 2}};
  EXPECT_THROW(plan.apply_batch(wrong_sum, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  // Null operator and non-positive counts are rejected.
  const FftMatvecPlan::OperatorGroup null_op[] = {{nullptr, 1}};
  EXPECT_THROW(plan.apply_batch(null_op, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  const FftMatvecPlan::OperatorGroup zero_rhs[] = {{&op, 0}, {&op, 1}};
  EXPECT_THROW(plan.apply_batch(zero_rhs, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  // Every group's operator must match the plan's shape.
  const FftMatvecPlan::OperatorGroup wrong_dims[] = {{&other_op, 1}};
  EXPECT_THROW(plan.apply_batch(wrong_dims, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
}

TEST_F(MatvecFixture, ApplyBatchValidatesSpans) {
  auto p = make_problem(16, 2, 8, 83);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> good_in(static_cast<std::size_t>(8 * 16));
  std::vector<double> good_out(static_cast<std::size_t>(8 * 2));
  std::vector<double> bad(3);

  const ConstVectorView in_views[] = {good_in};
  VectorView out_views[] = {good_out};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                {}, {}),
               std::invalid_argument);
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                in_views, {}),
               std::invalid_argument);
  const ConstVectorView bad_in[] = {bad};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                bad_in, out_views),
               std::invalid_argument);
  VectorView bad_out[] = {bad};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                in_views, bad_out),
               std::invalid_argument);
}

// ------------------------------- single-RHS spellings == b=1 batch
bool rel_near(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

/// Every PhaseTimings field equal within 1e-12 relative; `phase5` off
/// skips unpad/makespan (a partial sink copies where a full apply
/// casts to double).
void expect_timings_match(const PhaseTimings& a, const PhaseTimings& b,
                          const std::string& ctx, bool phase5 = true) {
  EXPECT_PRED2(rel_near, a.pad, b.pad) << ctx;
  EXPECT_PRED2(rel_near, a.fft, b.fft) << ctx;
  EXPECT_PRED2(rel_near, a.sbgemv, b.sbgemv) << ctx;
  EXPECT_PRED2(rel_near, a.ifft, b.ifft) << ctx;
  EXPECT_PRED2(rel_near, a.comm, b.comm) << ctx;
  if (phase5) {
    EXPECT_PRED2(rel_near, a.unpad, b.unpad) << ctx;
    EXPECT_PRED2(rel_near, a.makespan, b.makespan) << ctx;
  }
}

TEST(SingleRhsIsBatchOfOne, OutputsAndTimingsMatchForAllConfigs) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto p = make_problem(40, 6, 24, 131);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  op.spectrum_f(stream);  // warm the one-time cast outside every apply
  for (bool fuse : {true, false}) {
    MatvecOptions opts;
    opts.fuse_casts = fuse;
    // One stream per plan, so both clocks advance through identical
    // histories and their differences round identically.
    device::Stream s_single(dev), s_batch(dev);
    FftMatvecPlan single(dev, s_single, local, opts);
    FftMatvecPlan batch(dev, s_batch, local, opts);
    for (const auto& cfg : PrecisionConfig::all_configs()) {
      for (bool adjoint : {false, true}) {
        const std::string ctx = cfg.to_string() + (adjoint ? " F*" : " F") +
                                (fuse ? " fused" : " unfused");
        const auto& in = adjoint ? p.d : p.m;
        const auto out_len = static_cast<std::size_t>(
            p.dims.n_t * (adjoint ? p.dims.n_m : p.dims.n_d));
        std::vector<double> got(out_len), want(out_len);
        if (adjoint) {
          single.adjoint(op, in, got, cfg);
        } else {
          single.forward(op, in, got, cfg);
        }
        const PhaseTimings t_single = single.last_timings();
        const ConstVectorView ins[] = {in};
        const VectorView outs[] = {want};
        batch.apply_batch(op,
                          adjoint ? ApplyDirection::kAdjoint
                                  : ApplyDirection::kForward,
                          cfg, ins, outs);
        EXPECT_EQ(got, want) << ctx;
        expect_timings_match(t_single, batch.last_timings(), ctx);

        // The partial sink receives the batch's phase-5 partial: in the
        // phase-5 precision, before the final cast to double.
        const bool p5_single =
            cfg.phase(precision::kPhaseUnpad) == precision::Precision::kSingle;
        std::vector<double> part_d(out_len);
        std::vector<float> part_f(out_len);
        FftMatvecPlan::PartialSink sink;
        if (p5_single) {
          sink.f = part_f.data();
        } else {
          sink.d = part_d.data();
        }
        if (adjoint) {
          single.adjoint_partial(op, in, sink, cfg);
        } else {
          single.forward_partial(op, in, sink, cfg);
        }
        if (p5_single) {
          part_d.assign(part_f.begin(), part_f.end());
        }
        EXPECT_EQ(part_d, want) << ctx << " partial";
        expect_timings_match(single.last_timings(), batch.last_timings(),
                             ctx + " partial", /*phase5=*/false);
      }
    }
  }
}

TEST(SingleRhsIsBatchOfOne, PhantomPaperScaleTimingsMatch) {
  device::Device dev(device::make_mi300x(), &util::ThreadPool::global(),
                     /*phantom=*/true);
  device::Stream stream(dev);
  const auto local = LocalDims::single_rank(ProblemDims{5000, 100, 1000});
  BlockToeplitzOperator op(dev, stream, local, {});
  op.spectrum_f(stream);
  device::Stream s_single(dev), s_batch(dev);
  FftMatvecPlan single(dev, s_single, local);
  FftMatvecPlan batch(dev, s_batch, local);
  std::vector<double> empty;
  const ConstVectorView ins[] = {ConstVectorView{}};
  const VectorView outs[] = {VectorView{}};
  for (const auto& cfg : PrecisionConfig::all_configs()) {
    for (bool adjoint : {false, true}) {
      if (adjoint) {
        single.adjoint(op, {}, empty, cfg);
      } else {
        single.forward(op, {}, empty, cfg);
      }
      batch.apply_batch(
          op, adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward,
          cfg, ins, outs);
      expect_timings_match(single.last_timings(), batch.last_timings(),
                           cfg.to_string() + (adjoint ? " F*" : " F"));
    }
  }
}

}  // namespace
}  // namespace fftmv::core
