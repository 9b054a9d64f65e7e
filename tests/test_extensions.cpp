// Tests for the artifact-workflow extensions: binary vector I/O (the
// -s flag), the matvec/host-I/O overlap driver (§4.2.2 closing
// remark), and mixed-precision iterative refinement ([9, 10]).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/sequence_driver.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "inverse/lti_system.hpp"
#include "inverse/refinement.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace fftmv {
namespace {

// ------------------------------------------------------------- io
class IoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fftmv_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoFixture, RoundTripPreservesBits) {
  util::Rng rng(1);
  std::vector<double> v(1000);
  util::fill_uniform_unrepresentable(rng, v.data(), 1000);
  const auto path = (dir_ / "vec.bin").string();
  util::save_vector(path, v);
  const auto back = util::load_vector(path);
  EXPECT_EQ(back, v);
}

TEST_F(IoFixture, EmptyVector) {
  const auto path = (dir_ / "empty.bin").string();
  util::save_vector(path, {});
  EXPECT_TRUE(util::load_vector(path).empty());
}

TEST_F(IoFixture, MissingFileThrows) {
  EXPECT_THROW(util::load_vector((dir_ / "nope.bin").string()),
               std::runtime_error);
}

TEST_F(IoFixture, BadMagicThrows) {
  const auto path = (dir_ / "bad.bin").string();
  std::ofstream(path) << "garbage that is not a vector file";
  EXPECT_THROW(util::load_vector(path), std::runtime_error);
}

TEST_F(IoFixture, TruncatedPayloadThrows) {
  const auto path = (dir_ / "trunc.bin").string();
  util::save_vector(path, std::vector<double>(64, 1.0));
  std::filesystem::resize_file(path, 64);  // chop the payload
  EXPECT_THROW(util::load_vector(path), std::runtime_error);
}

// -------------------------------------------------- sequence driver
struct DriverFixture : public ::testing::Test {
  device::Device dev{device::make_mi300x()};
  device::Stream stream{dev};
  core::ProblemDims dims{64, 4, 16};
  core::LocalDims local = core::LocalDims::single_rank(dims);
  std::vector<double> col = core::make_first_block_col(local, 5);
  core::BlockToeplitzOperator op{dev, stream, local, col};
  core::FftMatvecPlan plan{dev, stream, local};
};

TEST_F(DriverFixture, ProducesSameOutputsAsDirectCalls) {
  core::MatvecSequenceDriver driver(plan, op);
  std::vector<std::vector<double>> outputs;
  const index_t count = 4;
  auto gen = [&](index_t i, std::span<double> m) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    util::fill_uniform(rng, m.data(), static_cast<index_t>(m.size()));
  };
  auto consume = [&](index_t, std::span<const double> d) {
    outputs.emplace_back(d.begin(), d.end());
  };
  const auto report = driver.run_forward(count, gen, consume,
                                         precision::PrecisionConfig{});
  ASSERT_EQ(outputs.size(), static_cast<std::size_t>(count));
  EXPECT_EQ(report.applies, count);

  for (index_t i = 0; i < count; ++i) {
    std::vector<double> m(static_cast<std::size_t>(dims.n_t * dims.n_m));
    std::vector<double> d(static_cast<std::size_t>(dims.n_t * dims.n_d));
    gen(i, m);
    plan.forward(op, m, d, precision::PrecisionConfig{});
    EXPECT_EQ(outputs[static_cast<std::size_t>(i)], d) << "apply " << i;
  }
}

TEST_F(DriverFixture, OverlappedScheduleNeverSlower) {
  core::MatvecSequenceDriver driver(plan, op);
  auto gen = [&](index_t i, std::span<double> m) {
    util::Rng rng(static_cast<std::uint64_t>(i));
    util::fill_uniform(rng, m.data(), static_cast<index_t>(m.size()));
    // Simulated host-side cost (file I/O stand-in).
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  auto consume = [&](index_t, std::span<const double>) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  const auto report =
      driver.run_forward(6, gen, consume, precision::PrecisionConfig{});
  EXPECT_LE(report.overlapped_s, report.serialized_s);
  EXPECT_GT(report.overlap_speedup(), 1.0);
  EXPECT_GT(report.host_s, 0.0);
  EXPECT_GT(report.device_s, 0.0);
}

TEST_F(DriverFixture, ZeroHostCostMakesSchedulesConverge) {
  core::MatvecSequenceDriver driver(plan, op);
  auto gen = [&](index_t, std::span<double> m) {
    std::fill(m.begin(), m.end(), 0.25);
  };
  auto consume = [&](index_t, std::span<const double>) {};
  const auto report =
      driver.run_forward(3, gen, consume, precision::PrecisionConfig{});
  // With (near-)zero host time the overlapped schedule approaches the
  // pure device time.
  EXPECT_LT(report.overlapped_s, report.device_s * 1.5 + 1e-4);
}

// ------------------------------------------------------ refinement
TEST(Refinement, ReachesDoubleAccuracyWithMostlyMixedMatvecs) {
  const auto cfg = inverse::LtiConfig::with_uniform_sensors(32, 16, 4);
  inverse::AdvectionDiffusion1D system(cfg);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
  const auto local = core::LocalDims::single_rank(dims);
  core::BlockToeplitzOperator op(dev, stream, local,
                                 system.first_block_column());
  core::FftMatvecPlan plan(dev, stream, local);

  inverse::PriorModel prior;
  prior.n_m = cfg.n_m();
  prior.sigma = 1.0;
  prior.alpha = 1.0;
  inverse::NoiseModel noise;
  noise.sigma = 1e-2;

  inverse::HessianOperator hd(plan, op, prior, noise, precision::PrecisionConfig{});
  inverse::HessianOperator hm(plan, op, prior, noise,
                              precision::PrecisionConfig::parse("dssdd"));

  // Manufactured solution: b = H m_true.
  util::Rng rng(11);
  std::vector<double> m_true(static_cast<std::size_t>(hd.parameter_size()));
  for (auto& v : m_true) v = rng.uniform(-1, 1);
  std::vector<double> b(m_true.size());
  hd.apply(m_true, b);

  std::vector<double> m(m_true.size());
  const auto result =
      inverse::solve_with_refinement(hd, hm, b, m, 1e-11, 20, 1e-4, 200);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual_norm, 1e-11);
  // The heavy lifting ran in mixed precision.
  EXPECT_GT(result.mixed_matvecs, 4 * result.double_matvecs);
  // And the recovered solution matches the manufactured one to far
  // better than single precision alone could deliver.
  EXPECT_LT(blas::relative_l2_error(hd.parameter_size(), m.data(),
                                    m_true.data()),
            1e-8);
}

// The inner CG runs on r / ||r||, so scaling b by a power of two (exact
// in double) hands it bit-identical right-hand sides: every scaled
// solve takes the same inner and outer iterations as the unit one.
// Without the normalisation, b * 2^-120 drives the float phases into
// their subnormal range, and the inner CG stalls (hundreds of extra
// iterations, refinement out of outer loops).
TEST(Refinement, InnerSolveIsScaleInvariant) {
  const auto cfg = inverse::LtiConfig::with_uniform_sensors(32, 16, 4);
  inverse::AdvectionDiffusion1D system(cfg);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
  const auto local = core::LocalDims::single_rank(dims);
  core::BlockToeplitzOperator op(dev, stream, local,
                                 system.first_block_column());
  core::FftMatvecPlan plan(dev, stream, local);
  inverse::PriorModel prior;
  prior.n_m = cfg.n_m();
  inverse::NoiseModel noise;
  noise.sigma = 1e-2;
  inverse::HessianOperator hd(plan, op, prior, noise, precision::PrecisionConfig{});
  inverse::HessianOperator hm(plan, op, prior, noise,
                              precision::PrecisionConfig::parse("dssdd"));

  util::Rng rng(23);
  std::vector<double> b(static_cast<std::size_t>(hd.parameter_size()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> m(b.size());
  const auto unit = inverse::solve_with_refinement(hd, hm, b, m, 1e-11, 20, 1e-4, 200);
  EXPECT_TRUE(unit.converged);

  for (int exp : {-100, -120}) {
    std::vector<double> b_scaled(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) b_scaled[i] = std::ldexp(b[i], exp);
    const auto scaled =
        inverse::solve_with_refinement(hd, hm, b_scaled, m, 1e-11, 20, 1e-4, 200);
    EXPECT_TRUE(scaled.converged) << "b * 2^" << exp;
    EXPECT_EQ(scaled.inner_cg_iterations, unit.inner_cg_iterations) << "b * 2^" << exp;
    EXPECT_EQ(scaled.outer_iterations, unit.outer_iterations) << "b * 2^" << exp;
  }
}

TEST(Refinement, ZeroRhsTrivial) {
  const auto cfg = inverse::LtiConfig::with_uniform_sensors(16, 8, 2);
  inverse::AdvectionDiffusion1D system(cfg);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
  const auto local = core::LocalDims::single_rank(dims);
  core::BlockToeplitzOperator op(dev, stream, local,
                                 system.first_block_column());
  core::FftMatvecPlan plan(dev, stream, local);
  inverse::PriorModel prior;
  prior.n_m = cfg.n_m();
  inverse::NoiseModel noise;
  inverse::HessianOperator hd(plan, op, prior, noise, precision::PrecisionConfig{});
  inverse::HessianOperator hm(plan, op, prior, noise,
                              precision::PrecisionConfig::parse("dssdd"));
  std::vector<double> b(static_cast<std::size_t>(hd.parameter_size()), 0.0);
  std::vector<double> m(b.size(), 1.0);
  const auto result = inverse::solve_with_refinement(hd, hm, b, m);
  EXPECT_TRUE(result.converged);
  for (double v : m) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace fftmv
