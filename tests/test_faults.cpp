// Fault-tolerance tests: deterministic fault injection (FaultPlan
// scripted windows + seeded sampling), device-level fault surfacing
// (StreamFault, injected DeviceOutOfMemory, RankFailure), silent-data-
// corruption injection with ABFT checksum/Parseval detection and
// bit-identical recompute, serve-layer retry with bit-identical
// re-dispatch, per-request quarantine after a poisoned batch,
// sharded-group degradation and healing, bounded admission with load
// shedding, and the unified submit-after-shutdown contract.  Labelled
// `faults` in ctest.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "blas/sbgemv.hpp"
#include "comm/fault.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "fft/plan.hpp"
#include "precision/precision.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"

namespace fftmv::serve {
namespace {

using device::FaultPlan;
using device::FaultPlanOptions;

core::ProblemDims small_dims() { return {32, 4, 16}; }

struct ServedCase {
  core::ProblemDims dims;
  std::vector<double> col;
  TenantId tenant = 0;
};

ServedCase register_tenant(AsyncScheduler& s, const core::ProblemDims& dims,
                           std::uint64_t seed, int rank_group = 1) {
  ServedCase c;
  c.dims = dims;
  c.col = core::make_first_block_col(core::LocalDims::single_rank(dims), seed);
  c.tenant = s.add_tenant(dims, c.col, rank_group);
  return c;
}

PendingRequest make_request(TenantId tenant = 0) {
  PendingRequest req;
  req.tenant = tenant;
  req.enqueued = std::chrono::steady_clock::now();
  return req;
}

PendingRequest deadline_request(double offset_s, TenantId tenant = 0) {
  PendingRequest req = make_request(tenant);
  req.deadline = req.enqueued +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(offset_s));
  return req;
}

BatchKey batch_key(const core::ProblemDims& dims) {
  return BatchKey{core::LocalDims::single_rank(dims),
                  core::ApplyDirection::kForward, "ddddd", 0};
}

// Run the same request mix through a fault-free scheduler and return
// the outputs, for bit-identity assertions: a request's output
// depends only on (tenant operator, input, direction, config), never
// on batching, retries or the degraded path.
std::vector<std::vector<double>> clean_outputs(
    const ServeOptions& opts, const core::ProblemDims& dims,
    std::span<const double> col, int rank_group,
    const std::vector<std::vector<double>>& inputs) {
  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(dims, col, rank_group);
  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, in));
  }
  std::vector<std::vector<double>> outs;
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok());
    outs.push_back(std::move(r.output));
  }
  return outs;
}

// ------------------------------------------------------------ FaultPlan
TEST(FaultPlan, ScriptedWindowsFireAtExactIndices) {
  FaultPlan plan;
  plan.fail_kernel_launches(3, 5);
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(plan.on_kernel_launch());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false}));
  const auto stats = plan.stats();
  EXPECT_EQ(stats.kernel_launches, 7u);
  EXPECT_EQ(stats.kernel_faults, 2u);

  FaultPlan alloc_plan;
  alloc_plan.fail_allocs(0, 1);
  EXPECT_TRUE(alloc_plan.on_alloc());
  EXPECT_FALSE(alloc_plan.on_alloc());
  EXPECT_EQ(alloc_plan.stats().alloc_faults, 1u);
}

TEST(FaultPlan, ScriptedRankWindowRespectsGroupSize) {
  FaultPlan plan;
  plan.fail_rank(/*rank=*/3, /*begin=*/0, /*end=*/2);
  // Sync 0: the scripted rank is outside a 2-rank group, so the group
  // is healthy.  Sync 1: a 4-rank group sees rank 3 down.
  EXPECT_EQ(plan.on_group_sync(2), -1);
  EXPECT_EQ(plan.on_group_sync(4), 3);
  // Sync 2: past the window.
  EXPECT_EQ(plan.on_group_sync(4), -1);
  EXPECT_EQ(plan.stats().group_syncs, 3u);
  EXPECT_EQ(plan.stats().rank_faults, 1u);
}

TEST(FaultPlan, SampledFaultsReplayBitIdenticallyBySeed) {
  FaultPlanOptions opts;
  opts.seed = 42;
  opts.kernel_fault_rate = 0.25;
  FaultPlan a(opts), b(opts);
  std::vector<bool> pa, pb;
  for (int i = 0; i < 256; ++i) {
    pa.push_back(a.on_kernel_launch());
    pb.push_back(b.on_kernel_launch());
  }
  EXPECT_EQ(pa, pb);  // same seed -> bit-identical schedule
  EXPECT_GT(a.stats().kernel_faults, 0u);
  EXPECT_LT(a.stats().kernel_faults, 256u);

  opts.seed = 43;
  FaultPlan c(opts);
  std::vector<bool> pc;
  for (int i = 0; i < 256; ++i) pc.push_back(c.on_kernel_launch());
  EXPECT_NE(pa, pc);  // different seed -> different schedule
}

TEST(FaultPlan, SampledRankOutageLastsConfiguredSyncs) {
  FaultPlanOptions opts;
  opts.seed = 7;
  opts.rank_fault_rate = 1.0;  // every fresh sync samples an outage
  opts.rank_outage_syncs = 3;
  FaultPlan plan(opts);
  const index_t down = plan.on_group_sync(4);
  ASSERT_GE(down, 0);
  ASSERT_LT(down, 4);
  // The SAME rank stays down for the outage window.
  EXPECT_EQ(plan.on_group_sync(4), down);
  EXPECT_EQ(plan.on_group_sync(4), down);
  EXPECT_EQ(plan.on_group_sync(4), down);
}

TEST(FaultPlan, RejectsInvalidRates) {
  FaultPlanOptions opts;
  opts.kernel_fault_rate = 1.5;
  EXPECT_THROW(FaultPlan{opts}, std::invalid_argument);
  opts.kernel_fault_rate = 0.0;
  opts.rank_fault_rate = -0.1;
  EXPECT_THROW(FaultPlan{opts}, std::invalid_argument);
}

// --------------------------------------------- window/sampling composition
TEST(FaultPlan, OverlappingWindowsFaultOncePerUnionIndex) {
  FaultPlan plan;
  plan.fail_kernel_launches(2, 5);
  plan.fail_kernel_launches(4, 7);  // overlaps [4, 5) with the first
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(plan.on_kernel_launch());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, true,
                                      true, false}));
  // Index 4 is covered by BOTH windows but faults (and counts) once.
  EXPECT_EQ(plan.stats().kernel_launches, 8u);
  EXPECT_EQ(plan.stats().kernel_faults, 5u);
}

TEST(FaultPlan, WindowAndCertainSamplingComposeWithoutDoubleCount) {
  FaultPlanOptions opts;
  opts.kernel_fault_rate = 1.0;  // every index also samples a fault
  FaultPlan plan(opts);
  plan.fail_kernel_launches(0, 4);  // window and sampling agree on [0, 4)
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(plan.on_kernel_launch());
  EXPECT_EQ(plan.stats().kernel_launches, 8u);
  EXPECT_EQ(plan.stats().kernel_faults, 8u);  // one fault per index, not two
}

// ----------------------------------------------- fourth site: buffer writes
TEST(FaultPlan, BufferWindowFiresAtExactIndicesWithReplayableDraws) {
  FaultPlan a, b;
  a.fail_buffer_writes(1, 3);
  b.fail_buffer_writes(1, 3);
  std::vector<std::optional<std::uint64_t>> da, db;
  for (int i = 0; i < 5; ++i) {
    da.push_back(a.on_buffer_write());
    db.push_back(b.on_buffer_write());
  }
  EXPECT_FALSE(da[0].has_value());
  EXPECT_TRUE(da[1].has_value());
  EXPECT_TRUE(da[2].has_value());
  EXPECT_FALSE(da[3].has_value());
  EXPECT_FALSE(da[4].has_value());
  // The element draw is part of the schedule: an identical plan
  // replays not just WHERE faults fire but WHICH location they hit.
  EXPECT_EQ(da, db);
  // Distinct indices draw distinct corruption locations.
  EXPECT_NE(*da[1], *da[2]);
  const auto stats = a.stats();
  EXPECT_EQ(stats.buffer_writes, 5u);
  EXPECT_EQ(stats.buffer_faults, 2u);
}

TEST(FaultPlan, SampledBufferFaultsReplayBitIdenticallyBySeed) {
  FaultPlanOptions opts;
  opts.seed = 42;
  opts.buffer_fault_rate = 0.25;
  FaultPlan a(opts), b(opts);
  std::vector<std::optional<std::uint64_t>> pa, pb;
  for (int i = 0; i < 256; ++i) {
    pa.push_back(a.on_buffer_write());
    pb.push_back(b.on_buffer_write());
  }
  EXPECT_EQ(pa, pb);  // same seed -> same schedule AND same draws
  EXPECT_GT(a.stats().buffer_faults, 0u);
  EXPECT_LT(a.stats().buffer_faults, 256u);

  opts.seed = 43;
  FaultPlan c(opts);
  std::vector<std::optional<std::uint64_t>> pc;
  for (int i = 0; i < 256; ++i) pc.push_back(c.on_buffer_write());
  EXPECT_NE(pa, pc);  // different seed -> different schedule
}

// ------------------------------------------------- device fault surfacing
TEST(DeviceFaults, StreamLaunchThrowsThenRecoversBitIdentically) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank({16, 2, 8});
  const auto col = core::make_first_block_col(local, 5);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);
  const auto input = core::make_input_vector(local.n_t() * local.n_m_local, 6);
  std::vector<double> clean(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  const std::vector<core::ConstVectorView> ins{core::ConstVectorView(input)};
  const std::vector<core::VectorView> clean_outs{core::VectorView(clean)};
  plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, clean_outs);

  // Attach AFTER setup so the very next launch is counter 0.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_kernel_launches(0, 1);
  dev.set_fault_plan(faults);
  std::vector<double> out(clean.size());
  const std::vector<core::VectorView> outs{core::VectorView(out)};
  EXPECT_THROW(
      plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, outs),
      device::StreamFault);
  EXPECT_EQ(faults->stats().kernel_faults, 1u);
  // The retry (counter now past the window) recomputes bit-identically.
  plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, outs);
  EXPECT_EQ(out, clean);
}

TEST(DeviceFaults, InjectedAllocFaultThrowsDeviceOutOfMemory) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_allocs(0, 1);
  dev.set_fault_plan(faults);
  const auto local = core::LocalDims::single_rank({16, 2, 8});
  const auto col = core::make_first_block_col(local, 5);
  // Operator construction allocates its frequency spectrum eagerly:
  // the first tracked allocation faults, modelling setup-time OOM.
  EXPECT_THROW(core::BlockToeplitzOperator(dev, stream, local, col),
               device::DeviceOutOfMemory);
  EXPECT_EQ(faults->stats().alloc_faults, 1u);
  // The window passed: construction now succeeds.
  EXPECT_NO_THROW(core::BlockToeplitzOperator(dev, stream, local, col));
}

TEST(DeviceFaults, ZeroRatePlanIsExactNoOpWithAdvancingCounters) {
  // Two fresh device/stream pairs run the identical sequence; the
  // second carries a zero-rate, windowless FaultPlan from the start.
  // The plan must be invisible: outputs AND the stream clock
  // bit-identical (the hooks charge no modelled time), with only the
  // plan's counters showing it was consulted.
  const auto local = core::LocalDims::single_rank({16, 2, 8});
  const auto col = core::make_first_block_col(local, 5);
  const auto input = core::make_input_vector(local.n_t() * local.n_m_local, 6);
  const std::vector<core::ConstVectorView> ins{core::ConstVectorView(input)};
  auto faults = std::make_shared<FaultPlan>();

  const auto run = [&](const std::shared_ptr<FaultPlan>& plan_or_null,
                       std::vector<double>& out) {
    device::Device dev(device::make_mi300x());
    if (plan_or_null) dev.set_fault_plan(plan_or_null);
    device::Stream stream(dev);
    core::BlockToeplitzOperator op(dev, stream, local, col);
    core::FftMatvecPlan plan(dev, stream, local);
    const std::vector<core::VectorView> outs{core::VectorView(out)};
    plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, outs);
    return stream.now();
  };
  std::vector<double> clean(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  std::vector<double> out(clean.size());
  const double clock_clean = run(nullptr, clean);
  const double clock_plan = run(faults, out);
  EXPECT_EQ(out, clean);
  EXPECT_EQ(clock_plan, clock_clean);  // exact, not approximate
  const auto stats = faults->stats();
  EXPECT_GT(stats.kernel_launches, 0u);
  EXPECT_GT(stats.allocs, 0u);
  EXPECT_GT(stats.buffer_writes, 0u);
  EXPECT_EQ(stats.kernel_faults, 0u);
  EXPECT_EQ(stats.alloc_faults, 0u);
  EXPECT_EQ(stats.buffer_faults, 0u);
}

// ------------------------------------------------- ABFT detection (core)
TEST(AbftChecksum, DetectsInjectedCorruptionThenRecomputesBitIdentically) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(small_dims());
  const auto col = core::make_first_block_col(local, 7);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);
  const auto input = core::make_input_vector(local.n_t() * local.n_m_local, 8);
  const std::vector<core::ConstVectorView> ins{core::ConstVectorView(input)};
  std::vector<double> clean(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  const std::vector<core::VectorView> clean_outs{core::VectorView(clean)};
  core::BatchPipeline verify;
  verify.verify = core::VerifyMode::kChecksum;
  // Clean run WITH verification: no false positive, and the checksum
  // pass leaves the result untouched.
  plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, clean_outs,
                   verify);

  auto faults = std::make_shared<FaultPlan>();
  faults->fail_buffer_writes(0, 1);
  dev.set_fault_plan(faults);
  std::vector<double> out(clean.size());
  const std::vector<core::VectorView> outs{core::VectorView(out)};
  EXPECT_THROW(plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins,
                                outs, verify),
               device::SilentCorruption);
  EXPECT_EQ(faults->stats().buffer_faults, 1u);
  // The window passed: the recompute is clean and bit-identical.
  plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, outs, verify);
  EXPECT_EQ(out, clean);
}

TEST(AbftChecksum, VerifyOffLeavesInjectedCorruptionSilent) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(small_dims());
  const auto col = core::make_first_block_col(local, 7);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);
  const auto input = core::make_input_vector(local.n_t() * local.n_m_local, 8);
  const std::vector<core::ConstVectorView> ins{core::ConstVectorView(input)};
  std::vector<double> clean(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  const std::vector<core::VectorView> clean_outs{core::VectorView(clean)};
  plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, clean_outs);

  auto faults = std::make_shared<FaultPlan>();
  faults->fail_buffer_writes(0, 1);
  dev.set_fault_plan(faults);
  std::vector<double> out(clean.size());
  const std::vector<core::VectorView> outs{core::VectorView(out)};
  // This is the hazard the tentpole defends against: the apply
  // "succeeds" and the caller gets a wrong answer with no signal.
  EXPECT_NO_THROW(
      plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins, outs));
  EXPECT_EQ(faults->stats().buffer_faults, 1u);
  EXPECT_NE(out, clean);
}

// Property test over the full precision lattice: paranoid verification
// (GEMV checksums + per-chunk Parseval checks) must never trip on
// legitimate mixed-precision rounding, and must never perturb the
// result, for all 32 configs in both directions.
TEST(AbftChecksum, ParanoidZeroFalsePositivesAcrossAllPrecisionConfigs) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(small_dims());
  const auto col = core::make_first_block_col(local, 777);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);
  const auto fwd_in = core::make_input_vector(local.n_t() * local.n_m_local, 778);
  const auto adj_in = core::make_input_vector(local.n_t() * local.n_d_local, 779);
  core::BatchPipeline paranoid;
  paranoid.verify = core::VerifyMode::kParanoid;
  for (const auto& config : precision::PrecisionConfig::all_configs()) {
    for (const auto direction :
         {core::ApplyDirection::kForward, core::ApplyDirection::kAdjoint}) {
      const bool forward = direction == core::ApplyDirection::kForward;
      const auto& in = forward ? fwd_in : adj_in;
      const auto out_len = static_cast<std::size_t>(
          local.n_t() * (forward ? local.n_d_local : local.n_m_local));
      const std::vector<core::ConstVectorView> ins{core::ConstVectorView(in)};
      std::vector<double> ref(out_len), checked(out_len);
      const std::vector<core::VectorView> ref_outs{core::VectorView(ref)};
      const std::vector<core::VectorView> chk_outs{core::VectorView(checked)};
      plan.apply_batch(op, direction, config, ins, ref_outs);
      ASSERT_NO_THROW(
          plan.apply_batch(op, direction, config, ins, chk_outs, paranoid))
          << config.to_string() << (forward ? " forward" : " adjoint");
      EXPECT_EQ(checked, ref)
          << config.to_string() << (forward ? " forward" : " adjoint");
    }
  }
}

TEST(AbftParseval, EnergyInvariantCatchesSpectrumCorruption) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t length = 16;
  const index_t batch = 2;
  fft::BatchedRealFft<double> fft(length, batch);
  const auto time = core::make_input_vector(length * batch, 81);
  std::vector<std::complex<double>> spec(
      static_cast<std::size_t>(batch * fft.spectrum_size()));
  fft.forward(time.data(), length, spec.data(), fft.spectrum_size());
  const double tol = 1e-10;  // far above double rounding, far below a flip
  EXPECT_NO_THROW(fft.verify_parseval_on(stream, time.data(), length,
                                         spec.data(), fft.spectrum_size(),
                                         /*batch_multiplier=*/1, tol, "unit"));
  // Corrupt one bin of the SECOND sequence: the per-sequence energy
  // balance breaks and the pass must name the site it guards.
  spec[static_cast<std::size_t>(fft.spectrum_size()) + 3] *= 2.0;
  try {
    fft.verify_parseval_on(stream, time.data(), length, spec.data(),
                           fft.spectrum_size(), 1, tol, "unit");
    FAIL() << "corrupted spectrum passed the Parseval check";
  } catch (const device::SilentCorruption& e) {
    EXPECT_EQ(e.site(), "unit");
  }
}

// Every failing column counts, and the message names the LOWEST
// failing batch entry, whichever gridblock of the parallel verify
// launch reaches it first.
TEST(AbftChecksum, FailureRecordCountsAllAndReportsLowestEntry) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t n = 4, batch = 8;
  const auto a = core::make_input_vector(n * n * batch, 91);
  const auto x = core::make_input_vector(n * batch, 92);
  std::vector<double> y(static_cast<std::size_t>(n * batch));
  // Column-sum checksum rows, wrong in batch entries 5 and 2.
  std::vector<double> checksum(static_cast<std::size_t>(n * batch), 0.0);
  for (index_t b = 0; b < batch; ++b) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        checksum[static_cast<std::size_t>(b * n + j)] +=
            a[static_cast<std::size_t>(b * n * n + j * n + i)];
      }
    }
  }
  checksum[static_cast<std::size_t>(5 * n + 1)] += 1.0;
  checksum[static_cast<std::size_t>(2 * n + 3)] -= 1.0;

  blas::SbgemvGroupedArgs<double> ga;
  ga.base.op = blas::Op::N;
  ga.base.m = n;
  ga.base.n = n;
  ga.base.lda = n;
  ga.base.stride_a = n * n;
  ga.base.x = x.data();
  ga.base.stride_x = n;
  ga.base.y = y.data();
  ga.base.stride_y = n;
  ga.base.batch = batch;
  ga.rhs_stride_x = n;
  ga.rhs_stride_y = n;
  const blas::SbgemvGroup<double> group[] = {{a.data(), 1, checksum.data()}};
  ga.groups = group;
  std::vector<double> dots(static_cast<std::size_t>(batch));
  std::vector<double> scales(dots.size());
  blas::SbgemvVerify<double> verify;
  verify.enabled = true;
  verify.checksum_out = dots.data();
  verify.scale_out = scales.data();
  verify.tolerance = 1e-12;
  for (int rep = 0; rep < 8; ++rep) {
    try {
      blas::sbgemv_grouped(stream, ga, blas::GemvKernelPolicy::kAuto, verify);
      FAIL() << "wrong checksum rows passed verification";
    } catch (const device::SilentCorruption& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("batch entry 2, rhs 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("(2 failing column(s))"), std::string::npos) << msg;
    }
  }
}

// Sweep of seeded single top-exponent-bit flips in the phase-3 output
// (64x6x32, b = 4, checksum mode): a flip that changes the result must
// be detected — including the ones that drive it to Inf or NaN.  A
// flip the pipeline discards (the imaginary part of the DC or Nyquist
// bin) may pass, but then the output must be bit-identical to clean.
TEST(AbftChecksum, SeededSingleFlipSweepDetectsEveryOutputChange) {
  const core::ProblemDims dims{64, 6, 32};
  const auto local = core::LocalDims::single_rank(dims);
  const index_t b = 4;
  core::BatchPipeline checksum;
  checksum.verify = core::VerifyMode::kChecksum;
  int flips = 0, detected = 0, missed = 0;
  for (const char* cfg_str : {"ddddd", "dssdd"}) {
    const auto config = precision::PrecisionConfig::parse(cfg_str);
    for (const auto direction :
         {core::ApplyDirection::kForward, core::ApplyDirection::kAdjoint}) {
      const bool forward = direction == core::ApplyDirection::kForward;
      device::Device dev(device::make_mi300x());
      device::Stream stream(dev);
      core::BlockToeplitzOperator op(dev, stream, local,
                                     core::make_first_block_col(local, 61));
      core::FftMatvecPlan plan(dev, stream, local);
      const index_t in_len = dims.n_t * (forward ? dims.n_m : dims.n_d);
      const index_t out_len = dims.n_t * (forward ? dims.n_d : dims.n_m);
      std::vector<std::vector<double>> inputs, clean, out;
      for (index_t r = 0; r < b; ++r) {
        inputs.push_back(core::make_input_vector(in_len, 62 + static_cast<std::uint64_t>(r)));
      }
      clean.assign(static_cast<std::size_t>(b),
                   std::vector<double>(static_cast<std::size_t>(out_len)));
      out = clean;
      const std::vector<core::ConstVectorView> ins(inputs.begin(), inputs.end());
      const std::vector<core::VectorView> clean_outs(clean.begin(), clean.end());
      const std::vector<core::VectorView> outs(out.begin(), out.end());
      plan.apply_batch(op, direction, config, ins, clean_outs, checksum);
      for (std::uint64_t seed = 1; seed <= 250; ++seed) {
        FaultPlanOptions fo;
        fo.seed = seed;
        auto faults = std::make_shared<FaultPlan>(fo);
        faults->fail_buffer_writes(0, 1);
        dev.set_fault_plan(faults);
        ++flips;
        try {
          plan.apply_batch(op, direction, config, ins, outs, checksum);
          if (out != clean) ++missed;
        } catch (const device::SilentCorruption&) {
          ++detected;
        }
        ASSERT_EQ(faults->stats().buffer_faults, 1u);
      }
      dev.set_fault_plan(nullptr);
    }
  }
  EXPECT_GE(flips, 1000);
  EXPECT_EQ(missed, 0) << detected << " of " << flips << " flips detected";
  EXPECT_GT(detected, flips * 9 / 10);
}

// With verification on, a non-finite input trips the checksum compare
// on every attempt (the serve layer surfaces kSilentCorruption).
TEST(AbftChecksum, NonFiniteInputTripsChecksum) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(small_dims());
  core::BlockToeplitzOperator op(dev, stream, local,
                                 core::make_first_block_col(local, 7));
  core::FftMatvecPlan plan(dev, stream, local);
  core::BatchPipeline checksum;
  checksum.verify = core::VerifyMode::kChecksum;
  std::vector<double> out(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  const std::vector<core::VectorView> outs{core::VectorView(out)};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    auto m = core::make_input_vector(local.n_t() * local.n_m_local, 8);
    m[5] = bad;
    const std::vector<core::ConstVectorView> ins{core::ConstVectorView(m)};
    EXPECT_THROW(plan.apply_batch(op, core::ApplyDirection::kForward, {}, ins,
                                  outs, checksum),
                 device::SilentCorruption)
        << bad;
  }
}

// forward() is a b = 1 batch, so it meets the grouped SBGEMV's
// buffer-write hook: a scripted window corrupts its output.
TEST(AbftChecksum, BufferWriteWindowFiresOnForward) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(small_dims());
  core::BlockToeplitzOperator op(dev, stream, local,
                                 core::make_first_block_col(local, 7));
  core::FftMatvecPlan plan(dev, stream, local);
  const auto m = core::make_input_vector(local.n_t() * local.n_m_local, 8);
  std::vector<double> clean(static_cast<std::size_t>(local.n_t() * local.n_d_local));
  plan.forward(op, m, clean, {});

  auto faults = std::make_shared<FaultPlan>();
  faults->fail_buffer_writes(0, 1);
  dev.set_fault_plan(faults);
  std::vector<double> out(clean.size());
  plan.forward(op, m, out, {});
  EXPECT_EQ(faults->stats().buffer_writes, 1u);
  EXPECT_EQ(faults->stats().buffer_faults, 1u);
  EXPECT_NE(out, clean);
  plan.forward(op, m, out, {});  // the window has passed
  EXPECT_EQ(out, clean);
}

// -------------------------------------------------- serve retry + quarantine
TEST(ServeFaults, TransientFaultRetriesBitIdentically) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;  // generous: the 4 submits coalesce
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 1e-6;
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 4; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 100 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 9);
  const auto clean = clean_outputs(opts, small_dims(), col, 1, inputs);

  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col);
  // Warm the plan cache and chunk resolution so the faulted dispatch
  // exercises only the apply path.
  sched.submit(t, core::ApplyDirection::kForward, precision::PrecisionConfig{},
               inputs[0])
      .get();
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_kernel_launches(0, 1);  // first launch of the next batch
  sched.device().set_fault_plan(faults);

  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, in));
  }
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const auto res = futures[r].get();
    ASSERT_TRUE(res.ok()) << error_code_name(res.error);
    EXPECT_GE(res.retries, 1);  // the batch re-dispatched at least once
    EXPECT_EQ(res.output, clean[r]);  // bit-identical to the clean run
  }
  sched.drain();  // metrics record after fulfilment: wait them out
  const auto snap = sched.metrics();
  EXPECT_GE(snap.retries_attempted, 1);
  EXPECT_EQ(snap.retries_succeeded, 4);
  EXPECT_EQ(snap.failed, 0);
  EXPECT_EQ(faults->stats().kernel_faults, 1u);
}

TEST(ServeFaults, QuarantineIsolatesPoisonedRequest) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;
  opts.max_retries = 0;  // no batch retry budget: straight to quarantine
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 4; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 200 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 11);
  const auto clean = clean_outputs(opts, small_dims(), col, 1, inputs);

  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col);
  sched.submit(t, core::ApplyDirection::kForward, precision::PrecisionConfig{},
               inputs[0])
      .get();
  // Launch 0 fails the FUSED batch (budget 0 -> quarantine); launch 1
  // is the first launch of request 0's SOLO re-dispatch, so request 0
  // fails alone while requests 1-3 complete solo.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_kernel_launches(0, 2);
  sched.device().set_fault_plan(faults);

  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, in));
  }
  std::vector<MatvecResult> results;
  for (auto& f : futures) results.push_back(f.get());
  EXPECT_EQ(results[0].error, ErrorCode::kTransientDevice);
  EXPECT_GE(results[0].retries, 1);
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_TRUE(results[r].ok()) << "request " << r << ": "
                                 << error_code_name(results[r].error);
    EXPECT_EQ(results[r].output, clean[r]);  // companions bit-identical
  }
  sched.drain();  // metrics record after fulfilment: wait them out
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.failed, 1);
  EXPECT_EQ(snap.errors.at(ErrorCode::kTransientDevice), 1);
  EXPECT_EQ(snap.retries_succeeded, 3);
}

// ------------------------------------------- serve detect-and-recompute
TEST(ServeFaults, ChecksumDetectsCorruptionAndRecomputesTransparently) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 1e-6;
  opts.verify_mode = core::VerifyMode::kChecksum;
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 4; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 500 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 31);
  const auto clean = clean_outputs(opts, small_dims(), col, 1, inputs);

  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col);
  sched.submit(t, core::ApplyDirection::kForward, precision::PrecisionConfig{},
               inputs[0])
      .get();  // warm the plan cache and chunk resolution
  // The first grouped-GEMV write-back of the next batch is corrupted;
  // the checksum trips, the batch recomputes past the window, and the
  // caller sees nothing but a clean (bit-identical) result.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_buffer_writes(0, 1);
  sched.device().set_fault_plan(faults);

  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, in));
  }
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const auto res = futures[r].get();
    ASSERT_TRUE(res.ok()) << error_code_name(res.error);
    EXPECT_GE(res.retries, 1);
    EXPECT_EQ(res.output, clean[r]);
  }
  sched.drain();
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.failed, 0);
  EXPECT_GE(snap.sdc_detected, 1);
  EXPECT_GE(snap.sdc_recomputes, 1);
  EXPECT_EQ(snap.sdc_false_positives, 0);
  ASSERT_TRUE(snap.have_fault_stats);
  EXPECT_EQ(snap.fault_stats.buffer_faults, 1u);
}

TEST(ServeFaults, PersistentCorruptionSurfacesAfterRetryBudget) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;
  opts.max_retries = 0;  // no batch retry budget: straight to quarantine
  opts.retry_backoff_seconds = 1e-6;
  opts.verify_mode = core::VerifyMode::kChecksum;
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 4; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 600 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 37);
  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col);
  sched.submit(t, core::ApplyDirection::kForward, precision::PrecisionConfig{},
               inputs[0])
      .get();
  // EVERY write-back is corrupted: the fused batch detects, the solo
  // quarantine re-dispatches detect again, and the failure must
  // surface as kSilentCorruption — never as a silently wrong result.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_buffer_writes(0, 1u << 20);
  sched.device().set_fault_plan(faults);

  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, in));
  }
  for (auto& f : futures) {
    const auto res = f.get();
    EXPECT_EQ(res.error, ErrorCode::kSilentCorruption);
    EXPECT_GE(res.retries, 1);
  }
  sched.drain();
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.failed, 4);
  EXPECT_EQ(snap.errors.at(ErrorCode::kSilentCorruption), 4);
  // Fused attempt + four solo re-dispatches, each detected.
  EXPECT_GE(snap.sdc_detected, 5);
  EXPECT_EQ(snap.sdc_recomputes, 0);
  // A detection that survives every recompute is accounted as a
  // suspected false positive (the transient-corruption model says a
  // real flip cannot persist across re-dispatches).
  EXPECT_EQ(snap.sdc_false_positives, 4);
}

// ------------------------------------------------- sharded degradation
TEST(ServeFaults, RankFailureDegradesToBitIdenticalFallbackThenHeals) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 8; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 300 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 13);
  const auto clean = clean_outputs(opts, small_dims(), col, /*rank_group=*/2,
                                   inputs);

  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col, /*rank_group=*/2);
  ASSERT_EQ(sched.tenant_rank_group(t), 2);
  EXPECT_FALSE(sched.tenant_degraded(t));
  // Group sync 0 (the first sharded dispatch) loses rank 1; sync 1
  // (the second dispatch) is healthy again.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_rank(1, 0, 1);
  sched.device().set_fault_plan(faults);

  std::vector<std::future<MatvecResult>> first;
  for (int r = 0; r < 4; ++r) {
    first.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                 precision::PrecisionConfig{}, inputs[r]));
  }
  for (int r = 0; r < 4; ++r) {
    const auto res = first[static_cast<std::size_t>(r)].get();
    ASSERT_TRUE(res.ok()) << error_code_name(res.error);
    EXPECT_EQ(res.output, clean[static_cast<std::size_t>(r)]);
  }
  sched.drain();
  EXPECT_TRUE(sched.tenant_degraded(t));
  {
    const auto snap = sched.metrics();
    EXPECT_EQ(snap.rank_failures, 1);
    EXPECT_EQ(snap.degraded_batches, 1);
  }

  std::vector<std::future<MatvecResult>> second;
  for (int r = 4; r < 8; ++r) {
    second.push_back(sched.submit(t, core::ApplyDirection::kForward,
                                  precision::PrecisionConfig{}, inputs[r]));
  }
  for (int r = 4; r < 8; ++r) {
    const auto res = second[static_cast<std::size_t>(r - 4)].get();
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.output, clean[static_cast<std::size_t>(r)]);
  }
  EXPECT_FALSE(sched.tenant_degraded(t));  // healed by the clean dispatch
  EXPECT_EQ(sched.metrics().rank_failures, 1);
}

TEST(ServeFaults, SessionOrderingSurvivesMidStreamDegradation) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 12; ++r) {
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 400 + r));
  }
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(small_dims()), 17);
  const auto clean = clean_outputs(opts, small_dims(), col, /*rank_group=*/2,
                                   inputs);

  AsyncScheduler sched(device::make_mi300x(), opts);
  const TenantId t = sched.add_tenant(small_dims(), col, /*rank_group=*/2);
  // Some mid-stream sharded dispatches lose rank 1 and re-dispatch on
  // the degraded path; the session's dispatch-order guarantee and the
  // outputs must survive.
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_rank(1, 1, 3);
  sched.device().set_fault_plan(faults);

  StreamSession session = sched.open_stream(t, core::ApplyDirection::kForward,
                                            precision::PrecisionConfig{});
  std::vector<std::future<MatvecResult>> futures;
  for (const auto& in : inputs) futures.push_back(session.submit(in));
  std::int64_t prev_seq = -1;
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const auto res = futures[r].get();
    ASSERT_TRUE(res.ok()) << error_code_name(res.error);
    EXPECT_EQ(res.output, clean[r]);
    EXPECT_GE(res.batch_seq, prev_seq);  // dispatch order = submit order
    prev_seq = res.batch_seq;
  }
  session.close();
  EXPECT_GE(sched.metrics().rank_failures, 1);
}

// ------------------------------------------------- shutdown contract
TEST(ServeFaults, ShutdownReturnsFailedFutureOnEverySubmitPath) {
  using namespace std::chrono_literals;
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 19);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 20);
  StreamSession session =
      sched.open_stream(tenant.tenant, core::ApplyDirection::kForward,
                        precision::PrecisionConfig{});
  sched.shutdown();

  // Positional overload.
  auto f1 = sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                         precision::PrecisionConfig{}, input);
  ASSERT_EQ(f1.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f1.get().error, ErrorCode::kShutdown);
  // Request-struct overload.
  Request req;
  req.tenant = tenant.tenant;
  req.input = input;
  auto f2 = sched.submit(std::move(req));
  ASSERT_EQ(f2.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f2.get().error, ErrorCode::kShutdown);
  // A LIVE session handle follows the same contract...
  auto f3 = session.submit(input);
  ASSERT_EQ(f3.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f3.get().error, ErrorCode::kShutdown);
  // ...while a CLOSED handle stays a synchronous throw (handle
  // misuse, not a service outcome).
  session.close();
  EXPECT_THROW(session.submit(input), std::runtime_error);
}

TEST(ServeFaults, ShutdownRacingInFlightRetryFulfillsEveryFuture) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 1e-3;  // the retry outlives the shutdown call
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 23);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 24);
  sched.submit(tenant.tenant, core::ApplyDirection::kForward,
               precision::PrecisionConfig{}, input)
      .get();  // warm
  auto faults = std::make_shared<FaultPlan>();
  faults->fail_kernel_launches(0, 1);
  sched.device().set_fault_plan(faults);
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 4; ++r) {
    futures.push_back(sched.submit(tenant.tenant,
                                   core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, input));
  }
  sched.shutdown();  // drains the in-flight batch THROUGH its retry
  for (auto& f : futures) {
    const auto res = f.get();
    EXPECT_TRUE(res.ok()) << error_code_name(res.error);
  }
  EXPECT_GE(sched.metrics().retries_attempted, 1);
}

// ------------------------------------------------- bounded admission
TEST(BoundedAdmission, RejectNewRefusesAtDepth) {
  RequestQueue q(8, 10.0, 0, true, /*max_queue_depth=*/2,
                 OverloadPolicy::kRejectNew);
  EXPECT_EQ(q.max_queue_depth(), 2);
  const BatchKey key = batch_key(small_dims());
  EXPECT_TRUE(q.push(key, make_request(1)).accepted());
  EXPECT_TRUE(q.push(key, make_request(2)).accepted());
  const auto refused = q.push(key, deadline_request(10.0, 3));
  EXPECT_EQ(refused.status, RequestQueue::PushOutcome::Status::kFull);
  ASSERT_TRUE(refused.returned.has_value());
  EXPECT_EQ(refused.returned->tenant, 3u);
  EXPECT_FALSE(refused.shed.has_value());
  EXPECT_EQ(q.pending(), 2u);
}

TEST(BoundedAdmission, ShedBestEffortDisplacesNewestForDeadlines) {
  RequestQueue q(8, 10.0, 0, true, /*max_queue_depth=*/2,
                 OverloadPolicy::kShedBestEffort);
  const BatchKey key = batch_key(small_dims());
  ASSERT_TRUE(q.push(key, make_request(1)).accepted());  // best effort, oldest
  ASSERT_TRUE(q.push(key, make_request(2)).accepted());  // best effort, newest
  // A deadlined arrival displaces the NEWEST best-effort request.
  auto out = q.push(key, deadline_request(10.0, 3));
  EXPECT_TRUE(out.accepted());
  ASSERT_TRUE(out.shed.has_value());
  EXPECT_EQ(out.shed->tenant, 2u);
  // The next deadlined arrival sheds the remaining best-effort one.
  out = q.push(key, deadline_request(10.0, 4));
  EXPECT_TRUE(out.accepted());
  ASSERT_TRUE(out.shed.has_value());
  EXPECT_EQ(out.shed->tenant, 1u);
  // All pending work now carries deadlines: nothing left to shed.
  out = q.push(key, deadline_request(10.0, 5));
  EXPECT_EQ(out.status, RequestQueue::PushOutcome::Status::kFull);
  ASSERT_TRUE(out.returned.has_value());
  EXPECT_EQ(out.returned->tenant, 5u);
  // Best-effort arrivals never displace anything at the bound.
  out = q.push(key, make_request(6));
  EXPECT_EQ(out.status, RequestQueue::PushOutcome::Status::kFull);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(BoundedAdmission, ShedSkipsDispatchedAndRetryingWork) {
  RequestQueue q(8, 10.0, 0, true, /*max_queue_depth=*/2,
                 OverloadPolicy::kShedBestEffort);
  const BatchKey key = batch_key(small_dims());
  ASSERT_TRUE(q.push(key, make_request(1)).accepted());  // best effort, oldest
  // The NEWEST pending request is best-effort but already cost device
  // time: it was dispatched once and is riding the queue again for a
  // quarantined solo retry.  Shedding it would discard that work.
  PendingRequest retry = make_request(2);
  retry.retrying = true;
  ASSERT_TRUE(q.push(key, std::move(retry)).accepted());
  // The deadlined arrival skips the retrying request and displaces
  // the OLDER plain best-effort one instead.
  auto out = q.push(key, deadline_request(10.0, 3));
  EXPECT_TRUE(out.accepted());
  ASSERT_TRUE(out.shed.has_value());
  EXPECT_EQ(out.shed->tenant, 1u);
  EXPECT_FALSE(out.shed->retrying);
  // Everything left is deadlined or retrying: nothing sheddable.
  out = q.push(key, deadline_request(10.0, 4));
  EXPECT_EQ(out.status, RequestQueue::PushOutcome::Status::kFull);
  ASSERT_TRUE(out.returned.has_value());
  EXPECT_EQ(out.returned->tenant, 4u);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(BoundedAdmission, SchedulerShedsAndRejectsWithAccounting) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.25;  // long enough to keep the queue occupied
  opts.max_queue_depth = 2;
  opts.overload_policy = OverloadPolicy::kShedBestEffort;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 29);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 30);

  // Two best-effort requests park in the linger window.
  auto be1 = sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                          precision::PrecisionConfig{}, input);
  auto be2 = sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                          precision::PrecisionConfig{}, input);
  // A deadlined arrival at the bound sheds the newest best-effort one.
  Request urgent;
  urgent.tenant = tenant.tenant;
  urgent.input = input;
  urgent.qos.deadline_seconds = 30.0;  // far: must not cut linger short
  auto dl = sched.submit(std::move(urgent));
  // A best-effort arrival at the bound is rejected outright.
  auto be3 = sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                          precision::PrecisionConfig{}, input);
  const auto rejected = be3.get();  // ready immediately
  EXPECT_EQ(rejected.error, ErrorCode::kQueueFull);
  const auto shed_res = be2.get();  // displaced, also ready
  EXPECT_EQ(shed_res.error, ErrorCode::kShed);
  EXPECT_TRUE(be1.get().ok());
  EXPECT_TRUE(dl.get().ok());
  sched.drain();
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.submitted, 4);
  EXPECT_EQ(snap.completed, 2);
  EXPECT_EQ(snap.failed, 2);
  EXPECT_EQ(snap.shed, 1);
  EXPECT_EQ(snap.rejected, 1);
  EXPECT_EQ(snap.errors.at(ErrorCode::kShed), 1);
  EXPECT_EQ(snap.errors.at(ErrorCode::kQueueFull), 1);
  std::int64_t error_sum = 0;
  for (const auto& [code, n] : snap.errors) error_sum += n;
  EXPECT_EQ(error_sum, snap.failed);
}

TEST(BoundedAdmission, OptionsValidateNewFields) {
  ServeOptions opts;
  opts.max_queue_depth = -1;
  EXPECT_THROW(AsyncScheduler(device::make_mi300x(), opts),
               std::invalid_argument);
  opts.max_queue_depth = 0;
  opts.max_retries = -1;
  EXPECT_THROW(AsyncScheduler(device::make_mi300x(), opts),
               std::invalid_argument);
  opts.max_retries = 2;
  opts.retry_backoff_seconds = -1.0;
  EXPECT_THROW(AsyncScheduler(device::make_mi300x(), opts),
               std::invalid_argument);
}

TEST(ErrorCodes, NamesAreDistinct) {
  const ErrorCode all[] = {ErrorCode::kOk,          ErrorCode::kTransientDevice,
                           ErrorCode::kOutOfMemory, ErrorCode::kRankFailure,
                           ErrorCode::kShutdown,    ErrorCode::kQueueFull,
                           ErrorCode::kShed,        ErrorCode::kSilentCorruption,
                           ErrorCode::kInternal};
  std::set<std::string> names;
  for (const ErrorCode c : all) names.insert(error_code_name(c));
  EXPECT_EQ(names.size(), std::size(all));
}

}  // namespace
}  // namespace fftmv::serve
