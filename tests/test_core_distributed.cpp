// Distributed matvec tests: the threaded multi-rank execution and the
// sequential lockstep cluster must both reproduce the single-rank
// result, agree bit-for-bit with each other, and show the Figure-4
// error behaviour (error growth with grid rows via n_m = N_m / p_c).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "blas/vector_ops.hpp"
#include "comm/communicator.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/distributed_plan.hpp"
#include "core/lockstep_cluster.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"

namespace fftmv::core {
namespace {

using precision::PrecisionConfig;

struct GlobalProblem {
  ProblemDims dims;
  std::vector<double> first_col;
  std::vector<double> m;
  std::vector<double> d;
};

GlobalProblem make_global(index_t n_m, index_t n_d, index_t n_t,
                          std::uint64_t seed) {
  GlobalProblem p;
  p.dims = {n_m, n_d, n_t};
  p.first_col = make_first_block_col(LocalDims::single_rank(p.dims), seed);
  p.m = make_input_vector(n_t * n_m, seed + 1);
  p.d = make_input_vector(n_t * n_d, seed + 2);
  return p;
}

/// Single-rank ground truth for a given config.
std::vector<double> single_rank_forward(const GlobalProblem& p,
                                        const PrecisionConfig& cfg) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  plan.forward(op, p.m, d, cfg);
  return d;
}

std::vector<double> single_rank_adjoint(const GlobalProblem& p,
                                        const PrecisionConfig& cfg) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> m(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m));
  plan.adjoint(op, p.d, m, cfg);
  return m;
}

/// Run the threaded distributed forward matvec on a p_r x p_c grid
/// and assemble the global output.
std::vector<double> threaded_forward(const GlobalProblem& p, index_t p_rows,
                                     index_t p_cols, const PrecisionConfig& cfg) {
  const comm::ProcessGrid grid(p_rows, p_cols);
  std::vector<double> d_global(
      static_cast<std::size_t>(p.dims.n_t * p.dims.n_d), 0.0);
  std::mutex out_mutex;

  // Each rank thread owns its own device with inline execution so the
  // global thread pool is not re-entered concurrently.
  comm::run_on_grid(p_rows, p_cols, [&](comm::RankComms& comms) {
    static util::ThreadPool inline_pool(1);
    device::Device dev(device::make_mi300x(), &inline_pool);
    device::Stream stream(dev);
    const auto local = LocalDims::for_rank(p.dims, grid, comms.world_rank);
    const auto col_slice = slice_first_block_col(p.dims, local, p.first_col);
    BlockToeplitzOperator op(dev, stream, local, col_slice);
    FftMatvecPlan plan(dev, stream, local);

    // Column root holds the input chunk; other column ranks receive
    // it through the broadcast.
    std::vector<double> m_local;
    if (comms.grid_col.rank() == 0) {
      m_local = slice_tosi(p.m, p.dims.n_t, p.dims.n_m, local.m_offset,
                           local.n_m_local);
    }
    std::vector<double> d_local;
    const bool is_row_root = comms.grid_row.rank() == 0;
    if (is_row_root) {
      d_local.resize(static_cast<std::size_t>(p.dims.n_t * local.n_d_local));
    }
    plan.forward(op, m_local, d_local, cfg, &comms);

    if (is_row_root) {
      std::lock_guard lock(out_mutex);
      scatter_tosi(d_local, p.dims.n_t, p.dims.n_d, local.d_offset,
                   local.n_d_local, d_global);
    }
  });
  return d_global;
}

/// Threaded distributed adjoint matvec: broadcast of the data chunk
/// over the grid row, reduction of parameter partials down the grid
/// column (the mirror roles of §2.4).
std::vector<double> threaded_adjoint(const GlobalProblem& p, index_t p_rows,
                                     index_t p_cols, const PrecisionConfig& cfg) {
  const comm::ProcessGrid grid(p_rows, p_cols);
  std::vector<double> m_global(
      static_cast<std::size_t>(p.dims.n_t * p.dims.n_m), 0.0);
  std::mutex out_mutex;

  comm::run_on_grid(p_rows, p_cols, [&](comm::RankComms& comms) {
    static util::ThreadPool inline_pool(1);
    device::Device dev(device::make_mi300x(), &inline_pool);
    device::Stream stream(dev);
    const auto local = LocalDims::for_rank(p.dims, grid, comms.world_rank);
    const auto col_slice = slice_first_block_col(p.dims, local, p.first_col);
    BlockToeplitzOperator op(dev, stream, local, col_slice);
    FftMatvecPlan plan(dev, stream, local);

    // The adjoint broadcasts along grid rows: root is column 0.
    std::vector<double> d_local;
    if (comms.grid_row.rank() == 0) {
      d_local = slice_tosi(p.d, p.dims.n_t, p.dims.n_d, local.d_offset,
                           local.n_d_local);
    }
    std::vector<double> m_local;
    const bool is_col_root = comms.grid_col.rank() == 0;
    if (is_col_root) {
      m_local.resize(static_cast<std::size_t>(p.dims.n_t * local.n_m_local));
    }
    plan.adjoint(op, d_local, m_local, cfg, &comms);

    if (is_col_root) {
      std::lock_guard lock(out_mutex);
      scatter_tosi(m_local, p.dims.n_t, p.dims.n_m, local.m_offset,
                   local.n_m_local, m_global);
    }
  });
  return m_global;
}

// ---------------------------------------------------- threaded grids
class GridShapes
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(GridShapes, ThreadedForwardMatchesSingleRankInDouble) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 500);
  const auto expect = single_rank_forward(p, PrecisionConfig{});
  const auto got = threaded_forward(p, p_rows, p_cols, PrecisionConfig{});
  // Double precision: only the reduction order differs.
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(expect.size()),
                                    got.data(), expect.data()),
            1e-13)
      << p_rows << "x" << p_cols;
}

TEST_P(GridShapes, ThreadedForwardMixedPrecisionStaysAccurate) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 600);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  const auto got =
      threaded_forward(p, p_rows, p_cols, PrecisionConfig::parse("dssdd"));
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(baseline.size()),
                                    got.data(), baseline.data()),
            1e-5);
}

TEST_P(GridShapes, ThreadedAdjointMatchesSingleRank) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 650);
  const auto expect = single_rank_adjoint(p, PrecisionConfig{});
  const auto got = threaded_adjoint(p, p_rows, p_cols, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(expect.size()),
                                    got.data(), expect.data()),
            1e-13)
      << p_rows << "x" << p_cols;
}

TEST_P(GridShapes, ThreadedAdjointMixedPrecisionStaysAccurate) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 660);
  const auto baseline = single_rank_adjoint(p, PrecisionConfig{});
  // The paper's F* optimum: SBGEMV + IFFT (of m) in single.
  const auto got =
      threaded_adjoint(p, p_rows, p_cols, PrecisionConfig::parse("ddssd"));
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(baseline.size()),
                                    got.data(), baseline.data()),
            1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(std::make_pair<index_t, index_t>(1, 2),
                                           std::make_pair<index_t, index_t>(2, 1),
                                           std::make_pair<index_t, index_t>(2, 2),
                                           std::make_pair<index_t, index_t>(1, 4),
                                           std::make_pair<index_t, index_t>(4, 1)),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

// Each rank of a threaded grid apply charges exactly the cost model's
// broadcast + reduce, and a serial apply's makespan is its total.
TEST(GridTimings, CommIsModelledCollectivesAndMakespanIsTotal) {
  const auto p = make_global(24, 4, 16, 510);
  const index_t p_rows = 2, p_cols = 2;
  const comm::ProcessGrid grid(p_rows, p_cols);
  for (const char* cfg_str : {"ddddd", "sssss", "sdddd"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (bool adjoint : {false, true}) {
      std::mutex mu;
      std::vector<std::pair<PhaseTimings, comm::MatvecCollectives>> ranks;
      comm::run_on_grid(p_rows, p_cols, [&](comm::RankComms& comms) {
        static util::ThreadPool inline_pool(1);
        device::Device dev(device::make_mi300x(), &inline_pool);
        device::Stream stream(dev);
        const auto local = LocalDims::for_rank(p.dims, grid, comms.world_rank);
        BlockToeplitzOperator op(dev, stream, local,
                                 slice_first_block_col(p.dims, local, p.first_col));
        FftMatvecPlan plan(dev, stream, local);
        const index_t ns_in = adjoint ? local.n_d_local : local.n_m_local;
        const index_t ns_out = adjoint ? local.n_m_local : local.n_d_local;
        const bool bcast_root =
            (adjoint ? comms.grid_row : comms.grid_col).rank() == 0;
        const bool reduce_root =
            (adjoint ? comms.grid_col : comms.grid_row).rank() == 0;
        std::vector<double> in, out;
        if (bcast_root) in = make_input_vector(p.dims.n_t * ns_in, 511);
        if (reduce_root) out.resize(static_cast<std::size_t>(p.dims.n_t * ns_out));
        if (adjoint) {
          plan.adjoint(op, in, out, cfg, &comms);
        } else {
          plan.forward(op, in, out, cfg, &comms);
        }
        const auto width = [](precision::Precision q) {
          return q == precision::Precision::kSingle ? 4.0 : 8.0;
        };
        const auto coll = comm::CommCostModel(plan.options().network)
                              .matvec_collectives(
                                  p_rows, p_cols, adjoint,
                                  static_cast<double>(p.dims.n_t * ns_in) *
                                      width(cfg.phase(precision::kPhasePad)),
                                  static_cast<double>(p.dims.n_t * ns_out) *
                                      width(cfg.phase(precision::kPhaseUnpad)));
        std::lock_guard lock(mu);
        ranks.emplace_back(plan.last_timings(), coll);
      });
      ASSERT_EQ(ranks.size(), 4u);
      for (const auto& [t, coll] : ranks) {
        EXPECT_GT(coll.broadcast_s, 0.0);
        EXPECT_GT(coll.reduce_s, 0.0);
        EXPECT_DOUBLE_EQ(t.comm, coll.broadcast_s + coll.reduce_s)
            << cfg_str << (adjoint ? " F*" : " F");
        EXPECT_NEAR(t.makespan, t.total(), 1e-12 * t.total())
            << cfg_str << (adjoint ? " F*" : " F");
      }
    }
  }
}

// ----------------------------------------------------- lockstep ==
TEST(Lockstep, BitIdenticalToThreadedBackend) {
  const auto p = make_global(16, 4, 8, 700);
  const comm::ProcessGrid grid(2, 2);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  LockstepCluster cluster(dev, stream, p.dims, grid, p.first_col);

  for (const char* cfg_str : {"ddddd", "dssdd", "sssss", "dssds"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    std::vector<double> d_lockstep(
        static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
    cluster.forward(p.m, d_lockstep, cfg);
    const auto d_threaded = threaded_forward(p, 2, 2, cfg);
    EXPECT_EQ(d_lockstep, d_threaded) << cfg_str;
  }
}

TEST(Lockstep, ForwardMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 800);
  for (auto [pr, pc] : {std::pair<index_t, index_t>{1, 8}, {2, 4}, {4, 2}}) {
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    LockstepCluster cluster(dev, stream, p.dims, comm::ProcessGrid(pr, pc),
                            p.first_col);
    std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
    cluster.forward(p.m, d, PrecisionConfig{});
    const auto expect = single_rank_forward(p, PrecisionConfig{});
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                      expect.data()),
              1e-13)
        << pr << "x" << pc;
  }
}

TEST(Lockstep, AdjointMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 900);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  LockstepCluster cluster(dev, stream, p.dims, comm::ProcessGrid(2, 4),
                          p.first_col);
  std::vector<double> m(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m));
  cluster.adjoint(p.d, m, PrecisionConfig{});
  const auto expect = single_rank_adjoint(p, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(m.size()), m.data(),
                                    expect.data()),
            1e-13);
}

TEST(Lockstep, ManyRankSimulationStaysAccurate) {
  // 32 simulated ranks — beyond what the threaded backend should be
  // asked to do, exactly the lockstep cluster's purpose.
  const auto p = make_global(64, 8, 16, 1000);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  LockstepCluster cluster(dev, stream, p.dims, comm::ProcessGrid(4, 8),
                          p.first_col);
  std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  cluster.forward(p.m, d, PrecisionConfig::parse("dssdd"));
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                    baseline.data()),
            1e-5);
  EXPECT_GT(cluster.max_rank_compute_seconds(), 0.0);
}

TEST(Lockstep, RejectsUnevenSplits) {
  const auto p = make_global(10, 3, 8, 1100);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  EXPECT_THROW(LockstepCluster(dev, stream, p.dims, comm::ProcessGrid(2, 4),
                               p.first_col),
               std::invalid_argument);
}

// --------------------------------------------- Figure-4 error shape
TEST(Lockstep, ErrorGrowsWhenGridRowsGrow) {
  // Weak-scaling essence of Figure 4: with p fixed, moving rows into
  // the grid (p_r: 1 -> 4) grows the local SBGEMV width
  // n_m = N_m / p_c and with it the dominant error term of Eq. (6).
  const auto p = make_global(128, 8, 16, 1200);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  const auto cfg = PrecisionConfig::parse("dssds");

  std::map<index_t, double> err_by_rows;
  for (index_t pr : {1, 4}) {
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    LockstepCluster cluster(dev, stream, p.dims, comm::ProcessGrid(pr, 8 / pr),
                            p.first_col);
    std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
    cluster.forward(p.m, d, cfg);
    err_by_rows[pr] = blas::relative_l2_error(static_cast<index_t>(d.size()),
                                              d.data(), baseline.data());
  }
  EXPECT_GT(err_by_rows[4], err_by_rows[1] * 0.5);
  EXPECT_LT(err_by_rows[1], 1e-5);
  EXPECT_LT(err_by_rows[4], 1e-4);
}

// --------------------------------------------- sharded rank groups
// DistributedMatvecPlan: the serving layer's 1-D output partition
// with batch-fused collectives.  The contract under test is BIT
// identity with the single-rank fused apply_batch — EXPECT_EQ on the
// doubles, not a tolerance — for every precision config, both
// directions, ragged partitions, both comm modes and pipelined
// chunking.

struct ShardedRun {
  std::vector<std::vector<double>> outputs;
  PhaseTimings timings;
  std::vector<PhaseTimings> shares;
  double setup_seconds = 0.0;
};

/// Build a ShardedOperator at `ranks`, drive one batched apply of `b`
/// deterministic right-hand sides through DistributedMatvecPlan on
/// per-rank stream pairs, and return outputs + timings.  ranks == 1
/// is the single-rank reference (same inputs by construction).
ShardedRun run_sharded(const GlobalProblem& p, index_t ranks,
                       ApplyDirection dir, const PrecisionConfig& cfg,
                       index_t b, CommMode mode = CommMode::kBatched,
                       index_t chunks = 1) {
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  ShardedOperator sharded(dev, setup, p.dims, ranks, p.first_col);

  std::vector<std::unique_ptr<device::Stream>> streams, auxes;
  std::vector<std::unique_ptr<FftMatvecPlan>> plans;
  std::vector<DistributedMatvecPlan::RankLane> lanes;
  for (index_t r = 0; r < ranks; ++r) {
    streams.push_back(std::make_unique<device::Stream>(dev));
    auxes.push_back(std::make_unique<device::Stream>(dev));
    plans.push_back(std::make_unique<FftMatvecPlan>(dev, *streams.back(),
                                                    sharded.rank_dims(dir, r)));
    lanes.push_back({plans.back().get(), auxes.back().get()});
  }

  const bool forward = dir == ApplyDirection::kForward;
  const index_t in_len = p.dims.n_t * (forward ? p.dims.n_m : p.dims.n_d);
  const index_t out_len = p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m);
  ShardedRun run;
  std::vector<std::vector<double>> ins(static_cast<std::size_t>(b));
  run.outputs.resize(static_cast<std::size_t>(b));
  std::vector<ConstVectorView> iv(static_cast<std::size_t>(b));
  std::vector<VectorView> ov(static_cast<std::size_t>(b));
  for (index_t i = 0; i < b; ++i) {
    ins[static_cast<std::size_t>(i)] =
        make_input_vector(in_len, 4242 + 13 * static_cast<std::uint64_t>(i));
    run.outputs[static_cast<std::size_t>(i)].resize(
        static_cast<std::size_t>(out_len));
    iv[static_cast<std::size_t>(i)] = ins[static_cast<std::size_t>(i)];
    ov[static_cast<std::size_t>(i)] = run.outputs[static_cast<std::size_t>(i)];
  }

  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  dist.apply_batch(sharded, dir, cfg, iv, ov, lanes, mode, chunks);
  run.timings = dist.last_timings();
  run.shares = dist.last_batch_timings();
  run.setup_seconds = setup.now();
  return run;
}

// The config is held as a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which would put an ASLR-dependent
// value into every test's listed name.
class ShardedApply
    : public ::testing::TestWithParam<std::pair<index_t, std::string>> {};

TEST_P(ShardedApply, ForwardBitIdenticalToSingleRank) {
  const auto [ranks, cfg_str] = GetParam();
  const auto p = make_global(24, 4, 16, 2000);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  const auto expect =
      run_sharded(p, 1, ApplyDirection::kForward, cfg, 3).outputs;
  const auto got =
      run_sharded(p, ranks, ApplyDirection::kForward, cfg, 3).outputs;
  EXPECT_EQ(expect, got) << ranks << " ranks, " << cfg_str;
}

TEST_P(ShardedApply, AdjointBitIdenticalToSingleRank) {
  const auto [ranks, cfg_str] = GetParam();
  const auto p = make_global(24, 4, 16, 2100);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  const auto expect =
      run_sharded(p, 1, ApplyDirection::kAdjoint, cfg, 3).outputs;
  const auto got =
      run_sharded(p, ranks, ApplyDirection::kAdjoint, cfg, 3).outputs;
  EXPECT_EQ(expect, got) << ranks << " ranks, " << cfg_str;
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndConfigs, ShardedApply,
    ::testing::Values(std::make_pair<index_t, std::string>(2, "ddddd"),
                      std::make_pair<index_t, std::string>(2, "dssdd"),
                      std::make_pair<index_t, std::string>(2, "sssss"),
                      std::make_pair<index_t, std::string>(2, "dssds"),
                      // 3 ranks over n_d = 4: ragged forward split
                      std::make_pair<index_t, std::string>(3, "ddddd"),
                      std::make_pair<index_t, std::string>(3, "sssss"),
                      std::make_pair<index_t, std::string>(4, "ddddd"),
                      std::make_pair<index_t, std::string>(4, "dssds")),
    [](const auto& info) {
      return std::string("r") + std::to_string(info.param.first) + "_" +
             info.param.second;
    });

TEST(ShardedApplyDetail, RaggedBothDimensionsBitIdentical) {
  // n_m = 10 and n_d = 5 over 4 ranks: both directions split ragged
  // (3,3,2,2 and 2,1,1,1).
  const auto p = make_global(10, 5, 8, 2200);
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    for (const char* cfg_str : {"ddddd", "sssss", "dssds"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      EXPECT_EQ(run_sharded(p, 1, dir, cfg, 2).outputs,
                run_sharded(p, 4, dir, cfg, 2).outputs)
          << cfg_str;
    }
  }
}

TEST(ShardedApplyDetail, OneRankShortCircuitChargesNoComm) {
  const auto p = make_global(16, 4, 8, 2300);
  const auto run =
      run_sharded(p, 1, ApplyDirection::kForward, PrecisionConfig{}, 2);
  EXPECT_EQ(run.timings.comm, 0.0);
  EXPECT_GT(run.timings.compute_total(), 0.0);
  // The degenerate case really is the plain fused batch: per-RHS
  // shares exist and sum to the totals.
  ASSERT_EQ(run.shares.size(), 2u);
}

TEST(ShardedApplyDetail, MultiRankChargesCollectives) {
  const auto p = make_global(16, 4, 8, 2300);
  const auto run =
      run_sharded(p, 2, ApplyDirection::kForward, PrecisionConfig{}, 2);
  EXPECT_GT(run.timings.comm, 0.0);
  EXPECT_GT(run.timings.makespan, 0.0);
  // Per-RHS shares partition the group totals (phase fields, comm and
  // makespan alike).
  PhaseTimings sum;
  for (const auto& s : run.shares) sum += s;
  EXPECT_NEAR(sum.comm, run.timings.comm, 1e-12);
  EXPECT_NEAR(sum.makespan, run.timings.makespan, 1e-12);
  EXPECT_NEAR(sum.compute_total(), run.timings.compute_total(), 1e-9);
}

TEST(ShardedApplyDetail, BatchedCommBeatsPerRequestAndStaysBitIdentical) {
  const auto p = make_global(16, 4, 8, 2400);
  const auto cfg = PrecisionConfig::parse("dssdd");
  const auto batched = run_sharded(p, 4, ApplyDirection::kForward, cfg, 6,
                                   CommMode::kBatched);
  const auto per_req = run_sharded(p, 4, ApplyDirection::kForward, cfg, 6,
                                   CommMode::kPerRequest);
  // Same compute, same bits; only the collective bill differs — the
  // alpha terms are paid once instead of six times.
  EXPECT_EQ(batched.outputs, per_req.outputs);
  EXPECT_LT(batched.timings.comm, per_req.timings.comm);
}

TEST(ShardedApplyDetail, PipelinedChunksBitIdentical) {
  const auto p = make_global(16, 4, 8, 2500);
  const auto cfg = PrecisionConfig::parse("dssds");
  const auto serial =
      run_sharded(p, 2, ApplyDirection::kForward, cfg, 6, CommMode::kBatched,
                  /*chunks=*/1);
  const auto chunked =
      run_sharded(p, 2, ApplyDirection::kForward, cfg, 6, CommMode::kBatched,
                  /*chunks=*/3);
  EXPECT_EQ(serial.outputs, chunked.outputs);
}

TEST(ShardedApplyDetail, ValidatesRanksAndLaneShapes) {
  const auto p = make_global(8, 3, 8, 2600);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  // More ranks than the smaller output dimension: every rank needs a
  // non-empty slice.
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, 4, p.first_col),
               std::invalid_argument);
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, 0, p.first_col),
               std::invalid_argument);

  // A rank plan whose dims do not match its shard is rejected.
  ShardedOperator sharded(dev, stream, p.dims, 2, p.first_col);
  FftMatvecPlan wrong(dev, stream, LocalDims::single_rank(p.dims));
  std::vector<DistributedMatvecPlan::RankLane> lanes(2, {&wrong, nullptr});
  const std::vector<double> in(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m));
  std::vector<double> out(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  const std::vector<ConstVectorView> iv{in};
  const std::vector<VectorView> ov{out};
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  EXPECT_THROW(dist.apply_batch(sharded, ApplyDirection::kForward,
                                PrecisionConfig{}, iv, ov, lanes),
               std::invalid_argument);
}

}  // namespace
}  // namespace fftmv::core
