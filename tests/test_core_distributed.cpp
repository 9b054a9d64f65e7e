// Distributed matvec tests: DistributedMatvecPlan, the one executor
// that runs a matvec across ranks, must reproduce the single-rank
// result, agree bit-for-bit with a threaded reference built here from
// per-rank partial applies and the thread communicator's broadcast +
// tree reduction, and show the Figure-4 error behaviour (error growth
// with grid rows via n_m = N_m / p_c).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "blas/vector_ops.hpp"
#include "comm/communicator.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/distributed_plan.hpp"
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

/// The threaded reference of a distributed matvec on a p_r x p_c grid
/// (§2.4), one thread and device per rank: the root of the broadcast
/// group holds the rank's input chunk and broadcasts it, every rank
/// runs a b = 1 partial apply, and the partials are tree-reduced in
/// the phase-5 precision to the reduction root, which casts to double
/// and scatters into the global output.  Forward broadcasts the
/// parameter chunk over the grid column and reduces sensor partials
/// over the grid row; the adjoint swaps the roles.
std::vector<double> threaded_apply(const GlobalProblem& p, index_t p_rows,
                                   index_t p_cols, ApplyDirection dir,
                                   const PrecisionConfig& cfg,
                                   const std::vector<double>& input) {
  const comm::ProcessGrid grid(p_rows, p_cols);
  const bool adjoint = dir == ApplyDirection::kAdjoint;
  const index_t nt = p.dims.n_t;
  const index_t width_in = adjoint ? p.dims.n_d : p.dims.n_m;
  const index_t width_out = adjoint ? p.dims.n_m : p.dims.n_d;
  std::vector<double> global_out(static_cast<std::size_t>(nt * width_out),
                                 0.0);
  std::mutex out_mutex;

  // Each rank thread owns its own device with inline execution so the
  // global thread pool is not re-entered concurrently.
  comm::run_on_grid(p_rows, p_cols, [&](comm::GridComms& comms) {
    static util::ThreadPool inline_pool(1);
    device::Device dev(device::make_mi300x(), &inline_pool);
    device::Stream stream(dev);
    const auto local = LocalDims::for_rank(p.dims, grid, comms.world_rank);
    BlockToeplitzOperator op(dev, stream, local,
                             slice_first_block_col(p.dims, local, p.first_col));
    FftMatvecPlan plan(dev, stream, local);
    comm::GroupComm& bcast = adjoint ? comms.grid_row : comms.grid_col;
    comm::GroupComm& reduce = adjoint ? comms.grid_col : comms.grid_row;
    const index_t in_off = adjoint ? local.d_offset : local.m_offset;
    const index_t in_cnt = adjoint ? local.n_d_local : local.n_m_local;
    const index_t out_off = adjoint ? local.m_offset : local.d_offset;
    const index_t out_cnt = adjoint ? local.n_m_local : local.n_d_local;

    std::vector<double> in(static_cast<std::size_t>(nt * in_cnt));
    if (bcast.rank() == 0) in = slice_tosi(input, nt, width_in, in_off, in_cnt);
    bcast.broadcast(in.data(), nt * in_cnt, 0);

    const auto partial_apply = [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> partial(static_cast<std::size_t>(nt * out_cnt));
      std::vector<T> sum(partial.size());
      FftMatvecPlan::PartialSink sink;
      if constexpr (std::is_same_v<T, double>) {
        sink.d = partial.data();
      } else {
        sink.f = partial.data();
      }
      const ConstVectorView ins[] = {in};
      plan.apply_partial(op, dir, cfg, ins, sink);
      reduce.reduce_sum(partial.data(), sum.data(), nt * out_cnt, 0);
      if (reduce.rank() == 0) {
        const std::vector<double> out(sum.begin(), sum.end());
        std::lock_guard lock(out_mutex);
        scatter_tosi(out, nt, width_out, out_off, out_cnt, global_out);
      }
    };
    if (cfg.phase(precision::kPhaseUnpad) == precision::Precision::kSingle) {
      partial_apply(float{});
    } else {
      partial_apply(double{});
    }
  });
  return global_out;
}

std::vector<double> threaded_forward(const GlobalProblem& p, index_t p_rows,
                                     index_t p_cols, const PrecisionConfig& cfg) {
  return threaded_apply(p, p_rows, p_cols, ApplyDirection::kForward, cfg, p.m);
}

std::vector<double> threaded_adjoint(const GlobalProblem& p, index_t p_rows,
                                     index_t p_cols, const PrecisionConfig& cfg) {
  return threaded_apply(p, p_rows, p_cols, ApplyDirection::kAdjoint, cfg, p.d);
}

struct ShardedRun {
  std::vector<std::vector<double>> outputs;
  PhaseTimings timings;
  std::vector<PhaseTimings> shares;
};

/// Drive one batched apply of `ins` through DistributedMatvecPlan over
/// `sharded`.  With `one_stream` every rank shares one plan and stream
/// (equal-shaped ranks run one after another); otherwise each rank
/// gets its own stream pair.
ShardedRun run_on(device::Device& dev, const ShardedOperator& sharded,
                  ApplyDirection dir, const PrecisionConfig& cfg,
                  const std::vector<std::vector<double>>& ins,
                  CommMode mode = CommMode::kBatched, index_t chunks = 1,
                  bool one_stream = false) {
  std::vector<std::unique_ptr<device::Stream>> streams, auxes;
  std::vector<std::unique_ptr<FftMatvecPlan>> plans;
  std::vector<DistributedMatvecPlan::RankLane> lanes;
  for (index_t r = 0; r < sharded.ranks(); ++r) {
    if (!one_stream || r == 0) {
      streams.push_back(std::make_unique<device::Stream>(dev));
      auxes.push_back(one_stream ? nullptr
                                 : std::make_unique<device::Stream>(dev));
      plans.push_back(std::make_unique<FftMatvecPlan>(
          dev, *streams.back(), sharded.rank_dims(dir, r)));
    }
    lanes.push_back({plans.back().get(), auxes.back().get()});
  }

  const ProblemDims& dims = sharded.dims();
  const index_t out_len =
      dims.n_t * (dir == ApplyDirection::kForward ? dims.n_d : dims.n_m);
  ShardedRun run;
  run.outputs.assign(ins.size(),
                     std::vector<double>(static_cast<std::size_t>(out_len)));
  const std::vector<ConstVectorView> iv(ins.begin(), ins.end());
  const std::vector<VectorView> ov(run.outputs.begin(), run.outputs.end());
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  dist.apply_batch(sharded, dir, cfg, iv, ov, lanes, mode, chunks);
  run.timings = dist.last_timings();
  run.shares = dist.last_batch_timings();
  return run;
}

/// `b` deterministic right-hand sides for `dir`.
std::vector<std::vector<double>> make_rhs(const GlobalProblem& p,
                                          ApplyDirection dir, index_t b) {
  const index_t in_len =
      p.dims.n_t *
      (dir == ApplyDirection::kForward ? p.dims.n_m : p.dims.n_d);
  std::vector<std::vector<double>> ins;
  for (index_t i = 0; i < b; ++i) {
    ins.push_back(
        make_input_vector(in_len, 4242 + 13 * static_cast<std::uint64_t>(i)));
  }
  return ins;
}

/// One apply on the paper's p_r x p_c process grid.
ShardedRun run_grid(const GlobalProblem& p, index_t p_rows, index_t p_cols,
                    ApplyDirection dir, const PrecisionConfig& cfg,
                    const std::vector<std::vector<double>>& ins,
                    CommMode mode = CommMode::kBatched, index_t chunks = 1,
                    bool one_stream = false) {
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  const ShardedOperator sharded(dev, setup, p.dims,
                                comm::ProcessGrid(p_rows, p_cols), p.first_col);
  return run_on(dev, sharded, dir, cfg, ins, mode, chunks, one_stream);
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

// A process-grid apply charges exactly the cost model's broadcast +
// reduction for the grid, and with every rank on one stream its
// makespan is its total.
TEST(GridTimings, CommIsModelledCollectivesAndMakespanIsTotal) {
  const auto p = make_global(24, 4, 16, 510);
  const index_t p_rows = 2, p_cols = 2;
  const comm::ProcessGrid grid(p_rows, p_cols);
  for (const char* cfg_str : {"ddddd", "sssss", "sdddd"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (const auto dir :
         {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
      const bool adjoint = dir == ApplyDirection::kAdjoint;
      const auto t = run_grid(p, p_rows, p_cols, dir, cfg, make_rhs(p, dir, 1),
                              CommMode::kBatched, 1, /*one_stream=*/true)
                         .timings;
      const auto local = LocalDims::for_rank(p.dims, grid, 0);
      const index_t ns_in = adjoint ? local.n_d_local : local.n_m_local;
      const index_t ns_out = adjoint ? local.n_m_local : local.n_d_local;
      const auto width = [](precision::Precision q) {
        return q == precision::Precision::kSingle ? 4.0 : 8.0;
      };
      const auto coll = comm::CommCostModel(comm::NetworkSpec::frontier())
                            .matvec_collectives(
                                p_rows, p_cols, adjoint,
                                static_cast<double>(p.dims.n_t * ns_in) *
                                    width(cfg.phase(precision::kPhasePad)),
                                static_cast<double>(p.dims.n_t * ns_out) *
                                    width(cfg.phase(precision::kPhaseUnpad)));
      EXPECT_GT(coll.broadcast_s, 0.0);
      EXPECT_GT(coll.reduce_s, 0.0);
      EXPECT_DOUBLE_EQ(t.comm, coll.broadcast_s + coll.reduce_s)
          << cfg_str << (adjoint ? " F*" : " F");
      EXPECT_NEAR(t.makespan, t.total(), 1e-12 * t.total())
          << cfg_str << (adjoint ? " F*" : " F");
    }
  }
}

// A phantom device runs a process-grid apply as a dry run: compute
// and collectives are charged, no data moves.
TEST(GridTimings, PhantomGridApplyChargesComputeAndComm) {
  device::Device dev(device::make_mi300x(), &util::ThreadPool::global(),
                     /*phantom=*/true);
  device::Stream setup(dev);
  const ProblemDims dims{64, 4, 16};
  const ShardedOperator sharded(dev, setup, dims, comm::ProcessGrid(2, 2), {});
  const GlobalProblem p{dims, {}, {}, {}};
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const std::vector<std::vector<double>> ins(2);
    device::Stream stream(dev);
    FftMatvecPlan plan(dev, stream, sharded.rank_dims(dir, 0));
    const std::vector<DistributedMatvecPlan::RankLane> lanes(4, {&plan, nullptr});
    const std::vector<ConstVectorView> iv(2);
    const std::vector<VectorView> ov(2);
    DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
    dist.apply_batch(sharded, dir, PrecisionConfig::parse("dssds"), iv, ov,
                     lanes);
    const auto& t = dist.last_timings();
    EXPECT_GT(t.compute_total(), 0.0);
    EXPECT_GT(t.comm, 0.0);
    EXPECT_NEAR(t.makespan, t.total(), 1e-12 * t.total());
  }
}

// ----------------------------------------------------- lockstep ==
// The lockstep mode: every rank of a process grid on one plan and
// stream, run one after another.
TEST(Lockstep, BitIdenticalToThreadedBackend) {
  const auto p = make_global(16, 4, 8, 700);
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss", "dssds"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    EXPECT_EQ(run_grid(p, 2, 2, ApplyDirection::kForward, cfg, {p.m},
                       CommMode::kBatched, 1, /*one_stream=*/true)
                  .outputs[0],
              threaded_forward(p, 2, 2, cfg))
        << cfg_str;
    EXPECT_EQ(run_grid(p, 2, 2, ApplyDirection::kAdjoint, cfg, {p.d},
                       CommMode::kBatched, 1, /*one_stream=*/true)
                  .outputs[0],
              threaded_adjoint(p, 2, 2, cfg))
        << cfg_str << " F*";
  }
}

TEST(Lockstep, ForwardMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 800);
  const auto expect = single_rank_forward(p, PrecisionConfig{});
  for (auto [pr, pc] : {std::pair<index_t, index_t>{1, 8}, {2, 4}, {4, 2}}) {
    const auto d = run_grid(p, pr, pc, ApplyDirection::kForward,
                            PrecisionConfig{}, {p.m}, CommMode::kBatched, 1,
                            /*one_stream=*/true)
                       .outputs[0];
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                      expect.data()),
              1e-13)
        << pr << "x" << pc;
  }
}

TEST(Lockstep, AdjointMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 900);
  const auto m = run_grid(p, 2, 4, ApplyDirection::kAdjoint, PrecisionConfig{},
                          {p.d}, CommMode::kBatched, 1, /*one_stream=*/true)
                     .outputs[0];
  const auto expect = single_rank_adjoint(p, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(m.size()), m.data(),
                                    expect.data()),
            1e-13);
}

TEST(Lockstep, ManyRankSimulationStaysAccurate) {
  // 32 simulated ranks — beyond what the threaded reference should be
  // asked to do, exactly the lockstep mode's purpose.
  const auto p = make_global(64, 8, 16, 1000);
  const auto run = run_grid(p, 4, 8, ApplyDirection::kForward,
                            PrecisionConfig::parse("dssdd"), {p.m},
                            CommMode::kBatched, 1, /*one_stream=*/true);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  const auto& d = run.outputs[0];
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                    baseline.data()),
            1e-5);
  EXPECT_GT(run.timings.compute_total(), 0.0);
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
    const auto d = run_grid(p, pr, 8 / pr, ApplyDirection::kForward, cfg,
                            {p.m}, CommMode::kBatched, 1, /*one_stream=*/true)
                       .outputs[0];
    err_by_rows[pr] = blas::relative_l2_error(static_cast<index_t>(d.size()),
                                              d.data(), baseline.data());
  }
  EXPECT_GT(err_by_rows[4], err_by_rows[1] * 0.5);
  EXPECT_LT(err_by_rows[1], 1e-5);
  EXPECT_LT(err_by_rows[4], 1e-4);
}

// ------------------------------------------------- process grids
// Batching, pipelined chunks and ragged splits on the paper's 2-D
// grid: every variant is bit-identical to the threaded reference.
class GridApply : public ::testing::TestWithParam<
                      std::tuple<std::pair<index_t, index_t>, std::string>> {};

TEST_P(GridApply, BatchedMatchesPerRequestAndThreadedReference) {
  const auto [grid, cfg_str] = GetParam();
  const auto [pr, pc] = grid;
  const auto p = make_global(24, 4, 16, 3000);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const auto ins = make_rhs(p, dir, 3);
    const auto batched = run_grid(p, pr, pc, dir, cfg, ins, CommMode::kBatched);
    const auto per_req =
        run_grid(p, pr, pc, dir, cfg, ins, CommMode::kPerRequest);
    EXPECT_EQ(batched.outputs, per_req.outputs);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      EXPECT_EQ(batched.outputs[i],
                threaded_apply(p, pr, pc, dir, cfg, ins[i]))
          << "RHS " << i << (dir == ApplyDirection::kAdjoint ? " F*" : " F");
    }
  }
}

TEST_P(GridApply, PipelinedChunksMatchSerial) {
  const auto [grid, cfg_str] = GetParam();
  const auto [pr, pc] = grid;
  const auto p = make_global(24, 4, 16, 3100);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const auto ins = make_rhs(p, dir, 3);
    EXPECT_EQ(run_grid(p, pr, pc, dir, cfg, ins, CommMode::kBatched, 1).outputs,
              run_grid(p, pr, pc, dir, cfg, ins, CommMode::kBatched, 3).outputs)
        << (dir == ApplyDirection::kAdjoint ? "F*" : "F");
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndConfigs, GridApply,
    ::testing::Combine(::testing::Values(std::pair<index_t, index_t>{1, 2},
                                         std::pair<index_t, index_t>{2, 1},
                                         std::pair<index_t, index_t>{2, 2},
                                         std::pair<index_t, index_t>{1, 4},
                                         std::pair<index_t, index_t>{4, 1}),
                       ::testing::Values(std::string("ddddd"),
                                         std::string("dssdd"),
                                         std::string("sssss"),
                                         std::string("dssds"))),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param).first) + "x" +
             std::to_string(std::get<0>(info.param).second) + "_" +
             std::get<1>(info.param);
    });

TEST(GridApplyDetail, RaggedGridMatchesThreadedReference) {
  // n_m = 10 over 2 grid columns (5, 5) and n_d = 5 over 3 grid rows
  // (2, 2, 1): rank shapes differ, so every rank has its own plan.
  const auto p = make_global(10, 5, 8, 3200);
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    for (const char* cfg_str : {"ddddd", "dssdd", "sssss", "dssds"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      const auto ins = make_rhs(p, dir, 3);
      const auto serial = run_grid(p, 3, 2, dir, cfg, ins);
      EXPECT_EQ(serial.outputs,
                run_grid(p, 3, 2, dir, cfg, ins, CommMode::kBatched, 3).outputs)
          << cfg_str;
      for (std::size_t i = 0; i < ins.size(); ++i) {
        EXPECT_EQ(serial.outputs[i], threaded_apply(p, 3, 2, dir, cfg, ins[i]))
            << cfg_str << " RHS " << i;
      }
    }
  }
}

// --------------------------------------------- sharded rank groups
// DistributedMatvecPlan: the serving layer's 1-D output partition
// with batch-fused collectives.  The contract under test is BIT
// identity with the single-rank fused apply_batch — EXPECT_EQ on the
// doubles, not a tolerance — for every precision config, both
// directions, ragged partitions, both comm modes and pipelined
// chunking.

/// Build a ShardedOperator at `ranks` and drive one batched apply of
/// `b` deterministic right-hand sides through DistributedMatvecPlan on
/// per-rank stream pairs.  ranks == 1 is the single-rank reference
/// (same inputs by construction).
ShardedRun run_sharded(const GlobalProblem& p, index_t ranks,
                       ApplyDirection dir, const PrecisionConfig& cfg,
                       index_t b, CommMode mode = CommMode::kBatched,
                       index_t chunks = 1) {
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  const ShardedOperator sharded(dev, setup, p.dims, ranks, p.first_col);
  return run_on(dev, sharded, dir, cfg, make_rhs(p, dir, b), mode, chunks);
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
  // Likewise a process grid with more rows than sensors.
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, comm::ProcessGrid(4, 1),
                               p.first_col),
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

  // A short output or input view is rejected before the group syncs or
  // any collective is charged: every rank stream keeps its clock.
  device::Stream s0(dev), s1(dev);
  s0.advance(1e-3);
  FftMatvecPlan p0(dev, s0, sharded.rank_dims(ApplyDirection::kForward, 0));
  FftMatvecPlan p1(dev, s1, sharded.rank_dims(ApplyDirection::kForward, 1));
  const std::vector<DistributedMatvecPlan::RankLane> good{{&p0, nullptr},
                                                          {&p1, nullptr}};
  std::vector<double> short_in(in.size() - 1), short_out(out.size() - 1);
  const std::vector<ConstVectorView> short_iv{short_in};
  const std::vector<VectorView> short_ov{short_out};
  for (const auto& [civ, cov] :
       {std::pair{iv, short_ov}, std::pair{short_iv, ov}}) {
    EXPECT_THROW(dist.apply_batch(sharded, ApplyDirection::kForward,
                                  PrecisionConfig{}, civ, cov, good),
                 std::invalid_argument);
    EXPECT_EQ(s0.now(), 1e-3);
    EXPECT_EQ(s1.now(), 0.0);
  }
}

}  // namespace
}  // namespace fftmv::core
