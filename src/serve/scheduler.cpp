#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "comm/fault.hpp"
#include "device/fault_plan.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fftmv::serve {

namespace {

using clock = std::chrono::steady_clock;

double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Validate and resolve the service configuration up front (throwing
/// std::invalid_argument naming the bad field), so a misconfigured
/// scheduler fails at construction instead of misbehaving under load.
ServeOptions resolve_options(ServeOptions options, const device::DeviceSpec& spec) {
  const auto require = [](bool ok, const char* rule, auto got) {
    if (!ok) {
      throw std::invalid_argument(std::string("ServeOptions: ") + rule +
                                  ", got " + std::to_string(got));
    }
  };
  require(options.num_streams > 0, "num_streams must be >= 1", options.num_streams);
  require(options.max_batch >= 0, "max_batch must be >= 0", options.max_batch);
  require(options.linger_seconds >= 0.0, "linger_seconds must be >= 0",
          options.linger_seconds);
  require(options.plan_cache_capacity > 0, "plan_cache_capacity must be >= 1",
          options.plan_cache_capacity);
  require(options.pipeline_chunks >= 0, "pipeline_chunks must be >= 0",
          options.pipeline_chunks);
  require(options.max_groups_per_batch >= 0, "max_groups_per_batch must be >= 0",
          options.max_groups_per_batch);
  require(options.max_rank_group >= 1, "max_rank_group must be >= 1",
          options.max_rank_group);
  require(options.max_queue_depth >= 0, "max_queue_depth must be >= 0",
          options.max_queue_depth);
  require(options.max_retries >= 0, "max_retries must be >= 0", options.max_retries);
  require(options.retry_backoff_seconds >= 0.0, "retry_backoff_seconds must be >= 0",
          options.retry_backoff_seconds);
  if (options.max_batch == 0) options.max_batch = adaptive_max_batch(spec);
  return options;
}

/// Caller-bug checks shared by submit and open_stream.
void validate_qos(const StreamQoS& qos, const char* caller) {
  if (qos.deadline_seconds < 0.0) {
    throw std::invalid_argument(std::string("AsyncScheduler::") + caller +
                                ": qos.deadline_seconds must be >= 0, got " +
                                std::to_string(qos.deadline_seconds));
  }
  if (!(qos.weight > 0.0)) {
    throw std::invalid_argument(std::string("AsyncScheduler::") + caller +
                                ": qos.weight must be > 0, got " +
                                std::to_string(qos.weight));
  }
}

/// Map a dispatch-path exception to the serve error taxonomy;
/// kTransientDevice and kOutOfMemory are the retryable classes.
ErrorCode classify_failure(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const device::StreamFault&) {
    return ErrorCode::kTransientDevice;
  } catch (const device::DeviceOutOfMemory&) {
    return ErrorCode::kOutOfMemory;
  } catch (const comm::RankFailure&) {
    return ErrorCode::kRankFailure;
  } catch (const device::SilentCorruption&) {
    // Ordered before the catch-all: SilentCorruption derives from
    // std::runtime_error, so a later handler would swallow it.
    return ErrorCode::kSilentCorruption;
  } catch (...) {
    return ErrorCode::kInternal;
  }
}

bool retryable(ErrorCode code) {
  return code == ErrorCode::kTransientDevice ||
         code == ErrorCode::kOutOfMemory ||
         code == ErrorCode::kSilentCorruption;
}

/// Shared fixture for the adaptive-policy probes: a phantom device
/// (dry runs are pure cost-model arithmetic — deterministic per
/// DeviceSpec, no buffers, no kernels), a stream pair, an empty-
/// column operator and a plan at `dims`.  `timed_apply` runs one
/// null-view apply_batch and returns its simulated duration.
struct PhantomProbe {
  device::Device dev;
  device::Stream stream, aux;
  core::BlockToeplitzOperator op;
  core::FftMatvecPlan plan;

  PhantomProbe(const device::DeviceSpec& spec, const core::LocalDims& dims)
      : dev(spec, &util::ThreadPool::global(), /*phantom=*/true),
        stream(dev),
        aux(dev),
        op(dev, stream, dims, {}),
        plan(dev, stream, dims) {}

  double timed_apply(index_t b, core::ApplyDirection direction,
                     const precision::PrecisionConfig& config,
                     index_t chunks = 1) {
    const std::vector<core::ConstVectorView> ins(static_cast<std::size_t>(b));
    const std::vector<core::VectorView> outs(static_cast<std::size_t>(b));
    const double t0 = stream.now();
    plan.apply_batch(op, direction, config, ins, outs, {chunks, &aux});
    return stream.now() - t0;
  }
};

}  // namespace

int adaptive_pipeline_chunks(const device::DeviceSpec& spec,
                             const core::ProblemDims& dims, int max_batch,
                             core::ApplyDirection direction,
                             const precision::PrecisionConfig& config) {
  return adaptive_pipeline_chunks(spec, core::LocalDims::single_rank(dims),
                                  max_batch, direction, config);
}

int adaptive_pipeline_chunks(const device::DeviceSpec& spec,
                             const core::LocalDims& dims, int max_batch,
                             core::ApplyDirection direction,
                             const precision::PrecisionConfig& config) {
  // Probe the chunked dual-stream pipeline at the tenant's own shape,
  // batch size, direction and precision config — a handful of phantom
  // pipeline evaluations, memoized by the scheduler per combination.
  // Chunking re-pays the grouped SBGEMV's matrix traffic once per
  // chunk, so the argmin naturally lands on serial for small
  // batches/shapes and on 2-8 chunks where the batch is wide enough
  // for overlap to dominate the re-read.
  constexpr double kMinGain = 0.03;  // < 3% modelled win: stay serial
  const index_t b = std::max(1, max_batch);
  PhantomProbe probe(spec, dims);
  if (config.phase(precision::kPhaseSbgemv) == precision::Precision::kSingle) {
    probe.op.spectrum_f(probe.stream);  // warm the cast outside the probe
  }
  double serial_s = 0.0, best_s = 0.0;
  int best_chunks = 1;
  for (const index_t chunks : {1, 2, 4, 8}) {
    if (chunks != 1 && chunks * 2 > b) break;  // < 2 RHS per chunk: skip
    const double t = probe.timed_apply(b, direction, config, chunks);
    if (chunks == 1) serial_s = t;
    if (chunks == 1 || t < best_s) {
      best_s = t;
      best_chunks = static_cast<int>(chunks);
    }
  }
  return best_s < serial_s * (1.0 - kMinGain) ? best_chunks : 1;
}

int adaptive_max_batch(const device::DeviceSpec& spec) {
  // Probe the batching curve at the shape bench/batch_sweep measures
  // it on.  Stop when doubling the batch buys < 7% per-RHS: on MI300X
  // at the serve shape the marginal gains run 8.8% (8 -> 16) and 5.1%
  // (16 -> 32), so this resolves to 16 — the measured curve's knee —
  // with margin on both sides.
  constexpr double kKneeGain = 0.07;
  constexpr int kCeiling = 64;
  PhantomProbe probe(spec, core::LocalDims::single_rank(kBatchCurveShape));
  double prev_per_rhs = 0.0;
  for (int b = 1;; b *= 2) {
    const double per_rhs =
        probe.timed_apply(b, core::ApplyDirection::kForward,
                          precision::PrecisionConfig{}) /
        static_cast<double>(b);
    if (b > 1 && per_rhs > prev_per_rhs * (1.0 - kKneeGain)) return b / 2;
    if (b >= kCeiling) return kCeiling;
    prev_per_rhs = per_rhs;
  }
}

int adaptive_rank_group(const device::DeviceSpec& spec,
                        const core::ProblemDims& dims, int max_rank_group,
                        const comm::NetworkSpec& network) {
  // Crossover probe: a wider group sheds per-rank compute (rank 0's
  // forward slice, the widest, bounds the group's compute makespan)
  // but buys the group's broadcast+gather bill.  Probed at a
  // representative coalesced batch in the double-precision forward
  // direction; each doubling must beat the incumbent by > 3% so
  // marginal shapes never shard for noise-level gains.
  constexpr double kMinGain = 0.03;
  constexpr index_t kProbeBatch = 8;
  dims.validate();
  const index_t cap = std::min<index_t>(std::max(max_rank_group, 1),
                                        std::min(dims.n_d, dims.n_m));
  const comm::CommCostModel net(network);
  const double in_bytes =
      8.0 * static_cast<double>(dims.n_t) * static_cast<double>(dims.n_m);
  const double out_bytes =
      8.0 * static_cast<double>(dims.n_t) * static_cast<double>(dims.n_d);
  double best_t = 0.0;
  index_t best_r = 1;
  for (index_t r = 1; r <= cap; r *= 2) {
    const core::LocalDims local =
        r == 1 ? core::LocalDims::single_rank(dims)
               : core::LocalDims::for_rank(dims, comm::ProcessGrid(r, 1), 0);
    PhantomProbe probe(spec, local);
    const double compute = probe.timed_apply(
        kProbeBatch, core::ApplyDirection::kForward, precision::PrecisionConfig{});
    const double comm =
        r == 1 ? 0.0
               : net.rank_group_collectives(
                        r, static_cast<double>(kProbeBatch) * in_bytes,
                        static_cast<double>(kProbeBatch) * out_bytes)
                     .total();
    const double t = compute + comm;
    if (r == 1 || t < best_t * (1.0 - kMinGain)) {
      best_t = t;
      best_r = r;
    }
  }
  return static_cast<int>(best_r);
}

AsyncScheduler::AsyncScheduler(const device::DeviceSpec& spec, ServeOptions options)
    : options_(resolve_options(options, spec)),
      dev_(spec),
      setup_stream_(dev_),
      cache_(dev_, options_.plan_cache_capacity),
      queue_(options_.max_batch, options_.linger_seconds,
             options_.max_groups_per_batch, options_.deadline_aware,
             options_.max_queue_depth, options_.overload_policy) {
  lanes_.resize(static_cast<std::size_t>(options_.num_streams));
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].pairs.emplace_back(dev_);
    lanes_[i].dist =
        std::make_unique<core::DistributedMatvecPlan>(options_.matvec.network);
    // Device-clock trace tracks: lane i's main stream is tid 2i, its
    // aux (pipeline overlap) stream tid 2i+1.  Track names are
    // registered unconditionally — they are session metadata, so a
    // trace session started after construction still labels them.
    const int tid_a = static_cast<int>(2 * i);
    lanes_[i].pairs[0].main.set_trace_tid(tid_a);
    lanes_[i].pairs[0].aux.set_trace_tid(tid_a + 1);
    util::trace::set_device_track_name(
        tid_a, "lane " + std::to_string(i) + " stream A");
    util::trace::set_device_track_name(
        tid_a + 1, "lane " + std::to_string(i) + " stream B");
  }
  // Streams first, then workers: a worker may touch any lane state
  // only through its own index.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].worker = std::thread([this, i] { worker_loop(static_cast<int>(i)); });
  }
}

AsyncScheduler::~AsyncScheduler() {
  shutdown();
  // Outstanding StreamSession handles go inert before any member they
  // could touch is destroyed; the exclusive lock waits out handle
  // calls already in flight (their drains completed with shutdown's).
  std::unique_lock live(liveness_->mutex);
  liveness_->alive = false;
}

TenantId AsyncScheduler::add_tenant(const core::ProblemDims& dims,
                                    std::span<const double> first_block_col,
                                    int rank_group) {
  dims.validate();
  if (rank_group < 0) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group must be >= 0, got " +
        std::to_string(rank_group));
  }
  if (rank_group > options_.max_rank_group) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group " + std::to_string(rank_group) +
        " exceeds ServeOptions::max_rank_group = " +
        std::to_string(options_.max_rank_group));
  }
  if (rank_group > dims.n_d || rank_group > dims.n_m) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group " + std::to_string(rank_group) +
        " exceeds an output dimension (n_d=" + std::to_string(dims.n_d) +
        ", n_m=" + std::to_string(dims.n_m) + ")");
  }
  if (rank_group == 0) {
    // Auto placement: the cost model's compute/comm crossover decides
    // whether sharding this shape pays at all, and how wide.
    rank_group = adaptive_rank_group(dev_.spec(), dims,
                                     options_.max_rank_group,
                                     options_.matvec.network);
  }
  // The expensive setup (batched FFT of the block column, fp32
  // spectrum warm — the latter so the lazily-cast copy is never raced
  // later) runs before the tenants lock is taken: registration must
  // not stall data-plane lanes looking up other tenants.  Its own
  // mutex serialises concurrent registrations on the setup stream.  A
  // plain tenant is a one-rank group: the same unsliced operator.
  std::shared_ptr<core::ShardedOperator> op;
  {
    std::lock_guard setup_lock(setup_mutex_);
    op = std::make_shared<core::ShardedOperator>(
        dev_, setup_stream_, dims, static_cast<index_t>(rank_group),
        first_block_col);
    op->warm_spectrum_f(setup_stream_);
    if (options_.verify_mode != core::VerifyMode::kOff) {
      // Warm the ABFT checksum vectors too — both precisions, the
      // directions each slice serves — so the lazily-built copies are
      // never raced (and never billed, or fault-injected) on the
      // request path.
      op->warm_checksums(setup_stream_);
    }
  }
  // Pre-warm the shape's full-batch forward-ddddd pipeline resolution
  // (a phantom cost-model probe in auto mode) off the request path;
  // other (batch size, direction, precision) combinations resolve
  // lazily at first dispatch.  Batches resolve at rank 0's slice (the
  // whole operator for a plain tenant).
  pipeline_chunks_for(op->rank_dims(core::ApplyDirection::kForward, 0),
                      static_cast<index_t>(options_.max_batch),
                      core::ApplyDirection::kForward,
                      precision::PrecisionConfig{});
  std::lock_guard lock(tenants_mutex_);
  const TenantId id = next_tenant_++;
  tenants_.emplace(id, Tenant{std::move(op)});
  return id;
}

AsyncScheduler::Tenant AsyncScheduler::tenant_of(TenantId tenant,
                                                 const char* caller) const {
  std::lock_guard lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw std::invalid_argument(std::string("AsyncScheduler::") + caller +
                                ": unknown tenant " + std::to_string(tenant));
  }
  return it->second;
}

int AsyncScheduler::tenant_rank_group(TenantId tenant) const {
  return static_cast<int>(tenant_of(tenant, "tenant_rank_group").op->ranks());
}

bool AsyncScheduler::tenant_degraded(TenantId tenant) const {
  return tenant_of(tenant, "tenant_degraded").degraded;
}

int AsyncScheduler::pipeline_chunks_for(const core::LocalDims& dims,
                                        index_t batch,
                                        core::ApplyDirection direction,
                                        const precision::PrecisionConfig& config) {
  if (options_.pipeline_chunks == 1 || batch < 4) return 1;  // < 2 chunks of 2
  if (options_.pipeline_chunks >= 2) {
    // Forced mode: honour the override, clamped to >= 2 RHS per chunk.
    const auto chunks = std::min<index_t>(options_.pipeline_chunks, batch / 2);
    return chunks < 2 ? 1 : static_cast<int>(chunks);
  }
  const auto key = std::make_tuple(dims, batch,
                                   direction == core::ApplyDirection::kAdjoint,
                                   config.to_string());
  {
    std::lock_guard lock(pipeline_mutex_);
    if (const auto it = pipeline_chunks_by_key_.find(key);
        it != pipeline_chunks_by_key_.end()) {
      return it->second;
    }
  }
  // Probe outside the lock (pure phantom cost-model arithmetic, no
  // shared state); concurrent resolvers of the same key agree, so the
  // first writer winning is harmless.
  const int chunks = adaptive_pipeline_chunks(
      dev_.spec(), dims, static_cast<int>(batch), direction, config);
  std::lock_guard lock(pipeline_mutex_);
  pipeline_chunks_by_key_.emplace(key, chunks);
  return chunks;
}

std::future<MatvecResult> AsyncScheduler::enqueue(Request request,
                                                  SessionId session) {
  const util::trace::Span submit_span("submit", "serve");
  validate_qos(request.qos, "submit");
  const auto op = tenant_of(request.tenant, "submit").op;
  const auto dims = core::LocalDims::single_rank(op->dims());
  const bool tenant_sharded = op->ranks() > 1;
  const index_t expect = request.direction == core::ApplyDirection::kForward
                             ? dims.n_t() * dims.n_m_local
                             : dims.n_t() * dims.n_d_local;
  if (static_cast<index_t>(request.input.size()) != expect) {
    throw std::invalid_argument("AsyncScheduler::submit: input extent " +
                                std::to_string(request.input.size()) +
                                ", expected " + std::to_string(expect));
  }
  // A non-finite input is a caller bug like a wrong extent: it would
  // come back as NaN output with verify off, and with verify on trip
  // every checksum until the retries and quarantine are spent.
  if (const auto bad = std::find_if_not(request.input.begin(), request.input.end(),
                                        [](double v) { return std::isfinite(v); });
      bad != request.input.end()) {
    throw std::invalid_argument(
        "AsyncScheduler::submit: non-finite input value at index " +
        std::to_string(bad - request.input.begin()));
  }

  PendingRequest req;
  req.tenant = request.tenant;
  req.session = session;
  req.input = std::move(request.input);
  req.enqueued = clock::now();
  if (request.qos.deadline_seconds > 0.0) {
    // Relative QoS deadline -> absolute: the miss test and the EDF
    // order both run on the absolute time.
    req.deadline =
        req.enqueued + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(
                               request.qos.deadline_seconds));
  }
  req.weight = request.qos.weight;
  std::future<MatvecResult> future = req.promise.get_future();

  bool counted = false;
  {
    std::lock_guard lock(state_mutex_);
    if (accepting_) {
      ++in_flight_;
      counted = true;
    }
  }
  // Counted (and the serving wall clock started) before the push: a
  // lane may pop and finish the request before this thread resumes,
  // and completed must never exceed submitted in a metrics() snapshot.
  metrics_.record_submit();
  if (!counted) {
    // Shut down: the error contract returns a ready kShutdown future
    // instead of throwing — submit and a live session handle behave
    // identically.
    retire_undispatched(std::move(req), ErrorCode::kShutdown,
                        /*counted=*/false);
    return future;
  }

  // Queue-wait span: an async begin/end pair (the wait ends on a lane
  // thread, and same-key waits overlap) matched on trace_id, which
  // rides inside the PendingRequest to dispatch.
  if (util::trace::enabled()) {
    req.trace_id = util::trace::next_id();
    util::trace::async_begin(
        "queue_wait", "serve", req.trace_id,
        {{"tenant", static_cast<std::int64_t>(request.tenant)},
         {"session", static_cast<std::int64_t>(session)}});
  }

  // Shape-keyed coalescing: tenant splits keys in the same-tenant-only
  // ablation mode, and ALWAYS for sharded tenants — placement is a
  // property of the whole batch (one sharded apply per dispatch), so a
  // sharded tenant's requests never mix with another tenant's.
  const BatchKey key{dims, request.direction, request.config.to_string(),
                     options_.cross_tenant_batching && !tenant_sharded
                         ? TenantId{0}
                         : request.tenant};
  RequestQueue::PushOutcome outcome = queue_.push(key, std::move(req));
  // Promises surface OUTSIDE the queue lock: push hands refused and
  // displaced requests back instead of fulfilling them itself.
  if (outcome.shed.has_value()) {
    retire_undispatched(std::move(*outcome.shed), ErrorCode::kShed,
                        /*counted=*/true);
  }
  if (!outcome.accepted()) {
    const ErrorCode code =
        outcome.status == RequestQueue::PushOutcome::Status::kClosed
            ? ErrorCode::kShutdown  // close() raced the accepting_ check
            : ErrorCode::kQueueFull;
    retire_undispatched(std::move(*outcome.returned), code, /*counted=*/true);
  }
  return future;
}

void AsyncScheduler::retire_undispatched(PendingRequest req, ErrorCode code,
                                         bool counted) {
  if (req.trace_id != 0) {
    util::trace::async_end("queue_wait", "serve", req.trace_id);
  }
  if (util::trace::enabled()) {
    util::trace::instant(
        code == ErrorCode::kShed        ? "shed"
        : code == ErrorCode::kQueueFull ? "rejected"
                                        : "refused_shutdown",
        "serve",
        {{"tenant", static_cast<std::int64_t>(req.tenant)},
         {"session", static_cast<std::int64_t>(req.session)}});
  }
  MatvecResult result;
  result.error = code;
  result.session = req.session;
  result.queue_seconds = seconds_between(req.enqueued, clock::now());
  // A refused deadline-bearing request was certainly not served on
  // time.
  result.deadline_missed = req.has_deadline();
  complete(req, std::move(result));
  release({&req, 1}, counted);
}

void AsyncScheduler::complete(PendingRequest& req, MatvecResult result) {
  const MatvecResult& r = result;
  metrics_.record_request(r.queue_seconds, r.exec_seconds, r.error, req.session,
                          req.has_deadline(), r.deadline_missed, r.retries);
  req.promise.set_value(std::move(result));
}

void AsyncScheduler::release(std::span<const PendingRequest> reqs, bool counted) {
  {
    std::lock_guard lock(state_mutex_);
    if (counted) in_flight_ -= static_cast<std::int64_t>(reqs.size());
    for (const auto& req : reqs) {
      if (req.session == 0) continue;
      if (const auto it = sessions_.find(req.session); it != sessions_.end()) {
        --it->second.outstanding;
      }
    }
  }
  // Unconditional: close_session waits on per-session outstanding
  // counts, not just the global in-flight count.
  cv_drained_.notify_all();
}

std::future<MatvecResult> AsyncScheduler::submit(Request request) {
  return enqueue(std::move(request), /*session=*/0);
}

StreamSession AsyncScheduler::open_stream(TenantId tenant,
                                          core::ApplyDirection direction,
                                          const precision::PrecisionConfig& config,
                                          StreamQoS qos) {
  validate_qos(qos, "open_stream");
  const auto dims =
      core::LocalDims::single_rank(tenant_of(tenant, "open_stream").op->dims());
  // Capacity check BEFORE pinning: every pinned shape keeps one
  // resident plan per lane, and the cache must still hold that whole
  // pinned working set or eviction has nothing left to reclaim.
  const PlanKey pin_key{dims, options_.matvec, dev_.spec().name, /*lane=*/0};
  {
    std::lock_guard lock(state_mutex_);
    if (!accepting_) {
      throw std::runtime_error(
          "AsyncScheduler::open_stream: scheduler is shut down");
    }
    const std::size_t shapes =
        cache_.pinned_shapes() + (cache_.pinned(pin_key) ? 0 : 1);
    if (shapes * lanes_.size() > options_.plan_cache_capacity) {
      throw std::invalid_argument(
          "AsyncScheduler::open_stream: pinning this session needs " +
          std::to_string(shapes * lanes_.size()) +
          " resident plans (pinned shapes x lanes), exceeding "
          "ServeOptions::plan_cache_capacity = " +
          std::to_string(options_.plan_cache_capacity) +
          "; raise the capacity or close other sessions");
    }
    cache_.pin(pin_key);
    const SessionId id = next_session_++;
    sessions_.emplace(id,
                      SessionState{tenant, direction, config, qos, dims, 0});
    return StreamSession(this, liveness_, id, tenant, direction, config, qos);
  }
}

std::future<MatvecResult> AsyncScheduler::submit_stream(
    SessionId session, std::vector<double> input) {
  Request request;
  {
    std::lock_guard lock(state_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw std::runtime_error(
          "AsyncScheduler::submit_stream: session is closed");
    }
    request.tenant = it->second.tenant;
    request.direction = it->second.direction;
    request.config = it->second.config;
    request.qos = it->second.qos;
    // Counted before the enqueue so a racing close_session drains this
    // apply; undone below if enqueue refuses it.
    ++it->second.outstanding;
  }
  request.input = std::move(input);
  try {
    return enqueue(std::move(request), session);
  } catch (...) {
    std::lock_guard lock(state_mutex_);
    if (const auto it = sessions_.find(session); it != sessions_.end()) {
      --it->second.outstanding;
    }
    cv_drained_.notify_all();
    throw;
  }
}

void AsyncScheduler::close_session(SessionId session) {
  core::LocalDims dims;
  {
    std::unique_lock lock(state_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return;  // idempotent
    // Drain: every accepted apply of this session is fulfilled before
    // the pin is dropped (release() notifies cv_drained_).
    cv_drained_.wait(lock, [&] { return it->second.outstanding == 0; });
    dims = it->second.dims;
    sessions_.erase(it);
  }
  // Drained first, so every record_request of this session has landed
  // before its reservoir is compacted to a final summary.
  metrics_.close_session(session);
  cache_.unpin(PlanKey{dims, options_.matvec, dev_.spec().name, /*lane=*/0});
}

Recovery recover(const RecoveryState& s) {
  using Action = Recovery::Action;
  if (s.code == ErrorCode::kOk) return {Action::kComplete};
  // A down rank consumes no retry: the same batch re-runs at once with
  // every slice on the survivor, zero collectives.
  if (s.code == ErrorCode::kRankFailure && !s.degraded) return {Action::kDegrade};
  if (!retryable(s.code)) return {Action::kFail};
  if (s.attempt >= s.max_retries) {
    // Batch-failure isolation: a fused batch that kept failing is
    // quarantined — each request re-dispatches SOLO with its own fresh
    // budget, so a poisoned request fails alone instead of failing all
    // b futures (outputs never depend on batch composition).
    return {s.solo ? Action::kFail : Action::kQuarantine};
  }
  // Doubling backoff before re-dispatch attempt + 1, clamped to the
  // tightest remaining deadline slack — a retry never waits past a
  // deadline it could still make (and never waits at all once a
  // deadline has passed).
  const double delay = std::ldexp(s.backoff_seconds, s.attempt);
  return {Action::kRetry, std::min(delay, std::max(0.0, s.slack_seconds))};
}

void AsyncScheduler::worker_loop(int lane) {
  util::trace::set_thread_name("lane " + std::to_string(lane));
  while (auto batch = queue_.pop_batch()) dispatch(lane, std::move(*batch));
}

void AsyncScheduler::dispatch(int lane, Batch batch) {
  const auto start = clock::now();
  const double span_t0 = util::trace::enabled() ? util::trace::now_us() : 0.0;
  const double sim_start =
      lanes_[static_cast<std::size_t>(lane)].pairs[0].main.now();
  Dispatch d = begin_dispatch(std::move(batch), start);
  const TenantId tenant = d.batch.requests[0].tenant;
  RecoveryState state{.solo = d.batch.requests.size() == 1,
                      .max_retries = options_.max_retries,
                      .backoff_seconds = options_.retry_backoff_seconds};
  auto tightest = clock::time_point::max();  // best effort: no slack bound
  for (const auto& req : d.batch.requests) {
    state.attempt = std::max(state.attempt, req.attempts);
    tightest = std::min(tightest, req.deadline);
  }
  Recovery next;
  for (;;) {
    try {
      attempt(lane, d, state.degraded ? core::CommMode::kNone : core::CommMode::kBatched);
      state.code = ErrorCode::kOk;
    } catch (...) {
      // A failed attempt leaves no partial numerics visible (a
      // StreamFault fires before any writes, and a successful
      // re-attempt rewrites every output), so retried dispatches stay
      // bit-identical to a fault-free run.
      state.code = classify_failure(std::current_exception());
      if (state.code == ErrorCode::kSilentCorruption) {
        metrics_.count(&MetricsSnapshot::sdc_detected);
        for (auto& req : d.batch.requests) req.sdc_seen = true;
      }
      if (util::trace::enabled()) {
        util::trace::instant(
            state.code == ErrorCode::kSilentCorruption ? "sdc_detected" : "fault",
            "serve", {{"code", error_code_name(state.code)}, {"lane", lane},
                      {"batch_seq", d.batch.seq}});
      }
    }
    if (tightest != clock::time_point::max()) {
      state.slack_seconds = seconds_between(clock::now(), tightest);
    }
    next = recover(state);
    if (next.action != Recovery::Action::kDegrade) break;
    set_degraded(tenant, true);
    state.degraded = true;
  }
  if (state.code == ErrorCode::kOk) {
    if (state.degraded) {
      metrics_.count(&MetricsSnapshot::degraded_batches);
      if (util::trace::enabled()) {
        util::trace::instant("degraded_dispatch", "serve",
                             {{"tenant", static_cast<std::int64_t>(tenant)},
                              {"batch_seq", d.batch.seq}});
      }
    } else if (d.was_degraded) {
      set_degraded(tenant, false);  // a full sharded dispatch again: healed
    }
    if (std::any_of(d.batch.requests.begin(), d.batch.requests.end(),
                    [](const PendingRequest& r) { return r.sdc_seen; })) {
      // The re-dispatch verified clean: the corruption was transient
      // and the recompute is bit-identical to a never-corrupted run.
      metrics_.count(&MetricsSnapshot::sdc_recomputes);
      if (util::trace::enabled()) {
        util::trace::instant("sdc_recompute", "serve",
                             {{"lane", lane}, {"batch_seq", d.batch.seq}});
      }
    }
  }
  const bool requeued = next.action == Recovery::Action::kRetry ||
                        next.action == Recovery::Action::kQuarantine;
  if (requeued) {
    requeue(d, next.action == Recovery::Action::kQuarantine, next.delay_seconds);
  } else {
    fulfil(lane, d, state.code);
  }
  end_dispatch(lane, d, sim_start, span_t0, !requeued, state.code);
}

AsyncScheduler::Dispatch AsyncScheduler::begin_dispatch(Batch batch,
                                                        clock::time_point now) {
  // Queue-depth gauge + per-request queue-wait closure, sampled at the
  // first dispatch (the natural "left the queue" point; a retry's
  // wait in the queue counts as execution).
  const std::size_t depth = queue_.pending();
  metrics_.record_queue_depth(depth);
  for (auto& req : batch.requests) {
    if (req.first_dispatch) continue;
    req.first_dispatch = now;
    if (req.trace_id != 0) util::trace::async_end("queue_wait", "serve", req.trace_id);
  }
  if (util::trace::enabled()) util::trace::counter("queue_depth", static_cast<double>(depth));
  // A shape-keyed batch may span several tenants: stable-sort by
  // tenant (service order preserved within a tenant) so each tenant's
  // requests form one contiguous operator group.
  std::stable_sort(batch.requests.begin(), batch.requests.end(),
                   [](const PendingRequest& a, const PendingRequest& o) {
                     return a.tenant < o.tenant;
                   });
  Dispatch d;
  d.config = precision::PrecisionConfig::parse(batch.key.precision);
  d.results.resize(batch.requests.size());
  {
    // Sharded batches are tenant-homogeneous by key construction
    // (enqueue keys them on the tenant id).
    std::lock_guard lock(tenants_mutex_);
    for (const auto& req : batch.requests) d.ops.push_back(tenants_.at(req.tenant).op);
    d.was_degraded = tenants_.at(batch.requests[0].tenant).degraded;
  }
  d.batch = std::move(batch);
  return d;
}

void AsyncScheduler::attempt(int lane, Dispatch& d, core::CommMode mode) {
  Lane& ls = lanes_[static_cast<std::size_t>(lane)];
  const core::ShardedOperator& op = *d.ops[0];
  const core::ApplyDirection direction = d.batch.key.direction;
  const std::size_t n = d.batch.requests.size();
  const index_t ranks = op.ranks();
  const core::LocalDims& dims = op.rank_dims(direction, 0);
  const index_t out_len = direction == core::ApplyDirection::kForward
                              ? dims.n_t() * dims.global.n_d
                              : dims.n_t() * dims.global.n_m;
  std::vector<core::ConstVectorView> inputs(n);
  std::vector<core::VectorView> outputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.results[i].output.resize(static_cast<std::size_t>(out_len));
    inputs[i] = d.batch.requests[i].input;
    outputs[i] = d.results[i].output;
  }
  // Resolved for this exact (slice shape, batch size, direction,
  // precision): every pipelined dispatch runs a configuration the
  // model validated against serial — a partial, adjoint or
  // lower-precision batch never inherits the full-batch forward-ddddd
  // count.
  d.chunks = pipeline_chunks_for(dims, static_cast<index_t>(n), direction,
                                 d.config);
  while (ls.pairs.size() < static_cast<std::size_t>(ranks)) ls.pairs.emplace_back(dev_);
  // Rank plans ride the shared PlanCache under per-(lane, pair) keys:
  // pair p of lane l encodes l + num_lanes * p, injective, with pair 0
  // at the lane's own index — so a cached plan is never driven from a
  // foreign stream.  Without collectives every slice binds to pair 0
  // (equal-shaped slices legitimately share one plan, reused serially).
  std::vector<std::shared_ptr<core::FftMatvecPlan>> plans;
  std::vector<core::DistributedMatvecPlan::RankLane> rank_lanes;
  {
    const util::trace::Span acquire_span("acquire_plan", "serve");
    for (index_t rk = 0; rk < ranks; ++rk) {
      const index_t p = mode == core::CommMode::kNone ? 0 : rk;
      StreamPair& pair = ls.pairs[static_cast<std::size_t>(p)];
      plans.push_back(cache_.acquire(
          PlanKey{op.rank_dims(direction, rk), options_.matvec, dev_.spec().name,
                  lane + static_cast<int>(lanes_.size() * p)},
          pair.main));
      rank_lanes.push_back({plans.back().get(), &pair.aux});
    }
  }
  const util::trace::Span apply_span("apply", "serve");
  const std::vector<core::PhaseTimings>* shares = nullptr;
  if (ranks == 1) {
    // The whole coalesced batch executes as ONE fused apply_batch: the
    // phase-2/4 FFTs run b * n_s sequences in one launch and phase 3 is
    // a single grouped multi-RHS SBGEMV carrying one operator-spectrum
    // pointer per contiguous same-tenant run, so matrix traffic is paid
    // once per (frequency, tenant) instead of once per request.
    std::vector<core::FftMatvecPlan::OperatorGroup> groups;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && d.batch.requests[i].tenant == d.batch.requests[i - 1].tenant) {
        ++groups.back().rhs_count;
      } else {
        groups.push_back({&d.ops[i]->rank_op(direction, 0), 1});
      }
    }
    d.groups = static_cast<int>(groups.size());
    plans[0]->apply_batch(groups, direction, d.config, inputs, outputs,
                          {d.chunks, rank_lanes[0].aux, options_.verify_mode});
    shares = &plans[0]->last_batch_timings();
  } else {
    // One sharded apply: broadcast and gather fused across all n
    // right-hand sides (kBatched), per-rank compute on the lane's
    // stream pairs — or, degraded (kNone), every slice serially on
    // pair 0 with zero collectives, outputs bit-identical (slice
    // supports are disjoint).
    try {
      ls.dist->apply_batch(op, direction, d.config, inputs, outputs, rank_lanes,
                           mode, d.chunks, options_.verify_mode);
    } catch (const comm::RankFailure& rf) {
      metrics_.count(&MetricsSnapshot::rank_failures);
      if (util::trace::enabled()) {
        util::trace::instant(
            "rank_failure", "serve",
            {{"tenant", static_cast<std::int64_t>(d.batch.requests[0].tenant)},
             {"rank", static_cast<std::int64_t>(rf.rank())},
             {"batch_seq", d.batch.seq}});
      }
      throw;
    }
    if (mode != core::CommMode::kNone) metrics_.record_comm(lane, ls.dist->last_timings().comm);
    shares = &ls.dist->last_batch_timings();
  }
  for (std::size_t i = 0; i < n; ++i) d.results[i].timings = (*shares)[i];
}

void AsyncScheduler::requeue(Dispatch& d, bool quarantine, double delay_seconds) {
  // Retries wait out their backoff in the queue, holding their key's
  // place (original arrival seq) but never the lane.
  const auto not_before =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(delay_seconds));
  if (!quarantine) metrics_.count(&MetricsSnapshot::retries_attempted);
  if (util::trace::enabled()) {
    util::trace::instant(quarantine ? "quarantine" : "retry", "serve",
                         {{"batch_seq", d.batch.seq},
                          {"size", static_cast<std::int64_t>(d.batch.requests.size())}});
  }
  for (auto& req : d.batch.requests) {
    ++req.retries;
    if (quarantine) {
      metrics_.count(&MetricsSnapshot::retries_attempted);
      req.solo = true;
      req.attempts = 0;
      req.sdc_seen = false;
    } else {
      ++req.attempts;
      req.not_before = not_before;
    }
    queue_.requeue(d.batch.key, std::move(req));
  }
}

void AsyncScheduler::fulfil(int lane, Dispatch& d, ErrorCode code) {
  const bool failed = code != ErrorCode::kOk;
  const auto fulfilled = clock::now();
  for (std::size_t r = 0; r < d.batch.requests.size(); ++r) {
    auto& req = d.batch.requests[r];
    if (code == ErrorCode::kSilentCorruption) {
      // Every retry and the solo quarantine re-dispatch still tripped
      // verification: under the transient-corruption model this marks
      // a miscalibrated tolerance, counted as a false positive.
      metrics_.count(&MetricsSnapshot::sdc_false_positives);
    }
    // Fulfilled-late test against the wall clock at fulfilment; a
    // failed request with a deadline also counts as a miss (it was
    // certainly not served on time).
    const bool missed =
        req.has_deadline() && (failed || fulfilled > req.deadline);
    // Failures are VALUES, never future exceptions: the code says why,
    // and the batch/latency fields below still describe the final
    // dispatch (see the AsyncScheduler error contract).
    MatvecResult result = failed ? MatvecResult{} : std::move(d.results[r]);
    result.error = code;
    // span(): the request's share of the batch's end-to-end makespan,
    // so per-request sim times still sum to the lane clock advance when
    // a pipelined batch overlapped phases (busy-time per phase stays
    // available in `timings`).
    result.sim_seconds = result.timings.span();
    result.queue_seconds = seconds_between(req.enqueued, *req.first_dispatch);
    result.exec_seconds = seconds_between(*req.first_dispatch, fulfilled);
    result.batch_size = static_cast<int>(d.batch.requests.size());
    result.lane = lane;
    result.batch_seq = d.batch.seq;
    result.session = req.session;
    result.deadline_missed = missed;
    result.retries = req.retries;
    complete(req, std::move(result));
  }
}

void AsyncScheduler::end_dispatch(int lane, const Dispatch& d, double sim_start,
                                  double span_t0, bool fulfilled,
                                  ErrorCode code) {
  const Lane& ls = lanes_[static_cast<std::size_t>(lane)];
  const auto size = static_cast<std::int64_t>(d.batch.requests.size());
  metrics_.record_batch(static_cast<int>(size), ls.pairs[0].main.now() - sim_start);
  // Lane utilisation, sampled here because only the owning lane thread
  // may read its streams' (plain double) clocks: busy is the summed
  // charged work of every pair, wall their makespan.
  double lane_busy = 0.0, lane_wall = 0.0;
  for (const auto& pair : ls.pairs) {
    lane_busy += pair.main.busy() + pair.aux.busy();
    lane_wall = std::max({lane_wall, pair.main.now(), pair.aux.now()});
  }
  metrics_.record_lane(lane, fulfilled ? size : 0, lane_busy, lane_wall);
  if (util::trace::enabled()) {
    const auto& g = d.batch.key.dims.global;
    util::trace::complete(
        "batch", "serve", span_t0, util::trace::now_us() - span_t0,
        {{"batch_seq", d.batch.seq},
         {"size", size},
         {"groups", static_cast<std::int64_t>(d.groups)},
         {"chunks", d.chunks},
         {"lane", lane},
         {"shape", std::to_string(g.n_m) + "x" + std::to_string(g.n_d) + "x" +
                       std::to_string(g.n_t)},
         {"dir", direction_name(d.batch.key.direction)},
         {"precision", d.batch.key.precision},
         {"code", error_code_name(code)},
         {"requeued", fulfilled ? 0 : 1}});
  }
  const auto cache_stats = cache_.stats();
  metrics_.record_cache(cache_stats.hits, cache_stats.misses, cache_stats.evictions);
  // Released last, so a drain() that returns has every record of this
  // dispatch (metrics and trace span) in place.
  if (fulfilled) release(d.batch.requests, /*counted=*/true);
}

void AsyncScheduler::set_degraded(TenantId tenant, bool degraded) {
  {
    std::lock_guard lock(tenants_mutex_);
    if (const auto it = tenants_.find(tenant); it != tenants_.end()) {
      it->second.degraded = degraded;
    }
  }
  if (!degraded && util::trace::enabled()) {
    util::trace::instant("rank_healed", "serve",
                         {{"tenant", static_cast<std::int64_t>(tenant)}});
  }
}

void AsyncScheduler::drain() {
  std::unique_lock lock(state_mutex_);
  cv_drained_.wait(lock, [&] { return in_flight_ == 0; });
}

void AsyncScheduler::shutdown() {
  {
    std::lock_guard lock(state_mutex_);
    accepting_ = false;
  }
  // Workers drain everything already queued before pop_batch returns
  // nullopt, so accepted futures are all fulfilled.
  queue_.close();
  bool join = false;
  {
    std::lock_guard lock(state_mutex_);
    if (!workers_stopped_) {
      workers_stopped_ = true;
      join = true;
    }
  }
  if (join) {
    for (auto& lane : lanes_) {
      if (lane.worker.joinable()) lane.worker.join();
    }
  }
  drain();
}

MetricsSnapshot AsyncScheduler::metrics() const {
  // Refresh cache counters even before the first batch executes.
  const auto cache_stats = cache_.stats();
  metrics_.record_cache(cache_stats.hits, cache_stats.misses, cache_stats.evictions);
  MetricsSnapshot snap = metrics_.snapshot();
  // Injected-vs-observed audit: surface the device FaultPlan's own
  // counters next to the serve-level outcomes (resilience_table pairs
  // them up).
  if (const device::FaultPlan* plan = dev_.fault_plan()) {
    snap.have_fault_stats = true;
    snap.fault_stats = plan->stats();
  }
  return snap;
}

double AsyncScheduler::max_lane_sim_seconds() const {
  // Max-over-streams: a pipelined apply joins the pair before
  // returning, so the main stream normally dominates, but the aux
  // clocks are included for the makespan-accounting contract.
  double m = 0.0;
  for (const auto& lane : lanes_) {
    for (const auto& pair : lane.pairs) {
      m = std::max({m, pair.main.now(), pair.aux.now()});
    }
  }
  return m;
}

int AsyncScheduler::resolved_pipeline_chunks(const core::ProblemDims& dims) {
  return pipeline_chunks_for(core::LocalDims::single_rank(dims),
                             static_cast<index_t>(options_.max_batch),
                             core::ApplyDirection::kForward,
                             precision::PrecisionConfig{});
}

}  // namespace fftmv::serve
