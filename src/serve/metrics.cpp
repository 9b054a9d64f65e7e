#include "serve/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace fftmv::serve {

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LatencySummary summarize(std::vector<double> samples, std::uint64_t population) {
  LatencySummary s;
  s.count = static_cast<std::int64_t>(population);
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  const auto quantile = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  s.max = samples.back();
  return s;
}

std::string ms(double seconds) { return util::Table::fmt(seconds * 1e3, 3); }

}  // namespace

void ServeMetrics::record_submit() {
  std::lock_guard lock(mutex_);
  ++counters_.submitted;
  if (first_submit_wall_ < 0.0) first_submit_wall_ = wall_now();
}

void ServeMetrics::record_request(double queue_seconds, double exec_seconds,
                                  ErrorCode error, std::uint64_t session,
                                  bool had_deadline, bool missed, int retries) {
  const double total_seconds = queue_seconds + exec_seconds;
  std::lock_guard lock(mutex_);
  if (error != ErrorCode::kOk) {
    ++counters_.failed;
    ++counters_.errors[error];
    if (error == ErrorCode::kShed) ++counters_.shed;
    if (error == ErrorCode::kQueueFull) ++counters_.rejected;
  } else {
    ++counters_.completed;
    if (retries > 0) ++counters_.retries_succeeded;
  }
  if (had_deadline) {
    ++counters_.deadline_total;
    if (missed) ++counters_.deadline_missed;
  }
  if (session != 0) {
    SessionStats& st = session_stats_[session];
    ++st.requests;
    if (missed) ++st.deadline_missed;
    ++st.population;
    if (st.total_samples.size() < kMaxSessionSamples) {
      st.total_samples.push_back(total_seconds);
    } else {
      reservoir_rng_ =
          reservoir_rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t slot = reservoir_rng_ % st.population;
      if (slot < kMaxSessionSamples) st.total_samples[slot] = total_seconds;
    }
  }
  ++sample_count_;
  if (queue_samples_.size() < kMaxSamples) {
    queue_samples_.push_back(queue_seconds);
    exec_samples_.push_back(exec_seconds);
    total_samples_.push_back(total_seconds);
    return;
  }
  // Reservoir replacement (Algorithm R): each request survives into
  // the reservoir with probability kMaxSamples / sample_count_.  The
  // three populations share one slot draw so a request's queue/exec/
  // total samples stay aligned.
  reservoir_rng_ = reservoir_rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = reservoir_rng_ % sample_count_;
  if (slot < kMaxSamples) {
    queue_samples_[slot] = queue_seconds;
    exec_samples_[slot] = exec_seconds;
    total_samples_[slot] = total_seconds;
  }
}

void ServeMetrics::close_session(std::uint64_t session) {
  if (session == 0) return;
  SessionStats st;
  {
    std::lock_guard lock(mutex_);
    const auto it = session_stats_.find(session);
    if (it == session_stats_.end()) return;
    st = std::move(it->second);
    session_stats_.erase(it);
  }
  // The final sort runs outside the lock, like snapshot()'s, so
  // retiring a session never stalls the request hot path.
  const LatencySummary s = summarize(std::move(st.total_samples), st.population);
  std::lock_guard lock(mutex_);
  SessionSummary& out = retired_sessions_[session];
  out.requests = st.requests;
  out.deadline_missed = st.deadline_missed;
  out.p50 = s.p50;
  out.p95 = s.p95;
  out.p99 = s.p99;
  // A retired summary is a few dozen bytes, but still bound the count
  // so endless session churn cannot grow the map forever; the lowest
  // (oldest) ids fall off first.
  while (retired_sessions_.size() > kMaxRetiredSessions) {
    retired_sessions_.erase(retired_sessions_.begin());
  }
}

void ServeMetrics::count(std::int64_t MetricsSnapshot::*counter) {
  std::lock_guard lock(mutex_);
  ++(counters_.*counter);
}

void ServeMetrics::record_batch(int size, double sim_seconds) {
  std::lock_guard lock(mutex_);
  ++counters_.batches;
  ++counters_.batch_histogram[size];
  counters_.sim_seconds += sim_seconds;
}

void ServeMetrics::record_cache(std::int64_t hits, std::int64_t misses,
                                std::int64_t evictions) {
  std::lock_guard lock(mutex_);
  counters_.cache_hits = hits;
  counters_.cache_misses = misses;
  counters_.cache_evictions = evictions;
}

void ServeMetrics::record_lane(int lane, std::int64_t requests,
                               double busy_sim_seconds,
                               double wall_sim_seconds) {
  if (lane < 0) return;
  std::lock_guard lock(mutex_);
  if (counters_.lanes.size() <= static_cast<std::size_t>(lane)) {
    counters_.lanes.resize(static_cast<std::size_t>(lane) + 1);
  }
  LaneSummary& s = counters_.lanes[static_cast<std::size_t>(lane)];
  ++s.batches;
  s.requests += requests;
  // Stream clocks are cumulative since lane creation, so the sample
  // overwrites (each new sample subsumes the previous one).
  s.busy_sim_seconds = busy_sim_seconds;
  s.wall_sim_seconds = wall_sim_seconds;
}

void ServeMetrics::record_comm(int lane, double sim_seconds) {
  std::lock_guard lock(mutex_);
  ++counters_.sharded_batches;
  counters_.comm_sim_seconds += sim_seconds;
  if (lane < 0) return;
  if (counters_.lanes.size() <= static_cast<std::size_t>(lane)) {
    counters_.lanes.resize(static_cast<std::size_t>(lane) + 1);
  }
  counters_.lanes[static_cast<std::size_t>(lane)].comm_sim_seconds +=
      sim_seconds;
}

void ServeMetrics::record_queue_depth(std::size_t depth) {
  const auto d = static_cast<std::int64_t>(depth);
  std::lock_guard lock(mutex_);
  counters_.queue_depth_last = d;
  counters_.queue_depth_peak = std::max(counters_.queue_depth_peak, d);
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot snap;
  std::vector<double> queue_samples, exec_samples, total_samples;
  std::map<std::uint64_t, SessionStats> session_stats;
  std::uint64_t population = 0;
  {
    // Copy under the lock; the sorts in summarize() run outside it so
    // snapshotting never stalls the request hot path.
    std::lock_guard lock(mutex_);
    snap = counters_;
    snap.wall_seconds =
        first_submit_wall_ >= 0.0 ? wall_now() - first_submit_wall_ : 0.0;
    queue_samples = queue_samples_;
    exec_samples = exec_samples_;
    total_samples = total_samples_;
    session_stats = session_stats_;
    snap.sessions = retired_sessions_;
    population = sample_count_;
  }
  snap.queue_latency = summarize(std::move(queue_samples), population);
  snap.exec_latency = summarize(std::move(exec_samples), population);
  snap.total_latency = summarize(std::move(total_samples), population);
  for (auto& [id, st] : session_stats) {
    const LatencySummary s =
        summarize(std::move(st.total_samples), st.population);
    SessionSummary& out = snap.sessions[id];
    out.requests = st.requests;
    out.deadline_missed = st.deadline_missed;
    out.p50 = s.p50;
    out.p95 = s.p95;
    out.p99 = s.p99;
  }
  return snap;
}

util::Table MetricsSnapshot::summary_table() const {
  util::Table t({"submitted", "completed", "failed", "batches",
                 "sharded batches", "mean batch", "throughput req/s",
                 "cache hit rate", "deadline miss", "queue depth", "sim s",
                 "comm sim s"});
  t.add_row({std::to_string(submitted), std::to_string(completed),
             std::to_string(failed), std::to_string(batches),
             std::to_string(sharded_batches),
             util::Table::fmt(mean_batch_size(), 2),
             util::Table::fmt(throughput_rps(), 0),
             util::Table::fmt_pct(cache_hit_rate()),
             std::to_string(deadline_missed) + "/" +
                 std::to_string(deadline_total),
             std::to_string(queue_depth_last) + "/" +
                 std::to_string(queue_depth_peak),
             util::Table::fmt(sim_seconds, 4),
             util::Table::fmt(comm_sim_seconds, 4)});
  return t;
}

util::Table MetricsSnapshot::latency_table() const {
  util::Table t({"latency ms", "mean", "p50", "p95", "p99", "max"});
  const auto row = [&](const char* name, const LatencySummary& s) {
    t.add_row({name, ms(s.mean), ms(s.p50), ms(s.p95), ms(s.p99), ms(s.max)});
  };
  row("queueing", queue_latency);
  row("execution", exec_latency);
  row("total", total_latency);
  return t;
}

util::Table MetricsSnapshot::batch_table() const {
  util::Table t({"batch size", "dispatches"});
  for (const auto& [size, count] : batch_histogram) {
    t.add_row({std::to_string(size), std::to_string(count)});
  }
  return t;
}

util::Table MetricsSnapshot::session_table() const {
  util::Table t(
      {"session", "requests", "deadline miss", "p50 ms", "p95 ms", "p99 ms"});
  for (const auto& [id, s] : sessions) {
    t.add_row({std::to_string(id), std::to_string(s.requests),
               std::to_string(s.deadline_missed), ms(s.p50), ms(s.p95),
               ms(s.p99)});
  }
  return t;
}

util::Table MetricsSnapshot::lane_table() const {
  util::Table t({"lane", "batches", "requests", "busy sim ms", "wall sim ms",
                 "comm sim ms", "utilization"});
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const LaneSummary& s = lanes[i];
    t.add_row({std::to_string(i), std::to_string(s.batches),
               std::to_string(s.requests), ms(s.busy_sim_seconds),
               ms(s.wall_sim_seconds), ms(s.comm_sim_seconds),
               util::Table::fmt_pct(s.utilization())});
  }
  return t;
}

util::Table MetricsSnapshot::error_table() const {
  util::Table t({"error code", "count"});
  for (const auto& [code, count] : errors) {
    t.add_row({error_code_name(code), std::to_string(count)});
  }
  return t;
}

util::Table MetricsSnapshot::resilience_table() const {
  util::Table t({"retries attempted", "retries succeeded", "shed", "rejected",
                 "rank failures", "degraded batches", "sdc detected",
                 "sdc recomputes", "sdc false positives", "injected faults"});
  // Injected-vs-observed audit column: everything the device FaultPlan
  // actually injected (kernel + alloc + rank + buffer), to hold
  // against the serve-level detection/retry counters on its left.
  const std::string injected =
      have_fault_stats
          ? std::to_string(fault_stats.kernel_faults + fault_stats.alloc_faults +
                           fault_stats.rank_faults + fault_stats.buffer_faults)
          : "n/a";
  t.add_row({std::to_string(retries_attempted),
             std::to_string(retries_succeeded), std::to_string(shed),
             std::to_string(rejected), std::to_string(rank_failures),
             std::to_string(degraded_batches), std::to_string(sdc_detected),
             std::to_string(sdc_recomputes),
             std::to_string(sdc_false_positives), injected});
  return t;
}

void MetricsSnapshot::print(std::ostream& os) const {
  summary_table().print(os);
  os << '\n';
  latency_table().print(os);
  if (!batch_histogram.empty()) {
    os << '\n';
    batch_table().print(os);
  }
  if (!lanes.empty()) {
    os << '\n';
    lane_table().print(os);
  }
  if (!sessions.empty()) {
    os << '\n';
    session_table().print(os);
  }
  if (!errors.empty()) {
    os << '\n';
    error_table().print(os);
  }
  if (retries_attempted > 0 || shed > 0 || rejected > 0 || rank_failures > 0 ||
      degraded_batches > 0 || sdc_detected > 0 || sdc_false_positives > 0 ||
      have_fault_stats) {
    os << '\n';
    resilience_table().print(os);
  }
}

}  // namespace fftmv::serve
