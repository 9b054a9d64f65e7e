// Deterministic fault injection for the simulated runtime.
//
// A FaultPlan attached to a Device perturbs four sites:
//
//   * kernel launches  — Stream::launch throws StreamFault *before*
//     running numerics (the fault is detected at kernel completion in
//     the model, so the stream clock still advances, but no partial
//     writes happen and a retried dispatch recomputes bit-identical
//     outputs);
//   * allocations      — Device::track_alloc throws DeviceOutOfMemory,
//     modelling plan-creation OOM;
//   * rank-group syncs — DistributedMatvecPlan::apply_batch consults
//     on_group_sync() at its entry collective and throws
//     comm::RankFailure when a rank of the group is down;
//   * buffer writes    — blas::sbgemv_grouped (and so blas::sbgemv)
//     consults on_buffer_write() after its main launch and, when the hook
//     fires, flips an exponent bit of one element of the output
//     DeviceVector.  The kernel "succeeds" and the result is silently
//     wrong — detectable only by ABFT verification (VerifyMode).  The
//     corrupted element is itself a deterministic draw, so detection
//     and recompute replay bit-identically.
//
// Faults come from two sources that compose: scripted windows over
// each site's own monotonically increasing counter (exact, for tests)
// and seeded Bernoulli sampling hashed from (seed, site, counter)
// (for chaos benches).  Both are pure functions of the counters, so a
// run with the same plan and the same sequence of hook calls replays
// bit-identically; there is no dependence on wall clock or thread
// scheduling beyond the order the counters are drawn in.
//
// Attach with Device::set_fault_plan *after* setup (tenant
// registration, spectrum warming) so the counters index request-path
// work; phantom probe devices are separate Device instances and are
// never perturbed.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace fftmv::device {

/// Thrown by Stream::launch when the attached FaultPlan injects a
/// transient stream/kernel failure.  Retryable: the launch aborted
/// before any numerics ran, so re-dispatching the same work yields
/// bit-identical outputs.
class StreamFault : public std::runtime_error {
 public:
  explicit StreamFault(std::uint64_t launch_index);
  std::uint64_t launch_index() const { return launch_index_; }

 private:
  std::uint64_t launch_index_;
};

/// Thrown by an ABFT verification pass (GEMV column checksum, FFT
/// Parseval invariant) when a computed result fails its invariant
/// beyond the calibrated mixed-precision tolerance.  Retryable: the
/// corruption model is transient (a buffer-write bit flip), so
/// re-dispatching the same work yields bit-identical clean outputs.
class SilentCorruption : public std::runtime_error {
 public:
  SilentCorruption(const std::string& site, const std::string& detail);
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Failure record of one ABFT verify launch, shared by its parallel
/// gridblocks.  `count` tallies every failing check; the numbers kept
/// are those of the lowest (entry, sub) key, so the SilentCorruption
/// message is the same on every replay.
struct VerifyFailure {
  std::atomic<int> count{0};
  index_t entry = -1;
  index_t sub = -1;
  double diff = 0.0;
  double bound = 0.0;
  std::mutex mutex;  ///< guards the fields after `count`

  /// One invariant check: fails on !(diff <= bound), so a NaN
  /// difference trips, and on a non-finite bound (an Inf/NaN among
  /// the magnitudes), so a non-finite result never passes.
  void check(index_t at_entry, index_t at_sub, double at_diff,
             double at_bound);
};

struct FaultPlanOptions {
  std::uint64_t seed = 1;
  /// Per-launch probability of a transient kernel fault.
  double kernel_fault_rate = 0.0;
  /// Per-allocation probability of an injected DeviceOutOfMemory.
  double alloc_fault_rate = 0.0;
  /// Per-group-sync probability that a rank of the group goes down.
  double rank_fault_rate = 0.0;
  /// Per-verified-buffer-write probability of a silent bit flip in a
  /// kernel's output buffer (the SDC injection site).
  double buffer_fault_rate = 0.0;
  /// How many subsequent group syncs a sampled rank outage lasts
  /// before the rank heals (scripted outages carry their own window).
  std::uint64_t rank_outage_syncs = 4;
};

/// Counters of hook calls and injected faults, for assertions and
/// reporting.  Counter values are also the index space the scripted
/// fail_* windows address.
struct FaultStats {
  std::uint64_t kernel_launches = 0;
  std::uint64_t kernel_faults = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_faults = 0;
  std::uint64_t group_syncs = 0;
  std::uint64_t rank_faults = 0;
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_faults = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanOptions options = {});

  // Scripted faults: half-open windows [begin, end) over the site's
  // own counter (see FaultStats).  Windows may be added at any time
  // and compose with sampled faults.
  void fail_kernel_launches(std::uint64_t begin, std::uint64_t end);
  void fail_allocs(std::uint64_t begin, std::uint64_t end);
  /// Rank `rank` is down for group syncs [begin, end).  Windows whose
  /// rank is outside a group's size are ignored for that group.
  void fail_rank(index_t rank, std::uint64_t begin, std::uint64_t end);
  void fail_buffer_writes(std::uint64_t begin, std::uint64_t end);

  /// Hook for Stream::launch; true = inject a StreamFault.  Each call
  /// consumes one kernel-launch index.
  bool on_kernel_launch();

  /// Hook for Device::track_alloc; true = inject DeviceOutOfMemory.
  bool on_alloc();

  /// Hook for a rank-group collective sync over `ranks` ranks.
  /// Returns the down rank, or -1 when the whole group is healthy.
  /// Each call consumes one group-sync index; a sampled outage keeps
  /// the same rank down for rank_outage_syncs subsequent calls.
  index_t on_group_sync(index_t ranks);

  /// Hook for a kernel's output-buffer write-back.  Each call
  /// consumes one buffer-write index.  Returns nullopt when the
  /// buffer stays clean; on a fault, returns a deterministic 64-bit
  /// draw the caller maps onto an element (and a bit) of the buffer,
  /// so the corrupted location replays bit-identically.
  std::optional<std::uint64_t> on_buffer_write();

  FaultStats stats() const;

 private:
  struct Window {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  struct RankWindow {
    index_t rank = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  static bool in_window(const std::vector<Window>& windows, std::uint64_t i);
  bool sampled(std::uint64_t site, std::uint64_t counter, double rate) const;

  FaultPlanOptions options_;
  mutable std::mutex mutex_;
  FaultStats stats_;
  std::vector<Window> kernel_windows_;
  std::vector<Window> alloc_windows_;
  std::vector<RankWindow> rank_windows_;
  std::vector<Window> buffer_windows_;
  // Sampled-outage state: down_rank_ is down until group-sync counter
  // down_until_.
  index_t down_rank_ = -1;
  std::uint64_t down_until_ = 0;
};

}  // namespace fftmv::device
