#include "device/fault_plan.hpp"

#include <cmath>
#include <string>

namespace fftmv::device {

namespace {

// splitmix64: a full-period 64-bit mixer.  Hashing (seed, site,
// counter) through it gives every hook call an independent,
// reproducible uniform draw.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kSiteKernel = 0x6b65726e;  // "kern"
constexpr std::uint64_t kSiteAlloc = 0x616c6c6f;   // "allo"
constexpr std::uint64_t kSiteRank = 0x72616e6b;    // "rank"
constexpr std::uint64_t kSiteBuffer = 0x62756666;  // "buff"

double uniform01(std::uint64_t h) {
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

StreamFault::StreamFault(std::uint64_t launch_index)
    : std::runtime_error("injected transient stream fault at kernel launch " +
                         std::to_string(launch_index)),
      launch_index_(launch_index) {}

SilentCorruption::SilentCorruption(const std::string& site,
                                   const std::string& detail)
    : std::runtime_error("silent data corruption detected at " + site + ": " +
                         detail),
      site_(site) {}

void VerifyFailure::check(index_t at_entry, index_t at_sub, double at_diff,
                          double at_bound) {
  if (!(at_diff <= at_bound) || !std::isfinite(at_bound)) {
    count.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mutex);
    if (entry < 0 || at_entry < entry || (at_entry == entry && at_sub < sub)) {
      entry = at_entry;
      sub = at_sub;
      diff = at_diff;
      bound = at_bound;
    }
  }
}

FaultPlan::FaultPlan(FaultPlanOptions options) : options_(options) {
  for (const double rate :
       {options_.kernel_fault_rate, options_.alloc_fault_rate,
        options_.rank_fault_rate, options_.buffer_fault_rate}) {
    if (rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument(
          "FaultPlan: fault rates must be within [0, 1]");
    }
  }
}

void FaultPlan::fail_kernel_launches(std::uint64_t begin, std::uint64_t end) {
  std::lock_guard lock(mutex_);
  kernel_windows_.push_back({begin, end});
}

void FaultPlan::fail_allocs(std::uint64_t begin, std::uint64_t end) {
  std::lock_guard lock(mutex_);
  alloc_windows_.push_back({begin, end});
}

void FaultPlan::fail_rank(index_t rank, std::uint64_t begin,
                          std::uint64_t end) {
  if (rank < 0) throw std::invalid_argument("FaultPlan: rank must be >= 0");
  std::lock_guard lock(mutex_);
  rank_windows_.push_back({rank, begin, end});
}

void FaultPlan::fail_buffer_writes(std::uint64_t begin, std::uint64_t end) {
  std::lock_guard lock(mutex_);
  buffer_windows_.push_back({begin, end});
}

bool FaultPlan::in_window(const std::vector<Window>& windows,
                          std::uint64_t i) {
  for (const Window& w : windows) {
    if (i >= w.begin && i < w.end) return true;
  }
  return false;
}

bool FaultPlan::sampled(std::uint64_t site, std::uint64_t counter,
                        double rate) const {
  if (rate <= 0.0) return false;
  const std::uint64_t h = mix64(options_.seed ^ mix64(site ^ mix64(counter)));
  return uniform01(h) < rate;
}

bool FaultPlan::on_kernel_launch() {
  std::lock_guard lock(mutex_);
  const std::uint64_t i = stats_.kernel_launches++;
  const bool fault = in_window(kernel_windows_, i) ||
                     sampled(kSiteKernel, i, options_.kernel_fault_rate);
  if (fault) ++stats_.kernel_faults;
  return fault;
}

bool FaultPlan::on_alloc() {
  std::lock_guard lock(mutex_);
  const std::uint64_t i = stats_.allocs++;
  const bool fault = in_window(alloc_windows_, i) ||
                     sampled(kSiteAlloc, i, options_.alloc_fault_rate);
  if (fault) ++stats_.alloc_faults;
  return fault;
}

index_t FaultPlan::on_group_sync(index_t ranks) {
  std::lock_guard lock(mutex_);
  const std::uint64_t i = stats_.group_syncs++;
  index_t down = -1;
  for (const RankWindow& w : rank_windows_) {
    if (i >= w.begin && i < w.end && w.rank < ranks) {
      down = w.rank;
      break;
    }
  }
  if (down < 0 && i < down_until_ && down_rank_ < ranks) down = down_rank_;
  if (down < 0 && sampled(kSiteRank, i, options_.rank_fault_rate)) {
    down_rank_ = static_cast<index_t>(
        mix64(options_.seed ^ mix64(kSiteRank + 1) ^ mix64(i)) %
        static_cast<std::uint64_t>(ranks));
    down_until_ = i + 1 + options_.rank_outage_syncs;
    down = down_rank_;
  }
  if (down >= 0) ++stats_.rank_faults;
  return down;
}

std::optional<std::uint64_t> FaultPlan::on_buffer_write() {
  std::lock_guard lock(mutex_);
  const std::uint64_t i = stats_.buffer_writes++;
  const bool fault = in_window(buffer_windows_, i) ||
                     sampled(kSiteBuffer, i, options_.buffer_fault_rate);
  if (!fault) return std::nullopt;
  ++stats_.buffer_faults;
  // The element draw is its own hash so the corrupted location is
  // independent of the fault decision yet fully seed-determined.
  return mix64(options_.seed ^ mix64(kSiteBuffer + 1) ^ mix64(i));
}

FaultStats FaultPlan::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace fftmv::device
