#pragma once

/// \file plan_registry.h
/// \brief Multi-tenant registry of fitted plans: N serialized plans keyed by
/// name, lazily compiled into warm FittedAugmenter handles on first request
/// and kept resident under an LRU byte cap.
///
/// The daemon serves many plans from one process; keeping every warm
/// handle (relevant table, group key maps, frozen per-group features)
/// resident forever would not scale, and reloading per request would throw
/// away the entire point of the serving handle. The registry sits between:
/// Acquire(name) returns a shared warm handle, compiling it from the
/// on-disk plan (plan_io::LoadFittedAugmenter) exactly once per residency —
/// concurrent first requests for the same plan wait for the one in-flight
/// load instead of duplicating the compile — and when the sum of
/// warm-handle sizes (FittedAugmenter::SizeBytes) exceeds the cap, the
/// least-recently-acquired resident plans are evicted.
///
/// **Pinning.** Eviction only drops the registry's reference; the handle
/// itself is returned as shared_ptr<const FittedAugmenter>, so every
/// in-flight request pins the handle it is using — an evicted plan's
/// frozen features survive until the last outstanding request releases
/// them, and a running Transform can never lose them mid-flight. The byte
/// cap therefore bounds *registry-resident* warm bytes; transient overshoot
/// while evicted handles drain is possible and intended (the alternative is
/// thrashing in-flight requests).
///
/// Thread-safety: all public methods are safe to call concurrently. Loads
/// run outside the registry lock (a slow compile of plan A never blocks a
/// hit on plan B); the waiting/loading handshake is a per-entry state
/// machine guarded by the one registry mutex.
///
/// On-disk layout (DiscoverPlans): a plan named `<name>` is the pair
/// `<name>.sql` (the serialized plan, plan_io format) and
/// `<name>.relevant.csv` (the relevant table it joins against).

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/augmenter.h"
#include "serve/protocol.h"

namespace featlib {
namespace serve {

struct PlanRegistryOptions {
  /// Cap on the summed SizeBytes() of registry-resident warm handles.
  /// 0 = unlimited. Exceeding it evicts least-recently-acquired residents
  /// (never the one being acquired).
  size_t warm_cap_bytes = 512u << 20;
};

class PlanRegistry {
 public:
  explicit PlanRegistry(PlanRegistryOptions options = {})
      : options_(options) {}

  PlanRegistry(const PlanRegistry&) = delete;
  PlanRegistry& operator=(const PlanRegistry&) = delete;

  /// Registers a plan by its file pair without loading it. Fails on a
  /// duplicate name.
  Status AddPlan(const std::string& name, const std::string& plan_path,
                 const std::string& relevant_csv_path);

  /// Scans `dir` for `<name>.sql` + `<name>.relevant.csv` pairs and
  /// registers each. Unpaired files are ignored. Returns the number of
  /// plans found via *out (optional).
  Status DiscoverPlans(const std::string& dir, size_t* num_found = nullptr);

  /// Returns the warm handle for `name`, compiling it on first request.
  /// The returned shared_ptr pins the handle (and its frozen features)
  /// against eviction for as long as the caller holds it. A failed load is
  /// not sticky: the error is returned and the next Acquire retries.
  Result<std::shared_ptr<const FittedAugmenter>> Acquire(
      const std::string& name);

  /// All registered plans, alphabetical, with residency and resident bytes.
  std::vector<PlanInfo> List() const;

  /// \name Introspection (tests, stats endpoint).
  /// @{
  bool IsResident(const std::string& name) const;
  size_t warm_bytes() const;
  size_t num_loads() const;
  size_t num_evictions() const;
  /// @}

 private:
  struct Entry {
    std::string plan_path;
    std::string relevant_csv_path;
    /// Resident handle; null while cold or mid-load.
    std::shared_ptr<const FittedAugmenter> handle;
    size_t warm_bytes = 0;
    /// Monotonic acquisition stamp for LRU ordering.
    uint64_t last_used = 0;
    bool loading = false;
  };

  /// Evicts least-recently-used residents (excluding `keep`) until the cap
  /// holds. Caller holds mu_.
  void EvictForLocked(const std::string& keep);

  PlanRegistryOptions options_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t use_tick_ = 0;
  size_t warm_bytes_ = 0;
  size_t num_loads_ = 0;
  size_t num_evictions_ = 0;
};

}  // namespace serve
}  // namespace featlib
