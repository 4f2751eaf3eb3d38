#pragma once

/// \file trace.h
/// \brief In-memory span recorder for the benchmark's traced runs.
///
/// Spans are recorded from the benchmark's own code around each call into a
/// library layer (core, query, stats, ml, hpo, serve, table). A span name is
/// "<layer>.<operation>"; the layer is the part before the first dot. Each
/// span carries its parent (the innermost open span on the same thread, or
/// an explicit one) and a trace id shared by every span of one request or
/// one fit. Nothing is written while the benchmark runs: the spans stay in
/// memory and are exported once, at exit, as Chrome trace-event JSON
/// (loadable in Perfetto or chrome://tracing).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;    // 0 = root
    uint64_t trace_id = 0;  // request / fit id; 0 = none
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t tid = 0;
  };

  /// The process-wide recorder. Disabled until Enable(true).
  static Tracer& Get();

  void Enable(bool on);
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when tracing is off). The parent is
  /// the innermost span this thread has open. `trace_id` 0 inherits the
  /// parent's trace id.
  uint64_t Begin(const char* name, uint64_t trace_id);
  void End(uint64_t id);

  /// Closed spans recorded so far, in end order.
  std::vector<Span> Spans() const;
  size_t num_spans() const;

  /// Self time per layer in seconds: each span's duration minus the part of
  /// its interval covered by its child spans, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the recorded spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps). `metadata` lands in "otherData".
  bool WriteChromeJson(const std::string& path,
                       const std::map<std::string, std::string>& metadata) const;

  static int64_t NowNs();

 private:
  Tracer() = default;

  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Span> open_;  // guarded by mu_
  std::vector<Span> closed_;       // guarded by mu_
};

/// RAII span. A no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t trace_id = 0)
      : id_(Tracer::Get().Begin(name, trace_id)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench
