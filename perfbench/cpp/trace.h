#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file trace.h
/// Span recording for the traced run. Spans are recorded by the
/// benchmark around its own calls into the program's layers (the program
/// itself is not instrumented by this), kept in memory, and written out
/// as a chrome://tracing file when the run ends.
///
/// A span name is `<layer>.<operation>`; the layer is everything before
/// the last dot (`core.encode.ObserveSlice` belongs to `core.encode`,
/// `index.scan` to `index`).

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
int64_t NowNs();

/// Seconds between two NowNs() readings.
inline double Seconds(int64_t from_ns, int64_t to_ns) {
  return 1e-9 * static_cast<double>(to_ns - from_ns);
}

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0: a root span
  uint64_t request = 0;  ///< shared by every span of one query; 0: none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief In-memory span store. Every method is a no-op returning 0 when
/// the tracer is disabled, so the untraced run pays one branch per call.
/// Safe to record from several threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Reserve an id for a span that is still open (children need it).
  uint64_t Reserve() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Record a finished span under a reserved \p id (0: assign one).
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0, uint64_t id = 0);

  size_t size() const;
  /// Self time per layer, in milliseconds: each span's duration minus the
  /// part of it that its children cover, summed over the layer's spans.
  std::map<std::string, double> SelfMillisByLayer() const;
  /// chrome://tracing "X" events; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief RAII span: open at construction, recorded at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer.Reserve()),
        start_ns_(tracer.enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) {
      tracer_.Record(name_, start_ns_, NowNs(), parent_, request_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  int64_t start_ns_;
};

/// The layer a span name belongs to (text before the last dot).
std::string LayerOf(const char* name);

/// Every layer the benchmark's spans are named after; the traced run
/// reports the self time of each, 0 for one a workload's spans never
/// reach.
inline constexpr const char* kSpanLayers[] = {"bench", "datagen", "core.encode",
                                              "core", "index", "repo"};

}  // namespace perfbench
