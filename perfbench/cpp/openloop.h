#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/query_backend.h"
#include "core/query_types.h"
#include "cpp/stats.h"
#include "cpp/trace.h"

/// \file openloop.h
/// The open-loop request generator: requests are sent on a Poisson
/// schedule whether or not earlier ones have completed, and each is timed
/// from when it was due, so a stall charges its wait to every request
/// queued behind it. One thread sends and harvests: it submits every due
/// request, then polls the outstanding futures (without sleeping while any
/// is outstanding) and stamps each completion when it observes it.

namespace perfbench {

/// One scheduled request: its due time from the phase start and the pool
/// entry it sends.
struct Arrival {
  double due_s = 0.0;
  uint32_t entry = 0;
};

/// Poisson arrivals at \p rate_qps over \p seconds, each drawing a pool
/// entry uniformly. The same arguments give the same schedule.
std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     size_t pool_size, uint64_t seed);

/// One sent request and what came back.
struct Outcome {
  uint32_t entry = 0;
  ppq::core::QueryKind kind = ppq::core::QueryKind::kStrq;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  ppq::core::QueryResponse response;

  double latency_us() const { return 1e-3 * static_cast<double>(done_ns - due_ns); }
  double lateness_us() const { return 1e-3 * static_cast<double>(send_ns - due_ns); }
};

struct PhaseResult {
  /// In send order; only the sent requests.
  std::vector<Outcome> outcomes;
  size_t scheduled = 0;
  /// True when the backlog passed the cap: sending stopped early.
  bool aborted = false;
  /// Requests still outstanding when the last one was sent.
  size_t backlog_at_last_send = 0;
  /// From the first due time to the last completion.
  double wall_s = 0.0;
  /// Process CPU over the phase, minus the generator thread's own.
  double cpu_s = 0.0;
};

struct LoopHooks {
  /// May pool entry `entry` be sent now? (Live ingest gates a query on
  /// the ingest frontier.) Null: always.
  std::function<bool(uint32_t entry)> ready;
  /// Called just before each submit.
  std::function<void(uint32_t entry)> on_submit;
};

/// Run one open-loop phase against \p backend. Stops sending once more
/// than \p max_outstanding requests are outstanding, then drains.
PhaseResult RunOpenLoop(ppq::core::QueryBackend& backend,
                        const std::vector<ppq::core::QueryRequest>& pool,
                        const std::vector<Arrival>& schedule,
                        size_t max_outstanding, const LoopHooks& hooks = {});

/// Record each outcome as a `<backend_span>` span from send to observed
/// completion, with the response's stage_micros laid out as child spans
/// (queue, then the evaluation stages in lifecycle order).
void TraceOutcomes(Tracer& tracer, const char* backend_span, uint64_t parent,
                   const PhaseResult& phase, uint64_t* next_request);

/// The percentile a ladder step is judged on. A step holds ~400-1300
/// requests; p99 would need 1000 or more at every rate.
inline constexpr double kStepPercentile = 0.95;

/// \brief One fixed rate of a capacity ladder and whether it held.
struct RateStep {
  double rate_qps = 0.0;
  size_t completed = 0;
  std::optional<double> p95_ms;
  double throughput_qps = 0.0;
  size_t backlog = 0;
  bool aborted = false;
  bool passed = false;
};

/// A step passes when its p95 (from due time) meets \p limit_ms and the
/// backlog did not grow: the phase was not aborted and at most
/// workers + rate * limit requests were outstanding at the last send.
RateStep JudgeStep(double rate_qps, const PhaseResult& phase,
                   double limit_ms, size_t workers);

/// The highest rate that meets the limit: between the highest step that
/// held and the step above it, the rate at which the step p95 would reach
/// the limit, interpolating log p95 linearly in log rate (the step's
/// measured throughput when it is the top step or the step above failed
/// on backlog alone); nullopt when no step held.
std::optional<double> Capacity(const std::vector<RateStep>& steps,
                               double limit_ms);

/// Latency from due time, in ms, of every outcome (optionally one kind).
Sample LatencyMs(const PhaseResult& phase,
                 std::optional<ppq::core::QueryKind> kind = std::nullopt);

}  // namespace perfbench
