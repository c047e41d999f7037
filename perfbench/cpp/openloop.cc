#include "cpp/openloop.h"

#include <chrono>
#include <cmath>
#include <future>
#include <random>
#include <thread>
#include <utility>

namespace perfbench {

using ppq::core::QueryKind;
using ppq::core::QueryResponse;

std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     size_t pool_size, uint64_t seed) {
  std::vector<Arrival> schedule;
  if (rate_qps <= 0.0 || pool_size == 0) return schedule;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_qps);
  std::uniform_int_distribution<uint32_t> pick(
      0, static_cast<uint32_t>(pool_size - 1));
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.push_back(Arrival{t, pick(rng)});
  }
  return schedule;
}

PhaseResult RunOpenLoop(ppq::core::QueryBackend& backend,
                        const std::vector<ppq::core::QueryRequest>& pool,
                        const std::vector<Arrival>& schedule,
                        size_t max_outstanding, const LoopHooks& hooks) {
  struct Pending {
    std::future<QueryResponse> future;
    size_t slot;
  };
  PhaseResult result;
  result.scheduled = schedule.size();
  result.outcomes.resize(schedule.size());
  std::vector<Pending> outstanding;
  outstanding.reserve(max_outstanding + 1);

  const double cpu0 = ProcessCpuSeconds();
  const double thread_cpu0 = ThreadCpuSeconds();
  const int64_t t0 = NowNs() + 1000000;  // first due time 1 ms from now
  size_t next = 0;
  bool sending = !schedule.empty();
  int64_t last_done = t0;
  while (sending || !outstanding.empty()) {
    int64_t now = NowNs();
    while (sending) {
      const Arrival& a = schedule[next];
      const int64_t due = t0 + static_cast<int64_t>(a.due_s * 1e9);
      if (due > now) break;
      if (hooks.ready && !hooks.ready(a.entry)) break;
      if (hooks.on_submit) hooks.on_submit(a.entry);
      Outcome& o = result.outcomes[next];
      o.entry = a.entry;
      o.kind = ppq::core::KindOf(pool[a.entry]);
      o.due_ns = due;
      o.send_ns = NowNs();
      outstanding.push_back(Pending{backend.Submit(pool[a.entry]), next});
      now = o.send_ns;
      ++next;
      if (next == schedule.size() || outstanding.size() > max_outstanding) {
        result.aborted = next < schedule.size();
        result.backlog_at_last_send = outstanding.size();
        sending = false;
      }
    }
    for (size_t i = 0; i < outstanding.size();) {
      if (outstanding[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Outcome& o = result.outcomes[outstanding[i].slot];
        o.response = outstanding[i].future.get();
        o.done_ns = NowNs();
        last_done = o.done_ns;
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++i;
      }
    }
    if (!outstanding.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    } else if (sending) {
      // Idle: sleep until shortly before the next due time.
      const int64_t due =
          t0 + static_cast<int64_t>(schedule[next].due_s * 1e9);
      const int64_t wait = due - NowNs();
      if (wait > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 100000));
      } else if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      } else {
        // Due but held back by hooks.ready.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  }
  result.outcomes.resize(next);
  result.wall_s = 1e-9 * static_cast<double>(last_done - t0);
  result.cpu_s = (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - thread_cpu0);
  return result;
}

void TraceOutcomes(Tracer& tracer, const char* backend_span, uint64_t parent,
                   const PhaseResult& phase, uint64_t* next_request) {
  if (!tracer.enabled()) return;
  static constexpr const char* kStageSpans[ppq::core::kNumServeStages] = {
      "core.queue", "index.scan", "core.decode",
      "core.kernel", "repo.tail", "repo.merge"};
  for (const Outcome& o : phase.outcomes) {
    const uint64_t request = (*next_request)++;
    const uint64_t id = tracer.Reserve();
    int64_t at = o.send_ns;
    for (size_t s = 0; s < ppq::core::kNumServeStages; ++s) {
      const int64_t dur =
          static_cast<int64_t>(o.response.stats.stage_micros[s]) * 1000;
      if (dur == 0) continue;
      tracer.Record(kStageSpans[s], at, at + dur, id, request);
      at += dur;
    }
    tracer.Record(backend_span, o.send_ns, o.done_ns, parent, request, id);
  }
}

RateStep JudgeStep(double rate_qps, const PhaseResult& phase,
                   double limit_ms, size_t workers) {
  RateStep step;
  step.rate_qps = rate_qps;
  step.completed = phase.outcomes.size();
  step.p95_ms = LatencyMs(phase).Percentile(kStepPercentile);
  step.throughput_qps =
      phase.wall_s > 0.0 ? static_cast<double>(step.completed) / phase.wall_s
                         : 0.0;
  step.backlog = phase.backlog_at_last_send;
  step.aborted = phase.aborted;
  const double allowed =
      static_cast<double>(workers) + rate_qps * limit_ms * 1e-3;
  step.passed = !step.aborted && step.p95_ms.has_value() &&
                *step.p95_ms <= limit_ms &&
                static_cast<double>(step.backlog) <= allowed;
  return step;
}

std::optional<double> Capacity(const std::vector<RateStep>& steps,
                               double limit_ms) {
  // The highest rate that held, and the first rate above it.
  size_t held = steps.size();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].passed) held = i;
  }
  if (held == steps.size()) return std::nullopt;
  const RateStep& h = steps[held];
  if (held + 1 == steps.size()) return h.throughput_qps;
  const RateStep& broke = steps[held + 1];
  // Failed on backlog alone, with p95 under the limit: no crossing to
  // interpolate to.
  if (!broke.p95_ms || !h.p95_ms || *broke.p95_ms <= limit_ms ||
      *broke.p95_ms <= *h.p95_ms) {
    return h.throughput_qps;
  }
  const double f = (std::log(limit_ms) - std::log(*h.p95_ms)) /
                   (std::log(*broke.p95_ms) - std::log(*h.p95_ms));
  return h.throughput_qps *
         std::exp(f * (std::log(broke.rate_qps) - std::log(h.rate_qps)));
}

Sample LatencyMs(const PhaseResult& phase, std::optional<QueryKind> kind) {
  Sample sample;
  for (const Outcome& o : phase.outcomes) {
    if (kind && o.kind != *kind) continue;
    sample.Add(o.latency_us() * 1e-3);
  }
  return sample;
}

}  // namespace perfbench
