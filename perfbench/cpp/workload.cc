#include "cpp/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "common/random.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "datagen/generator.h"

namespace perfbench {

using ppq::core::KnnRequest;
using ppq::core::QueryRequest;
using ppq::core::QueryResponse;
using ppq::core::ServeStage;
using ppq::core::StrqMode;
using ppq::core::StrqRequest;
using ppq::core::TpqRequest;
using ppq::core::WindowRequest;

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void CheckThreadBudget(const char* phase, size_t threads) {
  std::printf("[threads] phase=%s threads=%zu nproc=%zu\n", phase, threads,
              Nproc());
  if (threads > Nproc()) {
    std::fprintf(stderr,
                 "perfbench: phase %s needs %zu threads but nproc is %zu\n",
                 phase, threads, Nproc());
    std::exit(2);
  }
}

void Report::E2e(const std::string& name, std::optional<double> value,
                 const std::string& unit, size_t samples) {
  if (!value) {
    missing.push_back(name);
    return;
  }
  e2e.emplace_back(name, Metric{*value, unit, samples});
}

void Report::Layer(const std::string& name, std::optional<double> value,
                   const std::string& unit, size_t samples) {
  if (!value) {
    missing.push_back(name);
    return;
  }
  layer.emplace_back(name, Metric{*value, unit, samples});
}

void Report::Ungated(const std::string& name, std::optional<double> value,
                     const std::string& unit, size_t samples) {
  if (!value) {
    missing.push_back(name);
    return;
  }
  ungated.emplace_back(name, Metric{*value, unit, samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto& [n, m] : e2e) {
    if (n == name) return &m;
  }
  for (const auto& [n, m] : layer) {
    if (n == name) return &m;
  }
  for (const auto& [n, m] : ungated) {
    if (n == name) return &m;
  }
  return nullptr;
}

ppq::TrajectoryDataset GenerateFleet(const FleetSpec& fleet, uint64_t seed) {
  ppq::TrajectoryDataset data;
  const auto add = [&](int trajectories, uint64_t generator_seed) {
    ppq::datagen::GeneratorOptions gen;
    gen.num_trajectories = trajectories;
    gen.horizon = fleet.horizon;
    gen.min_length = fleet.min_length;
    gen.max_length = fleet.max_length;
    gen.seed = generator_seed;
    const ppq::TrajectoryDataset part =
        ppq::datagen::PortoLikeGenerator(gen).Generate();
    for (const ppq::Trajectory& traj : part.trajectories()) data.Add(traj);
  };
  const int seeded = std::max(1, fleet.trajectories / kSeededShare);
  for (int g = 0; g < kSubFleets; ++g) {
    add((fleet.trajectories - seeded) / kSubFleets,
        kFixedFleetSeed + static_cast<uint64_t>(g));
  }
  add(seeded, seed);
  return data;
}

uint64_t HashDataset(const ppq::TrajectoryDataset& data) {
  Fnv1a h;
  for (const ppq::Trajectory& traj : data.trajectories()) {
    h.Value(traj.id);
    h.Value(traj.start_tick);
    for (const ppq::Point& p : traj.points) {
      h.Value(p.x);
      h.Value(p.y);
    }
  }
  return h.digest();
}

uint64_t HashRequests(const std::vector<QueryRequest>& pool) {
  Fnv1a h;
  for (const QueryRequest& request : pool) {
    h.Value(request.index());
    std::visit(ppq::core::Overloaded{
                   [&](const StrqRequest& r) {
                     h.Value(r.query.position.x);
                     h.Value(r.query.position.y);
                     h.Value(r.query.tick);
                     h.Value(r.mode);
                   },
                   [&](const WindowRequest& r) {
                     h.Value(r.window.window.min_x);
                     h.Value(r.window.window.min_y);
                     h.Value(r.window.window.max_x);
                     h.Value(r.window.window.max_y);
                     h.Value(r.window.tick);
                     h.Value(r.mode);
                   },
                   [&](const KnnRequest& r) {
                     h.Value(r.query.position.x);
                     h.Value(r.query.position.y);
                     h.Value(r.query.tick);
                     h.Value(r.k);
                   },
                   [&](const TpqRequest& r) {
                     h.Value(r.query.position.x);
                     h.Value(r.query.position.y);
                     h.Value(r.query.tick);
                     h.Value(r.length);
                     h.Value(r.mode);
                   }},
               request);
  }
  return h.digest();
}

std::unique_ptr<ppq::core::Compressor> MakePpqA() {
  ppq::core::PpqOptions o;
  o.mode = ppq::core::QuantizationMode::kErrorBounded;
  o.epsilon1 = 0.001;
  o.fixed_bits = 8;
  o.cqc_grid_size = 50.0 / 111320.0;
  o.enable_index = true;
  o.tpi.pi.epsilon_s = 0.1;
  auto method = ppq::core::MakeMethod("PPQ-A", o);
  ppq::core::PpqOptions configured = method->options();
  if (configured.strategy == ppq::core::PartitionStrategy::kSpatial) {
    configured.epsilon_p = 0.03;
  } else if (configured.strategy ==
             ppq::core::PartitionStrategy::kAutocorrelation) {
    configured.epsilon_p = 0.2;
  }
  return std::make_unique<ppq::core::PpqTrajectory>(configured);
}

double CellSize() { return 100.0 / 111320.0; }

std::vector<QueryRequest> MakePool(const ppq::TrajectoryDataset& data,
                                   const Mix& mix, size_t size,
                                   uint64_t seed) {
  ppq::Rng rng(seed);
  const std::vector<double> weights = {mix.strq_exact,   mix.strq_local,
                                       mix.window_exact, mix.window_local,
                                       mix.knn,          mix.tpq_exact};
  const std::vector<ppq::core::QuerySpec> points =
      ppq::core::SampleQueries(data, size, &rng);
  std::vector<QueryRequest> pool;
  pool.reserve(points.size());
  for (const ppq::core::QuerySpec& q : points) {
    const size_t kind = rng.WeightedIndex(weights);
    switch (kind) {
      case 0:
        pool.emplace_back(StrqRequest{q, StrqMode::kExact});
        break;
      case 1:
        pool.emplace_back(StrqRequest{q, StrqMode::kLocalSearch});
        break;
      case 2:
      case 3: {
        const double half = rng.Uniform(0.001, 0.01);
        const ppq::core::WindowSpec window{
            ppq::core::Window{q.position.x - half, q.position.y - half,
                              q.position.x + half, q.position.y + half},
            q.tick};
        pool.emplace_back(WindowRequest{
            window, kind == 2 ? StrqMode::kExact : StrqMode::kLocalSearch});
        break;
      }
      case 4:
        pool.emplace_back(KnnRequest{q, kKnnK});
        break;
      default:
        pool.emplace_back(TpqRequest{q, kTpqLength, StrqMode::kExact});
        break;
    }
  }
  return pool;
}

bool IsExact(const QueryRequest& request) {
  if (const auto* r = std::get_if<StrqRequest>(&request)) {
    return r->mode == StrqMode::kExact;
  }
  if (const auto* r = std::get_if<WindowRequest>(&request)) {
    return r->mode == StrqMode::kExact;
  }
  if (const auto* r = std::get_if<TpqRequest>(&request)) {
    return r->mode == StrqMode::kExact;
  }
  return false;
}

std::vector<TrajId> GroundTruthIds(const ppq::TrajectoryDataset& data,
                                   const QueryRequest& request) {
  std::vector<TrajId> ids;
  if (const auto* r = std::get_if<WindowRequest>(&request)) {
    ids = ppq::core::QueryEngine::WindowGroundTruth(data, r->window.window,
                                                    r->window.tick);
  } else if (const auto* r = std::get_if<StrqRequest>(&request)) {
    ids = ppq::core::QueryEngine::GroundTruth(data, r->query, CellSize());
  } else if (const auto* r = std::get_if<TpqRequest>(&request)) {
    ids = ppq::core::QueryEngine::GroundTruth(data, r->query, CellSize());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<TrajId> ResponseIds(const QueryResponse& response) {
  std::vector<TrajId> ids;
  if (const auto* r = std::get_if<ppq::core::StrqResult>(&response.result)) {
    ids = r->ids;
  } else if (const auto* r = std::get_if<ppq::core::TpqResult>(&response.result)) {
    ids = r->ids;
  } else {
    for (const auto& n : response.neighbors()) ids.push_back(n.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

ServedSummary::ServedSummary(std::vector<ppq::core::SnapshotPtr> shards,
                             ppq::repo::ShardMap map)
    : shards_(std::move(shards)), map_(map) {}

void ServedSummary::ObserveSlice(const ppq::TimeSlice&) {
  throw std::logic_error("ServedSummary is read-only");
}

void ServedSummary::Finish() {
  throw std::logic_error("ServedSummary is read-only");
}

ppq::Result<ppq::Point> ServedSummary::Reconstruct(TrajId id, Tick t) const {
  return shards_[map_.ShardOf(id)]->Reconstruct(id, t, &memo_);
}

size_t ServedSummary::SummaryBytes() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->SummaryBytes();
  return total;
}

size_t ServedSummary::NumCodewords() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->NumCodewords();
  return total;
}

uint64_t DirectoryBytes(const std::string& dir, const std::string& suffix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total += entry.file_size();
  }
  return total;
}

void ReportServeLayers(Report& report, const PhaseResult& phase,
                       size_t workers) {
  const auto stage = [](const Outcome& o, ServeStage s) {
    return static_cast<double>(o.response.stats.stage_micros[static_cast<size_t>(s)]);
  };
  double latency_us = 0.0;
  double eval_us = 0.0;
  double sums[ppq::core::kNumServeStages] = {};
  double candidates = 0.0;
  double returned = 0.0;
  double decoded = 0.0;
  Sample scan_us;
  Sample knn_scan_us;
  Sample queue_us;
  for (const Outcome& o : phase.outcomes) {
    latency_us += o.latency_us();
    eval_us += static_cast<double>(o.response.stats.eval_micros);
    for (size_t s = 0; s < ppq::core::kNumServeStages; ++s) {
      sums[s] += stage(o, static_cast<ServeStage>(s));
    }
    candidates += static_cast<double>(o.response.stats.candidates_visited);
    decoded += static_cast<double>(o.response.stats.points_decoded);
    if (o.response.ok()) returned += static_cast<double>(ResponseIds(o.response).size());
    scan_us.Add(stage(o, ServeStage::kScan));
    queue_us.Add(stage(o, ServeStage::kQueue));
    if (o.kind == ppq::core::QueryKind::kKnn) {
      knn_scan_us.Add(stage(o, ServeStage::kScan));
    }
  }
  const size_t n = phase.outcomes.size();
  const auto share = [&](ServeStage s) -> std::optional<double> {
    if (latency_us <= 0.0) return std::nullopt;
    return sums[static_cast<size_t>(s)] / latency_us;
  };
  const auto per_query = [&](double total) -> std::optional<double> {
    if (n == 0) return std::nullopt;
    return total / static_cast<double>(n);
  };
  report.Layer("index.scan_share", share(ServeStage::kScan), "ratio", n);
  report.Layer("index.scan_us_p99", scan_us.Percentile(0.99), "us", n);
  if (!knn_scan_us.empty()) {
    report.Ungated("index.knn_scan_us_p95", knn_scan_us.Percentile(0.95), "us",
                   knn_scan_us.count());
  }
  report.Layer("index.candidates_per_query", per_query(candidates), "count", n);
  report.Layer("index.useful_ratio",
               candidates > 0.0 ? std::optional<double>(returned / candidates)
                                : std::nullopt,
               "ratio", n);
  report.Layer("core.queue_share", share(ServeStage::kQueue), "ratio", n);
  report.Layer("core.queue_us_p99", queue_us.Percentile(0.99), "us", n);
  report.Layer("core.worker_busy_share",
               phase.wall_s > 0.0 ? std::optional<double>(
                                        eval_us * 1e-6 /
                                        (static_cast<double>(workers) * phase.wall_s))
                                  : std::nullopt,
               "ratio", n);
  report.Layer("core.decode_share", share(ServeStage::kDecode), "ratio", n);
  report.Layer("core.points_decoded_per_query", per_query(decoded), "count", n);
  report.Layer("core.kernel_share", share(ServeStage::kKernel), "ratio", n);
  report.Layer("repo.merge_share", share(ServeStage::kMerge), "ratio", n);
  report.Layer("repo.tail_share", share(ServeStage::kTail), "ratio", n);
}

/// Host stalls of a few ms (a preempted virtual CPU, a lock holder
/// descheduled) are routine on shared machines and show in the p99;
/// falling this far behind is not.
constexpr double kBehindMs = 10.0;

void ReportLateness(Report& report, const char* prefix,
                    const Sample& lateness_ms, LatenessRole role) {
  const bool decides_validity = role == LatenessRole::kDecidesValidity;
  const std::optional<double> p99 = lateness_ms.Percentile(0.99);
  const double max = lateness_ms.Max();
  const bool behind = !p99 || *p99 > kBehindMs;
  std::printf("[load] generator=%s sends=%zu lateness_p99_ms=%s "
              "lateness_max_ms=%.3f behind=%s decides_validity=%s\n",
              prefix, lateness_ms.count(),
              p99 ? std::to_string(*p99).c_str() : "missing", max,
              behind ? "yes" : "no", decides_validity ? "yes" : "no");
  if (behind && decides_validity) {
    report.load_invalid = true;
    std::fprintf(stderr,
                 "perfbench: WARNING: the %s generator fell behind its "
                 "schedule; this run is invalid\n",
                 prefix);
  }
  const std::string base = std::string("load.") + prefix;
  if (decides_validity) {
    report.Layer(base + "_lateness_p99_ms", p99, "ms", lateness_ms.count());
    report.Layer(base + "_lateness_max_ms", max, "ms", lateness_ms.count());
  } else {
    report.Ungated(base + "_lateness_p99_ms", p99, "ms", lateness_ms.count());
    report.Ungated(base + "_lateness_max_ms", max, "ms", lateness_ms.count());
  }
}

void ReportRegistryLayers(Report& report, const RegistryTotals& phase,
                          size_t new_points) {
  const HistogramTotals wal_append = Lookup(phase, "ppq_wal_append_micros");
  const HistogramTotals wal_sync = Lookup(phase, "ppq_wal_sync_micros");
  const HistogramTotals flush = Lookup(phase, "ppq_ingest_flush_micros");
  const HistogramTotals seal = Lookup(phase, "ppq_ingest_seal_micros");
  const HistogramTotals rotate = Lookup(phase, "ppq_wal_rotate_micros");
  report.Layer("repo.wal_append_us_mean", wal_append.Mean(), "us",
               wal_append.count);
  report.Layer("repo.wal_sync_us_mean", wal_sync.Mean(), "us", wal_sync.count);
  report.Layer("repo.wal_syncs", static_cast<double>(wal_sync.count), "count",
               wal_sync.count);
  report.Layer("repo.flush_us_mean", flush.Mean(), "us", flush.count);
  report.Layer("repo.seals", static_cast<double>(seal.count), "count",
               seal.count);
  report.Layer("repo.seal_ms_mean", seal.Mean() * 1e-3, "ms", seal.count);
  report.Layer("repo.seal_us_per_new_point",
               new_points == 0 ? 0.0
                               : static_cast<double>(seal.sum) /
                                     static_cast<double>(new_points),
               "us", seal.count);
  report.Layer("repo.rotate_us_mean", rotate.Mean(), "us", rotate.count);
}

ServeRun ServeOpenLoop(ppq::core::QueryBackend& service,
                       const std::vector<QueryRequest>& pool,
                       const RateSpec& rates, double seconds, uint64_t seed,
                       Tracer& tracer, const char* backend_span,
                       uint64_t* next_request,
                       const std::function<void()>& between_phases) {
  // Sending stops when this many requests are outstanding: the rate is
  // then over capacity.
  constexpr size_t kMaxOutstanding = 2000;
  ServeRun run;
  run.limit_ms = rates.limit_ms;
  const auto phase = [&](const char* name, double rate, double secs,
                         uint64_t salt) -> const PhaseResult& {
    const std::vector<Arrival> schedule =
        PoissonSchedule(rate, secs, pool.size(), seed * 1000003 + salt);
    {
      ScopedSpan span(tracer, name);
      run.phases.push_back(RunOpenLoop(service, pool, schedule, kMaxOutstanding));
      TraceOutcomes(tracer, backend_span, span.id(), run.phases.back(),
                    next_request);
    }
    between_phases();
    return run.phases.back();
  };
  phase("bench.warmup", rates.reference_qps, 0.05 * seconds, 1);
  run.reference = run.phases.size();
  run.reference_blocks = rates.reference_blocks;
  const double block_seconds = 0.55 * seconds / static_cast<double>(rates.reference_blocks);
  Fnv1a schedule_hash;
  size_t scheduled = 0;
  for (size_t block = 0; block < rates.reference_blocks; ++block) {
    for (const Arrival& a : PoissonSchedule(rates.reference_qps, block_seconds,
                                            pool.size(), seed * 1000003 + 2 + block)) {
      schedule_hash.Value(a.due_s);
      schedule_hash.Value(a.entry);
      ++scheduled;
    }
    phase("bench.reference", rates.reference_qps, block_seconds, 2 + block);
  }
  std::printf("[inputs] reference_schedule requests=%zu hash=%016llx\n", scheduled,
              static_cast<unsigned long long>(schedule_hash.digest()));
  PrintKinds("reference", run.Reference());
  // The ladder shares 40% of the run evenly, but every rate runs for at
  // least half a second and 300 requests: a shorter burst over capacity
  // can end before its backlog shows in the p95.
  for (size_t i = 0; i < rates.ladder_qps.size(); ++i) {
    const double rate = rates.ladder_qps[i];
    const double step_seconds =
        std::max({0.4 * seconds / static_cast<double>(rates.ladder_qps.size()),
                  0.5, 300.0 / rate});
    run.steps.push_back(JudgeStep(rate, phase("bench.ladder", rate, step_seconds, 10 + i),
                                  rates.limit_ms, rates.workers));
    const RateStep& s = run.steps.back();
    std::printf("[ladder] rate_qps=%.0f completed=%zu p95_ms=%s limit_ms=%.0f "
                "throughput_qps=%.1f backlog=%zu aborted=%s passed=%s\n",
                s.rate_qps, s.completed,
                s.p95_ms ? std::to_string(*s.p95_ms).c_str() : "missing",
                rates.limit_ms, s.throughput_qps, s.backlog,
                s.aborted ? "yes" : "no", s.passed ? "yes" : "no");
    // A rate whose backlog overflowed is over capacity, and so is every
    // higher one. A rate that merely missed the limit may have hit a
    // stall of the machine: the higher rates still run.
    if (s.aborted) break;
  }
  return run;
}

void PrintKinds(const char* phase_name, const PhaseResult& phase) {
  static constexpr const char* kKinds[] = {"strq", "window", "knn", "tpq"};
  for (size_t k = 0; k < 4; ++k) {
    const auto kind = static_cast<ppq::core::QueryKind>(k);
    const Sample latency = LatencyMs(phase, kind);
    if (latency.empty()) continue;
    double eval_us = 0.0;
    for (const Outcome& o : phase.outcomes) {
      if (o.kind == kind) eval_us += static_cast<double>(o.response.stats.eval_micros);
    }
    const auto p50 = latency.Percentile(0.5);
    const auto p99 = latency.Percentile(0.99);
    std::printf("[kind] phase=%s kind=%s requests=%zu p50_ms=%s p99_ms=%s "
                "eval_us_mean=%.1f\n",
                phase_name, kKinds[k], latency.count(),
                p50 ? std::to_string(*p50).c_str() : "missing",
                p99 ? std::to_string(*p99).c_str() : "missing",
                eval_us / static_cast<double>(latency.count()));
  }
}

PhaseResult ServeRun::Reference() const {
  PhaseResult all;
  for (size_t b = reference; b < reference + reference_blocks; ++b) {
    const PhaseResult& block = phases[b];
    all.outcomes.insert(all.outcomes.end(), block.outcomes.begin(), block.outcomes.end());
    all.scheduled += block.scheduled;
    all.aborted |= block.aborted;
    all.backlog_at_last_send = std::max(all.backlog_at_last_send, block.backlog_at_last_send);
    all.wall_s += block.wall_s;
    all.cpu_s += block.cpu_s;
  }
  return all;
}

void ReportServeE2e(Report& report, const ServeRun& run) {
  const PhaseResult ref = run.Reference();
  const Sample latency = LatencyMs(ref);
  report.Ungated("query_p50_ms", latency.BlockMedian(0.50, run.reference_blocks), "ms",
                 latency.count());
  report.Ungated("query_p99_ms", latency.BlockMedian(0.99, run.reference_blocks), "ms",
                 latency.count());
  report.query_latency_ms = latency;
  const Sample knn = LatencyMs(ref, ppq::core::QueryKind::kKnn);
  report.Ungated("knn_p95_ms", knn.BlockMedian(0.95, run.reference_blocks), "ms",
                 knn.count());
  report.Ungated("capacity_qps", Capacity(run.steps, run.limit_ms), "1/s",
                 run.steps.size());
  Sample cpu_us;
  for (size_t b = run.reference; b < run.reference + run.reference_blocks; ++b) {
    const PhaseResult& block = run.phases[b];
    if (!block.outcomes.empty()) {
      cpu_us.Add(block.cpu_s * 1e6 / static_cast<double>(block.outcomes.size()));
    }
  }
  report.Ungated("cpu_us_per_query", cpu_us.RepeatMedian(), "us", ref.outcomes.size());
}

void PrintRepeats(const char* tag, const char* name, const Sample& values) {
  std::string list;
  for (double v : values.values()) {
    list += (list.empty() ? "" : ",") + std::to_string(v);
  }
  std::printf("[%s] reps=%zu %s=%s\n", tag, values.count(), name, list.c_str());
}

void CheckRepeats(const std::string& name, const std::vector<uint64_t>& values,
                  std::vector<std::string>* not_repeating) {
  bool same = true;
  std::string list;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] != values[0]) same = false;
    list += (i == 0 ? "" : ",") + std::to_string(values[i]);
  }
  std::printf("[determinism] count=%s values=%s repeat=%s\n", name.c_str(),
              list.c_str(), same ? "yes" : "no");
  if (!same) not_repeating->push_back(name);
}

}  // namespace perfbench
