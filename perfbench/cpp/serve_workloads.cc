/// \file serve_workloads.cc
/// serve-sparse and serve-sharded: build a sealed summary (set-up), then
/// serve a mixed request pool open loop at a reference rate and up a
/// ladder of fixed rates.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "common/thread_pool.h"
#include "core/metrics.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/serialization.h"
#include "cpp/workload.h"
#include "obs/metrics.h"
#include "repo/repository_snapshot.h"
#include "repo/sharded_query_service.h"
#include "repo/sharded_repository.h"

namespace perfbench {
namespace {

using ppq::core::QueryRequest;
using ppq::core::QueryResponse;
using Payload = decltype(QueryResponse::result);

constexpr int kSetupReps = 5;
/// Blocks of the reference rate (see RateSpec::reference_blocks).
constexpr size_t kReferenceBlocks = 7;
/// The load thread that sends and harvests.
constexpr size_t kLoadThreads = 1;
/// Distinct requests in the pool the schedule draws from.
constexpr size_t kPoolSize = 12000;

struct ServeSpec {
  const char* name;
  FleetSpec fleet;
  /// 0: one unsharded snapshot behind core::QueryService.
  uint32_t shards;
  size_t workers;
  Mix mix;
  double reference_qps;
  std::vector<double> ladder_qps;
  double limit_ms;
};

/// Everything one set-up repetition produced and measured.
struct Built {
  std::shared_ptr<const ppq::TrajectoryDataset> raw;
  std::vector<ppq::core::SnapshotPtr> shards;
  ppq::repo::ShardMap map;
  ppq::core::SnapshotPtr snapshot;                // unsharded
  ppq::repo::RepositorySnapshotPtr repository;    // sharded
  double generate_s = 0.0;
  double encode_s = 0.0;
  double seal_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double setup_s = 0.0;
  /// The directory the summary was saved to.
  std::string dir;
  uint64_t write_bytes = 0;
  Sample append_us;
  uint64_t dataset_hash = 0;
  uint64_t container_bytes = 0;
  uint64_t dir_bytes = 0;
};

/// One set-up: generate, encode tick by tick, seal, save, open.
Built Build(const ServeSpec& spec, const RunConfig& config, int rep) {
  Tracer& tracer = *config.tracer;
  ScopedSpan setup_span(tracer, "bench.setup");
  Built b;
  b.dir = config.work_dir + "/" + spec.name + "-rep" + std::to_string(rep);
  const std::string& dir = b.dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "datagen.Generate", setup_span.id());
    b.raw = std::make_shared<const ppq::TrajectoryDataset>(
        GenerateFleet(spec.fleet, config.seed));
  }
  const int64_t t1 = NowNs();
  b.generate_s = Seconds(t0, t1);
  const ppq::TrajectoryDataset& data = *b.raw;
  const Tick lo = data.MinTick();
  const Tick hi = data.MaxTick();

  // Encode: the per-tick call is the phased pipeline's append.
  int64_t encode_ns = 0;
  const auto timed_append = [&](const std::function<void()>& append) {
    const int64_t a = NowNs();
    append();
    const int64_t z = NowNs();
    encode_ns += z - a;
    b.append_us.Add(1e-3 * static_cast<double>(z - a));
  };
  const uint64_t wchar0 = ProcessWriteBytes();
  if (spec.shards == 0) {
    std::unique_ptr<ppq::core::Compressor> method = MakePpqA();
    for (Tick t = lo; t < hi; ++t) {
      const ppq::TimeSlice slice = data.SliceAt(t);
      if (slice.empty()) continue;
      timed_append([&] {
        ScopedSpan span(tracer, "core.encode.ObserveSlice", setup_span.id());
        method->ObserveSlice(slice);
      });
    }
    {
      const int64_t a = NowNs();
      ScopedSpan span(tracer, "core.encode.Finish", setup_span.id());
      method->Finish();
      encode_ns += NowNs() - a;
    }
    b.encode_s = 1e-9 * static_cast<double>(encode_ns);
    const int64_t s0 = NowNs();
    ppq::core::SnapshotPtr sealed;
    {
      ScopedSpan span(tracer, "core.Seal", setup_span.id());
      sealed = method->Seal();
    }
    const int64_t s1 = NowNs();
    b.seal_s = Seconds(s0, s1);
    method.reset();
    const std::string path = dir + "/summary.snapshot";
    {
      ScopedSpan span(tracer, "core.Save", setup_span.id());
      const ppq::Status saved = sealed->Save(path);
      if (!saved.ok()) throw std::runtime_error("Save: " + saved.ToString());
    }
    const int64_t s2 = NowNs();
    b.save_s = Seconds(s1, s2);
    {
      ScopedSpan span(tracer, "core.OpenSnapshot", setup_span.id());
      auto opened = ppq::core::OpenSnapshot(path);
      if (!opened.ok()) throw std::runtime_error("OpenSnapshot: " + opened.status().ToString());
      b.snapshot = *opened;
    }
    b.open_s = Seconds(s2, NowNs());
    b.shards = {b.snapshot};
    b.map.num_shards = 1;
  } else {
    ppq::repo::RepositorySnapshotPtr sealed;
    {
      CheckThreadBudget("setup.encode", spec.shards);
      ppq::repo::ShardedRepository::Options options;
      options.num_shards = spec.shards;
      options.num_threads = spec.shards;
      ppq::repo::ShardedRepository repository(
          [](uint32_t) { return MakePpqA(); }, options);
      for (Tick t = lo; t < hi; ++t) {
        const ppq::PointBatch batch = data.BatchAt(t);
        if (batch.empty()) continue;
        timed_append([&] {
          ScopedSpan span(tracer, "core.encode.ShardedAppend", setup_span.id());
          repository.Append(batch);
        });
      }
      {
        const int64_t a = NowNs();
        ScopedSpan span(tracer, "core.encode.Finish", setup_span.id());
        repository.Finish();
        encode_ns += NowNs() - a;
      }
      b.encode_s = 1e-9 * static_cast<double>(encode_ns);
      const int64_t s0 = NowNs();
      {
        ScopedSpan span(tracer, "repo.SealAll", setup_span.id());
        sealed = repository.SealAll();
      }
      const int64_t s1 = NowNs();
      b.seal_s = Seconds(s0, s1);
      }
    ppq::ThreadPool pool(spec.shards);
    const int64_t s1 = NowNs();
    {
      ScopedSpan span(tracer, "repo.Save", setup_span.id());
      const ppq::Status saved = sealed->Save(dir, &pool);
      if (!saved.ok()) throw std::runtime_error("Save: " + saved.ToString());
    }
    const int64_t s2 = NowNs();
    b.save_s = Seconds(s1, s2);
    {
      ScopedSpan span(tracer, "repo.OpenRepository", setup_span.id());
      auto opened = ppq::repo::OpenRepository(dir, &pool);
      if (!opened.ok()) throw std::runtime_error("OpenRepository: " + opened.status().ToString());
      b.repository = *opened;
    }
    b.open_s = Seconds(s2, NowNs());
    b.shards = b.repository->shards();
    b.map = b.repository->shard_map();
  }
  b.setup_s = Seconds(t0, NowNs());
  b.dataset_hash = HashDataset(*b.raw);
  b.write_bytes = ProcessWriteBytes() - wchar0;
  b.container_bytes = DirectoryBytes(dir, ".snapshot");
  b.dir_bytes = DirectoryBytes(dir);
  return b;
}

/// Seconds to open the summary \p b saved: the snapshot file
/// (unsharded) or the repository directory, shard after shard on the
/// calling thread. Set-up opens the directory over a pool of one thread
/// per shard; timed that way, on a shared 4-vCPU host the opens turned
/// 1.5 to 3x slower partway through some runs and stayed so. The opened
/// summary is released after the timer stops.
double TimedReopen(const ServeSpec& spec, const Built& b, Tracer& tracer) {
  if (spec.shards == 0) {
    const int64_t t0 = NowNs();
    const auto opened = [&] {
      ScopedSpan span(tracer, "core.OpenSnapshot");
      return ppq::core::OpenSnapshot(b.dir + "/summary.snapshot");
    }();
    const double seconds = Seconds(t0, NowNs());
    if (!opened.ok()) throw std::runtime_error("OpenSnapshot: " + opened.status().ToString());
    return seconds;
  }
  const int64_t t0 = NowNs();
  const auto opened = [&] {
    ScopedSpan span(tracer, "repo.OpenRepository");
    return ppq::repo::OpenRepository(b.dir, nullptr);
  }();
  const double seconds = Seconds(t0, NowNs());
  if (!opened.ok()) throw std::runtime_error("OpenRepository: " + opened.status().ToString());
  return seconds;
}

/// Sum of the serial engine's candidates_visited over the pool's first
/// non-kNN entries, per shard: a count that must repeat exactly.
uint64_t ProbeCandidates(const Built& b, const std::vector<QueryRequest>& pool) {
  uint64_t total = 0;
  for (const auto& shard : b.shards) {
    const ppq::core::QueryEngine engine(shard, b.raw.get(), CellSize());
    for (size_t i = 0; i < std::min<size_t>(pool.size(), 200); ++i) {
      if (const auto* r = std::get_if<ppq::core::StrqRequest>(&pool[i])) {
        total += engine.Strq(r->query, r->mode).candidates_visited;
      } else if (const auto* r = std::get_if<ppq::core::WindowRequest>(&pool[i])) {
        total += engine.WindowQuery(r->window.window, r->window.tick, r->mode)
                     .candidates_visited;
      }
    }
  }
  return total;
}

/// The serial QueryEngine's answer to every pool entry, computed by one
/// engine per thread over disjoint slices of the pool.
std::vector<Payload> SerialReference(const ppq::core::SnapshotPtr& snapshot,
                                     const ppq::TrajectoryDataset& raw,
                                     const std::vector<QueryRequest>& pool) {
  std::vector<Payload> reference(pool.size());
  const size_t threads = Nproc();
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const ppq::core::QueryEngine engine(snapshot, &raw, CellSize());
      for (size_t i = w; i < pool.size(); i += threads) {
        std::visit(ppq::core::Overloaded{
                       [&](const ppq::core::StrqRequest& r) {
                         reference[i] = engine.Strq(r.query, r.mode);
                       },
                       [&](const ppq::core::WindowRequest& r) {
                         reference[i] = engine.WindowQuery(r.window.window,
                                                           r.window.tick, r.mode);
                       },
                       [&](const ppq::core::KnnRequest& r) {
                         reference[i] = engine.NearestTrajectories(r.query, r.k);
                       },
                       [&](const ppq::core::TpqRequest& r) {
                         reference[i] = engine.Tpq(r.query, r.length, r.mode);
                       }},
                   pool[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return reference;
}

Report RunServe(const ServeSpec& spec, const RunConfig& config) {
  Report report;
  Tracer& tracer = *config.tracer;
  std::vector<std::string> not_repeating;

  // --- Set-up, repeated; the last repetition is served ------------------
  Built b;
  Sample append_us;  // pooled over the repetitions
  Sample setup_s, generate_s, encode_us_per_point, seal_ms, save_ms, open_ms;
  std::vector<uint64_t> dataset_hashes, pool_hashes, container_bytes, probes,
      write_bytes;
  std::vector<QueryRequest> pool;
  const RegistryTotals before = ReadRegistry(ppq::obs::Registry::Default());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    b = Build(spec, config, rep);
    const double points = static_cast<double>(b.raw->TotalPoints());
    setup_s.Add(b.setup_s);
    generate_s.Add(b.generate_s);
    encode_us_per_point.Add(b.encode_s * 1e6 / points);
    seal_ms.Add(b.seal_s * 1e3);
    save_ms.Add(b.save_s * 1e3);
    open_ms.Add(b.open_s * 1e3);
    pool = MakePool(*b.raw, spec.mix, kPoolSize, config.seed + 99);
    dataset_hashes.push_back(b.dataset_hash);
    pool_hashes.push_back(HashRequests(pool));
    container_bytes.push_back(b.container_bytes);
    write_bytes.push_back(b.write_bytes);
    probes.push_back(ProbeCandidates(b, pool));
    append_us.Append(b.append_us);
  }
  const ppq::TrajectoryDataset& raw = *b.raw;
  const size_t points = raw.TotalPoints();
  std::printf("[inputs] workload=%s seed=%llu trajectories=%zu points=%zu "
              "ticks=%d shards=%u dataset_hash=%016llx pool_hash=%016llx\n",
              spec.name, static_cast<unsigned long long>(config.seed),
              raw.size(), points, static_cast<int>(raw.MaxTick() - raw.MinTick()),
              std::max<uint32_t>(spec.shards, 1),
              static_cast<unsigned long long>(dataset_hashes.back()),
              static_cast<unsigned long long>(pool_hashes.back()));
  {
    const uint64_t other = HashDataset(GenerateFleet(spec.fleet, config.seed + 1));
    const bool differs = other != dataset_hashes.back();
    std::printf("[inputs] other_seed=%llu dataset_hash=%016llx differs=%s\n",
                static_cast<unsigned long long>(config.seed + 1),
                static_cast<unsigned long long>(other), differs ? "yes" : "no");
    if (!differs) not_repeating.push_back("seed_changes_dataset");
  }
  PrintRepeats("setup", "setup_s", setup_s);
  CheckRepeats("dataset_hash", dataset_hashes, &not_repeating);
  CheckRepeats("pool_hash", pool_hashes, &not_repeating);
  CheckRepeats("container_bytes", container_bytes, &not_repeating);
  CheckRepeats("setup_write_bytes", write_bytes, &not_repeating);
  CheckRepeats("probe_candidates", probes, &not_repeating);
  // recover_s is the median of timed opens of the last set-up's saved
  // summary, one after every serving phase (9 to 16). Opens run back to
  // back are bimodal: after the first two or three, each takes about 40%
  // longer than an open that follows other work.
  Sample recover_s;
  const auto reopen = [&] { recover_s.Add(TimedReopen(spec, b, tracer)); };

  // --- Serve ---------------------------------------------------------------
  CheckThreadBudget("serve", kLoadThreads + spec.workers);
  std::unique_ptr<ppq::core::QueryBackend> service;
  const char* backend_span = nullptr;
  if (spec.shards == 0) {
    ppq::core::QueryService::Options options;
    options.num_threads = spec.workers;
    options.raw = b.raw;
    options.cell_size = CellSize();
    service = std::make_unique<ppq::core::QueryService>(b.snapshot, options);
    backend_span = "core.QueryService";
  } else {
    ppq::repo::ShardedQueryService::Options options;
    options.num_threads = spec.workers;
    options.raw = b.raw;
    options.cell_size = CellSize();
    service = std::make_unique<ppq::repo::ShardedQueryService>(b.repository, options);
    backend_span = "repo.ShardedQueryService";
  }

  uint64_t next_request = 1;
  const RateSpec rates{spec.reference_qps, spec.ladder_qps, spec.limit_ms,
                       spec.workers, kReferenceBlocks};
  const ServeRun run = ServeOpenLoop(*service, pool, rates, config.seconds,
                                     config.seed, tracer, backend_span,
                                     &next_request, reopen);
  const std::vector<PhaseResult>& phases = run.phases;
  service.reset();
  PrintRepeats("recover", "recover_s", recover_s);
  // Set-up, reopens and serving go through no WAL, background seal or
  // replay: the repo registry metrics read 0 here, which confirms the
  // bypass.
  const RegistryTotals registry =
      DiffRegistry(before, ReadRegistry(ppq::obs::Registry::Default()));

  // --- Correctness: every response of every phase ------------------------
  std::vector<Payload> reference;
  std::vector<std::vector<TrajId>> truth(pool.size());
  if (spec.shards == 0) {
    reference = SerialReference(b.snapshot, raw, pool);
  } else {
    for (size_t i = 0; i < pool.size(); ++i) {
      if (IsExact(pool[i])) truth[i] = GroundTruthIds(raw, pool[i]);
    }
  }
  size_t checked_exact = 0;
  std::vector<uint64_t> first_candidates(pool.size(), UINT64_MAX);
  bool candidates_repeat = true;
  for (const PhaseResult& phase : phases) {
    report.attempted += phase.outcomes.size();
    for (const Outcome& o : phase.outcomes) {
      if (!o.response.ok()) {
        ++report.failed;
        continue;
      }
      bool ok = true;
      if (spec.shards == 0) {
        ok = o.response.result == reference[o.entry];
        if (!ok) report.exact_mismatch = true;
      } else if (IsExact(pool[o.entry])) {
        ++checked_exact;
        ok = ResponseIds(o.response) == truth[o.entry];
        if (!ok) report.exact_mismatch = true;
      }
      if (!ok) ++report.failed;
      uint64_t& first = first_candidates[o.entry];
      if (first == UINT64_MAX) first = o.response.stats.candidates_visited;
      if (first != o.response.stats.candidates_visited) candidates_repeat = false;
    }
  }
  std::printf("[check] workload=%s responses=%zu failed=%zu oracle=%s "
              "exact_checked=%zu\n",
              spec.name, report.attempted, report.failed,
              spec.shards == 0 ? "serial_query_engine" : "raw_ground_truth",
              spec.shards == 0 ? report.attempted : checked_exact);
  std::printf("[determinism] count=served_candidates_per_entry repeat=%s\n",
              candidates_repeat ? "yes" : "no");
  if (!candidates_repeat) not_repeating.push_back("served_candidates_per_entry");

  // --- End-to-end metrics ------------------------------------------------
  const PhaseResult ref = run.Reference();
  report.E2e("setup_s", setup_s.RepeatMedian(), "s", setup_s.count());
  ReportServeE2e(report, run);
  report.E2e("disk_bytes_per_raw_byte",
             static_cast<double>(b.dir_bytes) / (16.0 * static_cast<double>(points)),
             "ratio", points);
  report.E2e("recover_s", recover_s.RepeatMedian(), "s", recover_s.count());
  const ServedSummary served(b.shards, b.map);
  report.E2e("compression_ratio", ppq::core::CompressionRatio(served, raw), "ratio", points);
  report.E2e("summary_mae_m", ppq::core::SummaryMaeMeters(served, raw), "m", points);

  // --- Per-layer metrics ---------------------------------------------------
  ReportServeLayers(report, ref, spec.workers);
  report.Layer("datagen.generate_s", generate_s.RepeatMedian(), "s", generate_s.count());
  report.Layer("core.encode_us_per_point", encode_us_per_point.RepeatMedian(), "us",
               encode_us_per_point.count());
  report.Layer("core.seal_ms", seal_ms.RepeatMedian(), "ms", seal_ms.count());
  report.Layer("core.save_ms", save_ms.RepeatMedian(), "ms", save_ms.count());
  report.Layer("core.open_ms", open_ms.RepeatMedian(), "ms", open_ms.count());
  report.Layer("repo.append_us_p50", append_us.BlockMedian(0.50, kSetupReps), "us",
               append_us.count());
  report.Layer("repo.append_us_p99", append_us.BlockMedian(0.99, kSetupReps), "us",
               append_us.count());
  ReportRegistryLayers(report, registry, kSetupReps * points);
  report.Layer("repo.replay_ms",
               static_cast<double>(Lookup(registry, "ppq_recovery_replay_micros").sum) * 1e-3,
               "ms", Lookup(registry, "ppq_recovery_replay_micros").count);
  report.Layer("repo.write_bytes_per_raw_byte",
               static_cast<double>(write_bytes.back()) / (16.0 * points), "ratio", points);
  report.Layer("repo.wal_bytes_retained", static_cast<double>(DirectoryBytes(b.dir, ".log")),
               "bytes", 1);
  report.Layer("repo.container_bytes", static_cast<double>(container_bytes.back()), "bytes", 1);
  Sample lateness;
  for (const PhaseResult& phase : phases) {
    for (const Outcome& o : phase.outcomes) lateness.Add(o.lateness_us() * 1e-3);
  }
  ReportLateness(report, "query", lateness, LatenessRole::kDecidesValidity);

  std::string list;
  for (const std::string& n : not_repeating) list += (list.empty() ? "" : ",") + n;
  std::printf("[determinism] not_repeating=%s\n", list.empty() ? "none" : list.c_str());
  return report;
}

}  // namespace

Report RunServeSparse(const RunConfig& config) {
  ServeSpec spec{};
  spec.name = "serve-sparse";
  spec.fleet = FleetSpec{600, 1200, 30, 350};
  spec.shards = 0;
  spec.workers = 2;
  spec.mix = Mix{0.25, 0.2, 0.05, 0.1, 0.25, 0.15};
  spec.reference_qps = 600;
  spec.ladder_qps = {2400, 3000, 3750, 4700, 5900, 7300, 9100, 11400};
  spec.limit_ms = 50.0;
  return RunServe(spec, config);
}

Report RunServeSharded(const RunConfig& config) {
  ServeSpec spec{};
  spec.name = "serve-sharded";
  spec.fleet = FleetSpec{2240, 1200, 30, 350};
  spec.shards = 4;
  spec.workers = 2;
  spec.mix = Mix{0.35, 0.1, 0.1, 0.05, 0.2, 0.2};
  spec.reference_qps = 300;
  spec.ladder_qps = {600, 750, 940, 1170, 1460, 1830, 2290, 2860};
  spec.limit_ms = 50.0;
  return RunServe(spec, config);
}

}  // namespace perfbench
