/// \file ingest_workload.cc
/// ingest-live: a durable LiveRepository takes a paced stream from one
/// producer while a low-rate exact query stream follows the ingest
/// frontier; then the repository is rolled, closed cleanly, reopened and
/// served again.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <variant>

#include "common/random.h"
#include "core/metrics.h"
#include "cpp/workload.h"
#include "obs/metrics.h"
#include "repo/live_query_service.h"
#include "repo/live_repository.h"

namespace perfbench {
namespace {

using ppq::core::QueryRequest;
using ppq::repo::LiveRepository;

constexpr int kSetupReps = 5;
/// Clean reopens of the closed repository, each of a fresh copy of it;
/// recover_s is their median. The first reopen in the process takes
/// about twice as long as the rest, and the rest spread by +-30%: with
/// five, the median alone moved by 15% from run to run.
constexpr int kReopens = 9;
constexpr uint32_t kShards = 4;
/// One background sealer: producer + query generator + sealer + one
/// query worker fill a 4-thread budget.
constexpr size_t kSealThreads = 1;
constexpr size_t kLiveWorkers = 1;
/// Ticks ingested unpaced during set-up, before the paced stream.
constexpr Tick kPrefillTicks = 300;
/// At most this many blocks of the live phase's time-ordered samples
/// (see Sample::BlockMedian).
constexpr size_t kLiveBlocks = 7;
/// The paced producer's rate: one Append per tick, so that a 20 s run
/// (15 s of live phase) has the 1000 appends a p99 needs.
constexpr double kTicksPerSecond = 80.0;
/// Trajectories active per tick, on average, in the steady part of the
/// stream.
constexpr double kActivePerTick = 150.0;
/// The query stream that follows the frontier.
constexpr double kLiveQps = 400.0;
/// A frontier query targets the tick this many ticks before the newest
/// one due, so a producer running a little late does not hold it back.
constexpr Tick kFrontierLagTicks = 8;

LiveRepository::Options LiveOptions() {
  LiveRepository::Options options;
  options.num_shards = kShards;
  options.num_threads = kSealThreads;
  // watermark_ticks, watermark_points and wal_sync_interval keep their
  // defaults (group commit every 32 records per shard).
  return options;
}

LiveRepository::CompressorFactory Factory() {
  return [](uint32_t) { return MakePpqA(); };
}

/// The dataset cut at \p end: every point at tick >= end removed. Ids are
/// kept (empty trajectories stay), so the cut agrees with the full data
/// on every tick before \p end.
ppq::TrajectoryDataset CutAt(const ppq::TrajectoryDataset& data, Tick end) {
  std::vector<ppq::Trajectory> kept;
  kept.reserve(data.size());
  for (const ppq::Trajectory& traj : data.trajectories()) {
    ppq::Trajectory cut = traj;
    if (cut.start_tick >= end) {
      cut.points.clear();
    } else if (cut.end_tick() > end) {
      cut.points.resize(static_cast<size_t>(end - cut.start_tick));
    }
    kept.push_back(std::move(cut));
  }
  return ppq::TrajectoryDataset(std::move(kept));
}

/// Exact STRQ / window / TPQ at the tick the producer is due to have
/// appended last when each query is due, at a point active there.
std::vector<QueryRequest> FrontierPool(const ppq::TrajectoryDataset& data,
                                       const std::vector<Arrival>& schedule,
                                       std::vector<Tick>* ticks, uint64_t seed) {
  ppq::Rng rng(seed);
  std::vector<QueryRequest> pool;
  for (const Arrival& a : schedule) {
    Tick tick = kPrefillTicks - kFrontierLagTicks +
                static_cast<Tick>(std::floor(a.due_s * kTicksPerSecond));
    while (data.ActiveIdsAt(tick).empty()) --tick;
    const std::vector<TrajId>& ids = data.ActiveIdsAt(tick);
    const TrajId id = ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    const ppq::core::QuerySpec q{data[static_cast<size_t>(id)].At(tick), tick};
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.5) {
      pool.emplace_back(ppq::core::StrqRequest{q, ppq::core::StrqMode::kExact});
    } else if (u < 0.8) {
      const double half = rng.Uniform(0.001, 0.01);
      pool.emplace_back(ppq::core::WindowRequest{
          ppq::core::WindowSpec{
              ppq::core::Window{q.position.x - half, q.position.y - half,
                                q.position.x + half, q.position.y + half},
              tick},
          ppq::core::StrqMode::kExact});
    } else {
      pool.emplace_back(
          ppq::core::TpqRequest{q, kTpqLength, ppq::core::StrqMode::kExact});
    }
    ticks->push_back(tick);
  }
  return pool;
}

struct SetupRep {
  double setup_s = 0.0;
  double generate_s = 0.0;
  double open_s = 0.0;
  double prefill_s = 0.0;
  uint64_t seals = 0;
  uint64_t wal_syncs = 0;
  uint64_t write_bytes = 0;
  uint64_t container_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t dataset_hash = 0;
};

std::shared_ptr<LiveRepository> OpenOrDie(const std::string& dir) {
  auto opened = ppq::repo::OpenLiveRepository(dir, Factory(), LiveOptions());
  if (!opened.ok()) {
    throw std::runtime_error("OpenLiveRepository: " + opened.status().ToString());
  }
  return *opened;
}

}  // namespace

Report RunIngestLive(const RunConfig& config) {
  Report report;
  Tracer& tracer = *config.tracer;
  std::vector<std::string> not_repeating;
  const std::string dir = config.work_dir + "/ingest-live";
  // The rest of the run closes, reopens kReopens times and re-checks.
  const double live_seconds = 0.75 * config.seconds;
  const Tick live_ticks = static_cast<Tick>(std::lround(live_seconds * kTicksPerSecond));
  const Tick end = kPrefillTicks + live_ticks;
  FleetSpec fleet;
  // Trajectories run past the stream's end so that the density stays
  // level up to it.
  fleet.horizon = end + fleet.max_length;
  fleet.trajectories = static_cast<int>(std::lround(
      kActivePerTick * fleet.horizon / (0.5 * (fleet.min_length + fleet.max_length))));

  // --- Set-up, repeated: generate, prefill durably, close, reopen --------
  Sample setup_s, generate_s, open_ms, prefill_rate;
  const auto prefill_points = [](const ppq::TrajectoryDataset& d) {
    size_t n = 0;
    for (Tick t = 0; t < kPrefillTicks; ++t) n += d.ActiveIdsAt(t).size();
    return n;
  };
  std::vector<uint64_t> hashes, seals, syncs, writes, containers, wals;
  std::shared_ptr<const ppq::TrajectoryDataset> data;
  // One batch per tick: the producer appends tick by tick.
  std::vector<ppq::PointBatch> stream;
  std::shared_ptr<LiveRepository> live;
  CheckThreadBudget("setup.prefill", 1 + kSealThreads);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    std::filesystem::remove_all(dir);
    ScopedSpan setup_span(tracer, "bench.setup");
    SetupRep r;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "datagen.Generate", setup_span.id());
      data = std::make_shared<const ppq::TrajectoryDataset>(
          CutAt(GenerateFleet(fleet, config.seed), end));
      stream.clear();
      for (Tick t = 0; t < end; ++t) stream.push_back(data->BatchAt(t));
    }
    r.generate_s = Seconds(t0, NowNs());
    const RegistryTotals before = ReadRegistry(ppq::obs::Registry::Default());
    const uint64_t wchar0 = ProcessWriteBytes();
    {
      ScopedSpan span(tracer, "repo.Open", setup_span.id());
      auto opened = LiveRepository::Open(dir, Factory(), LiveOptions());
      if (!opened.ok()) throw std::runtime_error("Open: " + opened.status().ToString());
      live = *opened;
    }
    const int64_t p0 = NowNs();
    for (Tick t = 0; t < kPrefillTicks; ++t) {
      ScopedSpan span(tracer, "repo.Append", setup_span.id());
      const ppq::Status appended = live->Append(stream[static_cast<size_t>(t)]);
      if (!appended.ok()) throw std::runtime_error("Append: " + appended.ToString());
    }
    r.prefill_s = Seconds(p0, NowNs());
    {
      ScopedSpan span(tracer, "repo.RollAll", setup_span.id());
      live->RollAll();
    }
    {
      ScopedSpan span(tracer, "repo.Quiesce", setup_span.id());
      live->Quiesce();
    }
    {
      ScopedSpan span(tracer, "repo.Close", setup_span.id());
      live.reset();
    }
    const RegistryTotals prefill = DiffRegistry(before, ReadRegistry(ppq::obs::Registry::Default()));
    r.write_bytes = ProcessWriteBytes() - wchar0;
    r.seals = Lookup(prefill, "ppq_ingest_seal_micros").count;
    r.wal_syncs = Lookup(prefill, "ppq_wal_sync_micros").count;
    r.container_bytes = DirectoryBytes(dir, ".snapshot");
    r.wal_bytes = DirectoryBytes(dir, ".log");
    const int64_t o0 = NowNs();
    {
      ScopedSpan span(tracer, "repo.OpenLiveRepository", setup_span.id());
      live = OpenOrDie(dir);
    }
    r.open_s = Seconds(o0, NowNs());
    r.setup_s = Seconds(t0, NowNs());
    r.dataset_hash = HashDataset(*data);
    setup_s.Add(r.setup_s);
    generate_s.Add(r.generate_s);
    open_ms.Add(r.open_s * 1e3);
    prefill_rate.Add(static_cast<double>(prefill_points(*data)) / r.prefill_s);
    hashes.push_back(r.dataset_hash);
    seals.push_back(r.seals);
    syncs.push_back(r.wal_syncs);
    writes.push_back(r.write_bytes);
    containers.push_back(r.container_bytes);
    wals.push_back(r.wal_bytes);
  }
  const ppq::TrajectoryDataset& raw = *data;
  const size_t total_points = raw.TotalPoints();
  size_t live_points = 0;
  for (Tick t = kPrefillTicks; t < end; ++t) live_points += stream[static_cast<size_t>(t)].size();
  std::printf("[inputs] workload=ingest-live seed=%llu trajectories=%zu "
              "points=%zu prefill_ticks=%d live_ticks=%d live_points=%zu "
              "ticks_per_s=%.0f shards=%u "
              "wal_sync_interval=%zu watermark_ticks=%d dataset_hash=%016llx\n",
              static_cast<unsigned long long>(config.seed), raw.size(),
              total_points, static_cast<int>(kPrefillTicks),
              static_cast<int>(live_ticks), live_points, kTicksPerSecond, kShards,
              LiveOptions().wal_sync_interval,
              static_cast<int>(LiveOptions().watermark_ticks),
              static_cast<unsigned long long>(hashes.back()));
  std::printf("[ingest] unpaced_prefill_points_per_s=%.0f paced_points_per_s=%.0f\n",
              *prefill_rate.RepeatMedian(),
              static_cast<double>(live_points) / live_seconds);
  std::printf("[flush] policy=group_commit wal_sync_interval=%zu records per "
              "shard; every seal syncs the WAL, persists the container and "
              "rotates the log\n",
              LiveOptions().wal_sync_interval);
  {
    const uint64_t other = HashDataset(CutAt(GenerateFleet(fleet, config.seed + 1), end));
    const bool differs = other != hashes.back();
    std::printf("[inputs] other_seed=%llu dataset_hash=%016llx differs=%s\n",
                static_cast<unsigned long long>(config.seed + 1),
                static_cast<unsigned long long>(other), differs ? "yes" : "no");
    if (!differs) not_repeating.push_back("seed_changes_dataset");
  }
  PrintRepeats("setup", "setup_s", setup_s);
  CheckRepeats("dataset_hash", hashes, &not_repeating);
  CheckRepeats("prefill_seals", seals, &not_repeating);
  CheckRepeats("prefill_wal_syncs", syncs, &not_repeating);
  CheckRepeats("prefill_write_bytes", writes, &not_repeating);
  CheckRepeats("prefill_container_bytes", containers, &not_repeating);
  CheckRepeats("prefill_wal_bytes", wals, &not_repeating);

  // --- Live phase: paced producer + frontier queries --------------------
  CheckThreadBudget("live", 1 + 1 + kSealThreads + kLiveWorkers);
  std::vector<Arrival> schedule;
  {
    std::mt19937_64 rng(config.seed * 1000003 + 7);
    std::exponential_distribution<double> gap(kLiveQps);
    for (double t = gap(rng); t < live_seconds; t += gap(rng)) {
      schedule.push_back(Arrival{t, static_cast<uint32_t>(schedule.size())});
    }
  }
  std::vector<Tick> query_ticks;
  const std::vector<QueryRequest> live_pool =
      FrontierPool(raw, schedule, &query_ticks, config.seed + 99);
  std::printf("[inputs] live_queries=%zu pool_hash=%016llx\n", live_pool.size(),
              static_cast<unsigned long long>(HashRequests(live_pool)));

  // Before the query service starts its workers, the only threads besides
  // this one are the repository's background sealers.
  std::vector<int> sealer_threads = ThreadIds();
  sealer_threads.erase(
      std::remove(sealer_threads.begin(), sealer_threads.end(), CurrentThreadId()),
      sealer_threads.end());
  auto service = std::make_unique<ppq::repo::LiveQueryService>(
      std::static_pointer_cast<const LiveRepository>(live),
      ppq::repo::LiveQueryService::Options{kLiveWorkers, data, CellSize(),
                                           size_t{1} << 22});
  std::atomic<Tick> frontier{kPrefillTicks - 1};
  Sample append_us;
  Sample freshness_ms;
  Sample producer_lateness_ms;
  std::atomic<bool> append_failed{false};
  const RegistryTotals live_before = ReadRegistry(ppq::obs::Registry::Default());
  const uint64_t live_wchar0 = ProcessWriteBytes();
  const auto sealer_cpu = [&]() -> std::optional<double> {
    double total = 0.0;
    for (int tid : sealer_threads) {
      const std::optional<double> cpu = TaskCpuSeconds(tid);
      if (!cpu) return std::nullopt;
      total += *cpu;
    }
    return total;
  };
  const std::optional<double> sealer_cpu0 = sealer_cpu();
  // The producer's CPU in Append, without its freshness polling.
  double producer_cpu = 0.0;
  size_t fresh_pending_at_end = 0;
  ScopedSpan live_span(tracer, "bench.live");
  const int64_t start_ns = NowNs() + 1000000;
  std::thread producer([&] {
    // Per shard: (tick, append-return time) not yet covered by a seal.
    std::vector<std::deque<std::pair<Tick, int64_t>>> unsealed(kShards);
    const auto poll = [&] {
      const int64_t now = NowNs();
      for (uint32_t s = 0; s < kShards; ++s) {
        const Tick through = live->ShardView(s)->sealed_through;
        auto& q = unsealed[s];
        while (!q.empty() && q.front().first <= through) {
          freshness_ms.Add(1e-6 * static_cast<double>(now - q.front().second));
          q.pop_front();
        }
      }
    };
    for (Tick t = kPrefillTicks; t < end; ++t) {
      const int64_t due = start_ns + static_cast<int64_t>(
          1e9 * static_cast<double>(t - kPrefillTicks) / kTicksPerSecond);
      while (NowNs() < due) {
        poll();
        const int64_t left = due - NowNs();
        if (left > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<int64_t>(left, 1000000)));
        }
      }
      const ppq::PointBatch& batch = stream[static_cast<size_t>(t)];
      producer_lateness_ms.Add(1e-6 * static_cast<double>(NowNs() - due));
      const uint64_t span_id = tracer.Reserve();
      const double cpu0 = ThreadCpuSeconds();
      const int64_t a = NowNs();
      const ppq::Status appended = live->Append(batch);
      const int64_t z = NowNs();
      producer_cpu += ThreadCpuSeconds() - cpu0;
      tracer.Record("repo.Append", a, z, live_span.id(), 0, span_id);
      append_us.Add(1e-3 * static_cast<double>(z - a));
      if (!appended.ok()) append_failed = true;
      bool touched[kShards] = {};
      for (TrajId id : batch.ids) touched[live->shard_map().ShardOf(id)] = true;
      for (uint32_t s = 0; s < kShards; ++s) {
        if (touched[s]) unsealed[s].emplace_back(t, z);
      }
      frontier.store(t, std::memory_order_release);
      poll();
    }
    for (const auto& q : unsealed) fresh_pending_at_end += q.size();
  });
  // Joins the producer on every way out of this scope, exceptions included.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{producer};
  Sample tail_points;
  LoopHooks hooks;
  hooks.ready = [&](uint32_t entry) {
    return query_ticks[entry] <= frontier.load(std::memory_order_acquire);
  };
  hooks.on_submit = [&](uint32_t) {
    size_t points = 0;
    for (uint32_t s = 0; s < kShards; ++s) points += live->ShardView(s)->tail_points;
    tail_points.Add(static_cast<double>(points));
  };
  PhaseResult live_phase;
  {
    // The generator's schedule starts with the producer's.
    const int64_t lead = start_ns - NowNs();
    if (lead > 1000000) std::this_thread::sleep_for(std::chrono::nanoseconds(lead - 1000000));
    live_phase = RunOpenLoop(*service, live_pool, schedule, 100000, hooks);
  }
  producer.join();
  const double live_wall_s = Seconds(start_ns, NowNs());
  // Ingest CPU: the producer's inside Append plus the background
  // sealers'. The query worker and the generator are not counted.
  const std::optional<double> sealer_cpu1 = sealer_cpu();
  const bool ingest_cpu_ok =
      sealer_threads.size() == kSealThreads && sealer_cpu0 && sealer_cpu1;
  const double sealer_s = ingest_cpu_ok ? *sealer_cpu1 - *sealer_cpu0 : 0.0;
  std::printf("[cpu] producer_append_s=%.4f sealer_threads=%zu sealer_s=%s\n", producer_cpu,
              sealer_threads.size(), ingest_cpu_ok ? std::to_string(sealer_s).c_str() : "missing");
  uint64_t next_request = 1;
  TraceOutcomes(tracer, "repo.LiveQueryService", live_span.id(), live_phase, &next_request);
  {
    ScopedSpan span(tracer, "repo.RollAll", live_span.id());
    live->RollAll();
  }
  {
    ScopedSpan span(tracer, "repo.Quiesce", live_span.id());
    live->Quiesce();
  }
  const RegistryTotals live_totals =
      DiffRegistry(live_before, ReadRegistry(ppq::obs::Registry::Default()));
  const uint64_t live_write_bytes = ProcessWriteBytes() - live_wchar0;
  const int64_t close0 = NowNs();
  {
    ScopedSpan span(tracer, "repo.Close", live_span.id());
    service.reset();
    live.reset();
  }
  const double close_ms = 1e-6 * static_cast<double>(NowNs() - close0);
  const uint64_t dir_bytes = DirectoryBytes(dir);
  const uint64_t wal_bytes = DirectoryBytes(dir, ".log");
  const uint64_t container_bytes = DirectoryBytes(dir, ".snapshot");

  // --- Reopen, kReopens times; the last one serves ------------------------
  // A reopen changes the directory (it retires the active log), so each
  // one opens a fresh copy of the closed directory: every repetition
  // recovers from the same state.
  const std::string closed = dir + ".closed";
  std::filesystem::remove_all(closed);
  std::filesystem::copy(dir, closed, std::filesystem::copy_options::recursive);
  Sample recover_s;
  RegistryTotals reopen;
  for (int i = 0; i < kReopens; ++i) {
    live.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::copy(closed, dir, std::filesystem::copy_options::recursive);
    const RegistryTotals reopen_before = ReadRegistry(ppq::obs::Registry::Default());
    const int64_t r0 = NowNs();
    {
      ScopedSpan span(tracer, "repo.OpenLiveRepository");
      live = OpenOrDie(dir);
    }
    recover_s.Add(Seconds(r0, NowNs()));
    reopen = DiffRegistry(reopen_before, ReadRegistry(ppq::obs::Registry::Default()));
  }
  const bool recovered_all = live->TotalPointsAppended() == total_points;
  PrintRepeats("recover", "recover_s", recover_s);
  std::printf("[recover] points=%zu expected=%zu\n", live->TotalPointsAppended(),
              total_points);

  // --- Correctness: the live answers, then every live query again -------
  std::vector<std::vector<TrajId>> truth(live_pool.size());
  for (size_t i = 0; i < live_pool.size(); ++i) truth[i] = GroundTruthIds(raw, live_pool[i]);
  const auto check = [&](const ppq::core::QueryResponse& response, size_t entry) {
    ++report.attempted;
    if (!response.ok()) {
      ++report.failed;
      return;
    }
    if (ResponseIds(response) != truth[entry]) {
      ++report.failed;
      report.exact_mismatch = true;
    }
  };
  for (const Outcome& o : live_phase.outcomes) check(o.response, o.entry);
  report.attempted += live_phase.scheduled - live_phase.outcomes.size();
  report.failed += live_phase.scheduled - live_phase.outcomes.size();
  const size_t live_checked = live_phase.outcomes.size();
  service = std::make_unique<ppq::repo::LiveQueryService>(
      std::static_pointer_cast<const LiveRepository>(live),
      ppq::repo::LiveQueryService::Options{kLiveWorkers, data, CellSize(),
                                           size_t{1} << 22});
  {
    std::vector<std::future<ppq::core::QueryResponse>> futures =
        service->SubmitBatch(live_pool);
    for (size_t i = 0; i < futures.size(); ++i) check(futures[i].get(), i);
  }
  report.attempted += 1;
  if (!recovered_all) ++report.failed;
  report.attempted += append_us.count();
  if (append_failed) ++report.failed;

  std::printf("[check] workload=ingest-live live_checked=%zu reopen_checked=%zu "
              "responses=%zu failed=%zu oracle=raw_ground_truth recovered_all=%s\n",
              live_checked, live_pool.size(), report.attempted, report.failed,
              recovered_all ? "yes" : "no");
  const ServedSummary served(live->SealedSnapshot()->shards(), live->shard_map());
  service.reset();
  const double compression = ppq::core::CompressionRatio(served, raw);
  const double mae = ppq::core::SummaryMaeMeters(served, raw);
  live.reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(closed);

  // --- End-to-end metrics ------------------------------------------------
  // Live-phase samples are in time order: each metric is the median of
  // kLiveBlocks consecutive blocks.
  const Sample latency = LatencyMs(live_phase);
  report.E2e("setup_s", setup_s.RepeatMedian(), "s", setup_s.count());
  report.Ungated("query_p50_ms", latency.BlockMedian(0.50, kLiveBlocks), "ms", latency.count());
  report.Ungated("query_p99_ms", latency.BlockMedian(0.99, kLiveBlocks), "ms", latency.count());
  report.query_latency_ms = latency;
  report.Ungated("append_p99_us", append_us.BlockMedian(0.99, kLiveBlocks), "us",
                 append_us.count());
  // Only this workload ingests while serving: freshness and ingest CPU are
  // printed, not in the result, which carries the same metrics for every
  // workload.
  report.Ungated("freshness_p50_ms", freshness_ms.BlockMedian(0.50, kLiveBlocks), "ms",
                 freshness_ms.count());
  report.Ungated("freshness_p99_ms", freshness_ms.BlockMedian(0.99, kLiveBlocks), "ms",
                 freshness_ms.count());
  report.Ungated("cpu_us_per_point",
                 ingest_cpu_ok ? std::optional<double>((producer_cpu + sealer_s) * 1e6 /
                                                       static_cast<double>(live_points))
                               : std::nullopt,
                 "us", live_points);
  report.E2e("disk_bytes_per_raw_byte",
             static_cast<double>(dir_bytes) / (16.0 * static_cast<double>(total_points)),
             "ratio", total_points);
  report.E2e("recover_s", recover_s.RepeatMedian(), "s", recover_s.count());
  report.E2e("compression_ratio", compression, "ratio", total_points);
  report.E2e("summary_mae_m", mae, "m", total_points);

  // --- Per-layer metrics ---------------------------------------------------
  ReportServeLayers(report, live_phase, kLiveWorkers);
  report.Ungated("repo.tail_points_mean", tail_points.Mean(), "points", tail_points.count());
  report.Layer("datagen.generate_s", generate_s.RepeatMedian(), "s", generate_s.count());
  const HistogramTotals flush = Lookup(live_totals, "ppq_ingest_flush_micros");
  report.Layer("core.encode_us_per_point",
               static_cast<double>(flush.sum) / static_cast<double>(live_points), "us",
               flush.count);
  report.Layer("core.seal_ms", Lookup(live_totals, "ppq_ingest_seal_micros").Mean() * 1e-3,
               "ms", Lookup(live_totals, "ppq_ingest_seal_micros").count);
  report.Layer("core.save_ms", close_ms, "ms", 1);
  report.Layer("core.open_ms", open_ms.RepeatMedian(), "ms", open_ms.count());
  report.Layer("repo.append_us_p50", append_us.BlockMedian(0.50, kLiveBlocks), "us",
               append_us.count());
  report.Layer("repo.append_us_p99", append_us.BlockMedian(0.99, kLiveBlocks), "us",
               append_us.count());
  ReportRegistryLayers(report, live_totals, live_points);
  report.Layer("repo.replay_ms",
               static_cast<double>(Lookup(reopen, "ppq_recovery_replay_micros").sum) * 1e-3,
               "ms", Lookup(reopen, "ppq_recovery_replay_micros").count);
  report.Layer("repo.write_bytes_per_raw_byte",
               static_cast<double>(live_write_bytes) / (16.0 * static_cast<double>(live_points)),
               "ratio", live_points);
  report.Layer("repo.wal_bytes_retained", static_cast<double>(wal_bytes), "bytes", 1);
  report.Layer("repo.container_bytes", static_cast<double>(container_bytes), "bytes", 1);
  Sample query_lateness;
  for (const Outcome& o : live_phase.outcomes) query_lateness.Add(o.lateness_us() * 1e-3);
  ReportLateness(report, "query", query_lateness, LatenessRole::kDecidesValidity);
  ReportLateness(report, "producer", producer_lateness_ms, LatenessRole::kBackPressure);
  std::printf("[live] wall_s=%.3f appends=%zu freshness_samples=%zu "
              "left_to_closing_roll=%zu dir_bytes=%llu wal_bytes=%llu "
              "container_bytes=%llu\n",
              live_wall_s, append_us.count(), freshness_ms.count(),
              fresh_pending_at_end, static_cast<unsigned long long>(dir_bytes),
              static_cast<unsigned long long>(wal_bytes),
              static_cast<unsigned long long>(container_bytes));

  std::string list;
  for (const std::string& n : not_repeating) list += (list.empty() ? "" : ",") + n;
  std::printf("[determinism] not_repeating=%s\n", list.empty() ? "none" : list.c_str());
  return report;
}

}  // namespace perfbench
