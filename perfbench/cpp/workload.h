#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/compressor.h"
#include "core/query_types.h"
#include "core/snapshot.h"
#include "cpp/openloop.h"
#include "cpp/stats.h"
#include "cpp/trace.h"
#include "repo/shard_map.h"

/// \file workload.h
/// What the three workloads share: the run configuration, the report
/// every metric goes into, the fleet generator and encoder settings, the
/// mixed request pool, and the checks and measurements common to them.

namespace perfbench {

using ppq::Tick;
using ppq::TrajId;

/// Hardware threads the run may use; load threads + service workers +
/// repository pool threads must fit in it (checked per phase).
size_t Nproc();
/// Abort with a message unless \p threads fit in Nproc().
void CheckThreadBudget(const char* phase, size_t threads);

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;
  /// Working directory for containers and logs (inside the checkout).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// \brief Every number one workload run produced, and its correctness
/// accounting. Missing metrics (a percentile the sample cannot support)
/// are listed, never filled in.
struct Report {
  std::vector<std::pair<std::string, Metric>> e2e;
  std::vector<std::pair<std::string, Metric>> layer;
  /// Numbers printed for information but left out of the result line:
  /// end-to-end numbers whose run-to-run spread on a shared machine is
  /// wider than any bound a regression gate could use, and numbers only
  /// some workloads can measure (the result of every workload carries the
  /// same metrics; see README).
  std::vector<std::pair<std::string, Metric>> ungated;
  std::vector<std::string> missing;
  /// Requests, appends and checks attempted, and how many failed: a
  /// non-OK status, a wrong answer or an unresolved response.
  size_t attempted = 0;
  size_t failed = 0;
  /// An exact-mode answer differed from raw ground truth (or, on
  /// serve-sparse, any answer from the serial reference).
  bool exact_mismatch = false;
  /// The generator fell behind its schedule.
  bool load_invalid = false;
  /// Latency (ms, from due time) of the requests query_p50_ms and
  /// query_p99_ms are taken from, in send order.
  Sample query_latency_ms;

  void E2e(const std::string& name, std::optional<double> value,
           const std::string& unit, size_t samples);
  void Layer(const std::string& name, std::optional<double> value,
             const std::string& unit, size_t samples);
  void Ungated(const std::string& name, std::optional<double> value,
               const std::string& unit, size_t samples);
  const Metric* Find(const std::string& name) const;
};

/// Fleet shape handed to the Porto-like generator.
struct FleetSpec {
  int trajectories = 150;
  Tick horizon = 400;
  int min_length = 30;
  int max_length = 350;
};

/// A fleet is kSubFleets sub-fleets from fixed seeds, each from its own
/// Porto-like generator (each places 8 taxi stands at random), plus a
/// small seeded part (one trajectory in kSeededShare) from the run's seed.
/// Every seed changes the data, but the spatial layout, and with it the
/// index costs (the kNN ring expansion above all), stays the same from
/// seed to seed; with the whole fleet drawn from the seed, the kNN cost
/// per query swung 2x between seeds. The request stream is drawn from the
/// seed in full.
inline constexpr int kSubFleets = 8;
inline constexpr int kSeededShare = 40;
inline constexpr uint64_t kFixedFleetSeed = uint64_t{1} << 40;

/// About \p fleet.trajectories trajectories, as described above.
ppq::TrajectoryDataset GenerateFleet(const FleetSpec& fleet, uint64_t seed);
/// FNV-1a over every trajectory's id, start tick and point bytes.
uint64_t HashDataset(const ppq::TrajectoryDataset& data);
/// FNV-1a over a request pool's kinds and parameters.
uint64_t HashRequests(const std::vector<ppq::core::QueryRequest>& pool);

/// The encoder every workload serves: PPQ-A, error-bounded, indexed, with
/// the Porto calibration of the paper reproduction.
std::unique_ptr<ppq::core::Compressor> MakePpqA();

/// Evaluation grid cell size gc (100 m).
double CellSize();

/// Relative weights of the request kinds in a mixed pool.
struct Mix {
  double strq_exact = 0.0;
  double strq_local = 0.0;
  double window_exact = 0.0;
  double window_local = 0.0;
  double knn = 0.0;
  double tpq_exact = 0.0;
};

inline constexpr size_t kKnnK = 8;
inline constexpr int kTpqLength = 8;

/// \p size requests drawn from \p mix at raw trajectory points of \p data.
std::vector<ppq::core::QueryRequest> MakePool(const ppq::TrajectoryDataset& data,
                                              const Mix& mix, size_t size,
                                              uint64_t seed);

/// Whether \p request is answered in exact mode (checked against raw
/// ground truth).
bool IsExact(const ppq::core::QueryRequest& request);

/// Raw ground truth ids (ascending) of an exact-mode STRQ, window or TPQ.
std::vector<TrajId> GroundTruthIds(const ppq::TrajectoryDataset& data,
                                   const ppq::core::QueryRequest& request);

/// The ids a response returned, ascending.
std::vector<TrajId> ResponseIds(const ppq::core::QueryResponse& response);

/// \brief A sealed summary split over shards, seen through the Compressor
/// interface so core::CompressionRatio and core::SummaryMaeMeters measure
/// exactly what is served (the opened or reopened state). Read-only:
/// ObserveSlice and Finish throw.
class ServedSummary final : public ppq::core::Compressor {
 public:
  ServedSummary(std::vector<ppq::core::SnapshotPtr> shards,
                ppq::repo::ShardMap map);
  std::string name() const override { return "served"; }
  void ObserveSlice(const ppq::TimeSlice&) override;
  void Finish() override;
  ppq::Result<ppq::Point> Reconstruct(TrajId id, Tick t) const override;
  size_t SummaryBytes() const override;
  size_t NumCodewords() const override;

 private:
  std::vector<ppq::core::SnapshotPtr> shards_;
  ppq::repo::ShardMap map_;
  mutable ppq::core::DecodeMemo memo_;
};

/// Bytes of the regular files under \p dir whose names end in \p suffix
/// ("" for all).
uint64_t DirectoryBytes(const std::string& dir, const std::string& suffix = "");

/// Per-layer metrics read off the responses of one open-loop phase
/// (QueryStats). A stage the backend does not have (merge on an unsharded
/// snapshot, tail without live ingest) reads 0 in every response, and so
/// in its share. index.knn_scan_us_p95 is printed ungated when the phase
/// served kNN requests.
void ReportServeLayers(Report& report, const PhaseResult& phase,
                       size_t workers);

enum class LatenessRole {
  /// The query generator: its lateness is a per-layer metric, and a run
  /// whose generator fell behind its schedule (more than 1% of sends over
  /// 10 ms late) is flagged invalid.
  kDecidesValidity,
  /// The ingest producer, which blocks in Append: its lateness is the
  /// repository's back-pressure, printed ungated.
  kBackPressure,
};

/// Generator lateness p99/max, as load.<prefix>_lateness_{p99,max}_ms.
void ReportLateness(Report& report, const char* prefix,
                    const Sample& lateness_ms, LatenessRole role);

/// Registry metrics of the repo layer over one phase (count/sum/max); 0
/// for a phase that never reached them.
void ReportRegistryLayers(Report& report, const RegistryTotals& phase,
                          size_t new_points);

/// The fixed rates one workload is served at.
struct RateSpec {
  /// The rate query_p50_ms, query_p99_ms and knn_p95_ms are measured at.
  double reference_qps = 0.0;
  /// Ascending; capacity_qps is the highest that holds.
  std::vector<double> ladder_qps;
  /// The p95 limit a ladder rate must meet.
  double limit_ms = 0.0;
  size_t workers = 1;
  /// The reference rate runs as this many back-to-back blocks; each
  /// reference metric is the median of its per-block values.
  size_t reference_blocks = 1;
};

/// The phases of one open-loop serving run.
struct ServeRun {
  std::vector<PhaseResult> phases;
  /// phases[reference, reference + reference_blocks) ran at the
  /// reference rate.
  size_t reference = 0;
  size_t reference_blocks = 1;
  std::vector<RateStep> steps;
  double limit_ms = 0.0;

  /// The reference blocks as one phase (outcomes in send order; wall and
  /// CPU time summed).
  PhaseResult Reference() const;
};

/// Serve \p pool open loop: a warm-up (5% of \p seconds), the reference
/// rate (55%, in rates.reference_blocks blocks), then the ladder (40%,
/// split evenly, at least 0.5 s and 300 requests per rate), stopping after
/// a rate whose backlog overflowed. Queries are traced
/// under \p backend_span. \p between_phases runs after every phase, when
/// no request is outstanding.
ServeRun ServeOpenLoop(ppq::core::QueryBackend& service,
                       const std::vector<ppq::core::QueryRequest>& pool,
                       const RateSpec& rates, double seconds, uint64_t seed,
                       Tracer& tracer, const char* backend_span,
                       uint64_t* next_request,
                       const std::function<void()>& between_phases);

/// Prints one `[kind]` line per request kind: count, latency p50/p99
/// and mean evaluation time.
void PrintKinds(const char* phase_name, const PhaseResult& phase);

/// The end-to-end numbers of a serving run, all ungated (see README):
/// query_p50_ms, query_p99_ms, knn_p95_ms, capacity_qps and
/// cpu_us_per_query.
void ReportServeE2e(Report& report, const ServeRun& run);

/// Prints `[<tag>] reps=... <name>=...`: every repetition's value, in
/// order (set-ups, reopens).
void PrintRepeats(const char* tag, const char* name, const Sample& values);

/// Prints `[determinism] count=... values=... repeat=yes|no`; a count
/// whose values differ is added to \p not_repeating.
void CheckRepeats(const std::string& name, const std::vector<uint64_t>& values,
                  std::vector<std::string>* not_repeating);

Report RunServeSparse(const RunConfig& config);
Report RunServeSharded(const RunConfig& config);
Report RunIngestLive(const RunConfig& config);

}  // namespace perfbench
