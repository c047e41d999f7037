#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file stats.h
/// The benchmark's measurement helpers: the one percentile helper every
/// timing goes through, registry histogram deltas read as count/sum/max
/// only, process counters from /proc and getrusage, and the FNV-1a hash
/// the determinism checks print.

namespace perfbench {

/// A percentile needs at least this many samples strictly beyond its rank;
/// with fewer, the percentile is refused (reported missing), never lowered
/// to one the sample supports.
inline constexpr size_t kMinSamplesBeyond = 10;

/// \brief A set of timing samples, kept in the order they were taken.
/// Percentile() is the nearest-rank percentile (the value at 1-based rank
/// ceil(q * n) of the sorted samples) and is refused when fewer than
/// kMinSamplesBeyond samples lie beyond that rank.
class Sample {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_.clear();
  }
  void Append(const Sample& other);
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// The samples in the order taken.
  const std::vector<double>& values() const { return values_; }

  /// Nearest-rank percentile, or nullopt when the tail is too thin.
  std::optional<double> Percentile(double q) const;
  /// The samples split, in the order taken, into equal runs (blocks);
  /// the median of the blocks' Percentile(q) over the blocks whose tail
  /// is thick enough (nullopt when none is). As many blocks as leave each
  /// at least 12 samples beyond the percentile, at most \p max_blocks. A
  /// stall of the machine during one block moves one block value, not the
  /// median.
  std::optional<double> BlockMedian(double q, size_t max_blocks) const;
  /// Median of a handful of repetitions of one whole phase (set-up runs):
  /// no tail rule, because it is not a tail percentile. Never use it for
  /// a latency distribution.
  std::optional<double> RepeatMedian() const;
  double Max() const;
  double Sum() const;
  double Mean() const { return values_.empty() ? 0.0 : Sum() / count(); }

 private:
  const std::vector<double>& Sorted() const;

  std::vector<double> values_;
  /// Sorted copy of values_, built on first use; empty when stale.
  mutable std::vector<double> sorted_;
};

/// \brief One registry histogram (all label series of one name merged),
/// read as count, sum and max only. Quantile() is never used: its log2
/// buckets put a value up to 2x above the true one.
struct HistogramTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Registry state at one instant: histogram totals by metric name.
using RegistryTotals = std::map<std::string, HistogramTotals>;

/// Merge every label series of every histogram in \p registry by name.
RegistryTotals ReadRegistry(const ppq::obs::Registry& registry);

/// Per-name difference `after - before` of counts and sums (the activity
/// of one phase). max is after's max when it grew during the phase, else
/// 0: a max does not difference.
RegistryTotals DiffRegistry(const RegistryTotals& before,
                            const RegistryTotals& after);

/// Totals for \p name, zero when the phase never touched it.
HistogramTotals Lookup(const RegistryTotals& totals, const std::string& name);

/// Seconds of CPU the whole process has used.
double ProcessCpuSeconds();
/// Seconds of CPU the calling thread has used.
double ThreadCpuSeconds();
/// Ids of this process's threads (/proc/self/task).
std::vector<int> ThreadIds();
/// Id of the calling thread.
int CurrentThreadId();
/// Seconds of CPU thread \p tid of this process has used, from
/// /proc/self/task/<tid>/schedstat (ns), else its stat utime + stime;
/// nullopt when neither can be read (the thread has ended).
std::optional<double> TaskCpuSeconds(int tid);
/// `wchar` of /proc/self/io: bytes the process passed to write calls.
uint64_t ProcessWriteBytes();

/// Incremental 64-bit FNV-1a.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n);
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench
