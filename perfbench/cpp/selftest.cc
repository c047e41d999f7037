/// \file selftest.cc
/// Checks of the benchmark's own measurement helpers; run before every
/// benchmark run. Exits non-zero on the first failed check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "cpp/stats.h"
#include "cpp/trace.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

/// Sample::Percentile against a sorted-sample oracle written with integer
/// ranks: rank = ceil(q_permille * n / 1000), refused unless at least ten
/// samples lie beyond it.
void PercentileMatchesOracle() {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  for (size_t n : {0, 1, 9, 10, 11, 19, 20, 21, 100, 999, 1000, 1001, 4321}) {
    Sample sample;
    std::vector<double> sorted;
    for (size_t i = 0; i < n; ++i) {
      const double v = dist(rng);
      sample.Add(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (size_t permille : {500, 900, 990, 999}) {
      const size_t rank = std::max<size_t>(1, (permille * n + 999) / 1000);
      const bool supported = n > 0 && n - rank >= kMinSamplesBeyond;
      const auto got = sample.Percentile(static_cast<double>(permille) / 1000.0);
      Expect(got.has_value() == supported, "percentile refusal matches the oracle");
      if (got && supported) Expect(*got == sorted[rank - 1], "percentile value matches the oracle");
    }
  }
  Sample exact;
  for (int i = 1; i <= 1000; ++i) exact.Add(i);
  Expect(exact.Percentile(0.99) == 990.0, "p99 of 1..1000 is 990 with ten beyond");
  Sample short_tail;
  for (int i = 1; i <= 999; ++i) short_tail.Add(i);
  Expect(!short_tail.Percentile(0.99).has_value(), "p99 of 999 samples is refused");
}

/// Registry histograms are read as count/sum/max deltas: the mean is
/// exact where the log2 bucket bound is twice the true value.
void HistogramMeanIsExact() {
  ppq::obs::Registry registry;
  ppq::obs::Histogram* h = registry.GetHistogram("seal_micros");
  h->Observe(100);  // before the phase
  const RegistryTotals before = ReadRegistry(registry);
  for (uint64_t v : {4100, 4100, 4200, 9000}) h->Observe(v);
  const RegistryTotals phase = DiffRegistry(before, ReadRegistry(registry));
  const HistogramTotals t = Lookup(phase, "seal_micros");
  Expect(t.count == 4, "phase count");
  Expect(t.sum == 21400, "phase sum");
  Expect(t.Mean() == 5350.0, "phase mean is exact");
  Expect(t.max == 9000, "phase max");
  const uint64_t bucket_p50 = h->Snapshot().Quantile(0.5);
  Expect(bucket_p50 == 8191, "the log2 bucket reads the 4.1 ms median as 8191 us");
  Expect(static_cast<double>(bucket_p50) >= 1.9 * 4100.0, "bucket bound is ~2x off");
}

void SelfTimeSubtractsChildCover() {
  Tracer tracer(true);
  const uint64_t parent = tracer.Reserve();
  tracer.Record("index.scan", 10, 30, parent);
  tracer.Record("core.decode", 20, 50, parent);
  tracer.Record("core.Submit", 0, 100, 0, 0, parent);
  const auto self = tracer.SelfMillisByLayer();
  // core.Submit: 100 - 40 covered by children; core.decode: 30.
  Expect(std::abs(self.at("core") * 1e6 - 90.0) < 1e-6, "core self time");
  Expect(std::abs(self.at("index") * 1e6 - 20.0) < 1e-6, "index self time");
  Tracer off(false);
  Expect(off.Record("core.x", 0, 1) == 0 && off.size() == 0, "disabled tracer records nothing");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileMatchesOracle();
  perfbench::HistogramMeanIsExact();
  perfbench::SelfTimeSubtractsChildCover();
  if (perfbench::failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
