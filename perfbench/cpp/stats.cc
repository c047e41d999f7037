#include "cpp/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

void Sample::Append(const Sample& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_.clear();
}

const std::vector<double>& Sample::Sorted() const {
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

std::optional<double> Sample::Percentile(double q) const {
  const size_t n = values_.size();
  if (n == 0 || q < 0.0 || q > 1.0) return std::nullopt;
  // The epsilon keeps q * n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up a rank.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::max<size_t>(rank, 1);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return Sorted()[rank - 1];
}

std::optional<double> Sample::BlockMedian(double q, size_t max_blocks) const {
  const size_t n = values_.size();
  // 12 rather than kMinSamplesBeyond: blocks of a Poisson stream vary in
  // size, and a block that falls short is dropped from the median.
  const size_t supported = static_cast<size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) / 12.0));
  const size_t blocks = std::max<size_t>(1, std::min(max_blocks, supported));
  Sample per_block;
  for (size_t b = 0; b < blocks; ++b) {
    Sample block;
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      block.Add(values_[i]);
    }
    if (const auto p = block.Percentile(q)) per_block.Add(*p);
  }
  return per_block.RepeatMedian();
}

std::optional<double> Sample::RepeatMedian() const {
  const size_t n = values_.size();
  if (n == 0) return std::nullopt;
  const std::vector<double>& v = Sorted();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sample::Max() const {
  if (values_.empty()) return 0.0;
  return Sorted().back();
}

double Sample::Sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

RegistryTotals ReadRegistry(const ppq::obs::Registry& registry) {
  RegistryTotals totals;
  for (const auto& h : registry.Snapshot().histograms) {
    HistogramTotals& t = totals[h.name];
    t.count += h.snapshot.count;
    t.sum += h.snapshot.sum;
    t.max = std::max(t.max, h.snapshot.max);
  }
  return totals;
}

RegistryTotals DiffRegistry(const RegistryTotals& before,
                            const RegistryTotals& after) {
  RegistryTotals diff;
  for (const auto& [name, a] : after) {
    const HistogramTotals b = Lookup(before, name);
    HistogramTotals& d = diff[name];
    d.count = a.count - b.count;
    d.sum = a.sum - b.sum;
    d.max = a.max > b.max ? a.max : 0;
  }
  return diff;
}

HistogramTotals Lookup(const RegistryTotals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? HistogramTotals{} : it->second;
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int CurrentThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

std::optional<double> TaskCpuSeconds(int tid) {
  const std::string task = "/proc/self/task/" + std::to_string(tid);
  if (std::FILE* f = std::fopen((task + "/schedstat").c_str(), "r")) {
    unsigned long long ns = 0;
    const int read = std::fscanf(f, "%llu", &ns);
    std::fclose(f);
    if (read == 1) return 1e-9 * static_cast<double>(ns);
  }
  std::FILE* f = std::fopen((task + "/stat").c_str(), "r");
  if (f == nullptr) return std::nullopt;
  char line[1024];
  const bool got = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th of the line.
  const char* rest = got ? std::strrchr(line, ')') : nullptr;
  unsigned long long utime = 0, stime = 0;
  if (rest == nullptr ||
      std::sscanf(rest + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return std::nullopt;
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

uint64_t ProcessWriteBytes() {
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return 0;
  char line[128];
  unsigned long long wchar = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "wchar: %llu", &wchar) == 1) break;
  }
  std::fclose(f);
  return wchar;
}

void Fnv1a::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

}  // namespace perfbench
