#include "cpp/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t parent, uint64_t request, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = Reserve();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string LayerOf(const char* name) {
  const char* dot = std::strrchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

std::map<std::string, double> Tracer::SelfMillisByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans_) {
    int64_t self = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      covered.clear();
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      int64_t union_ns = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : covered) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) union_ns += hi - from;
        reach = std::max(reach, hi);
      }
      self -= union_ns;
    }
    self_ms[LayerOf(s.name)] += static_cast<double>(self) * 1e-6;
  }
  return self_ms;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
