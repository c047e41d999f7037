/// \file main.cc
/// The benchmark program:
///
///   ppq_perfbench --workload <serve-sparse|serve-sharded|ingest-live>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--work-dir <dir>] [--commit <id>] [--trace-out <file>]
///
/// --trace 0 runs the workload once, untraced, and ends with the
/// end-to-end metrics. --trace 1 runs it twice, each for the full
/// seconds, untraced and then with span recording on (a half-length pass
/// has too few appends for ingest-live's append p99). It ends with the
/// per-layer metrics of the traced run, each layer's self time, and the
/// tracing overhead (traced end-to-end numbers minus untraced ones).
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// The exit code is 1 when any exact-mode answer was wrong, and else 4
/// when the query generator fell behind its schedule (the run is invalid
/// and its numbers are not a sample of the program at the intended load).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <sys/prctl.h>

#include "cpp/trace.h"
#include "cpp/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ppq_perfbench: %s\nusage: ppq_perfbench --workload "
               "<serve-sparse|serve-sharded|ingest-live> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--commit <id>] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

Report RunOnce(const Args& args, double seconds, Tracer& tracer) {
  RunConfig config;
  config.seed = args.seed;
  config.seconds = seconds;
  config.tracer = &tracer;
  config.work_dir = args.work_dir;
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "serve-sparse") return RunServeSparse(config);
  if (args.workload == "serve-sharded") return RunServeSharded(config);
  if (args.workload == "ingest-live") return RunIngestLive(config);
  Usage(("unknown workload " + args.workload).c_str());
}

void PrintMetrics(const char* kind,
                  const std::vector<std::pair<std::string, Metric>>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("[metric] kind=%s name=%s value=%.9g unit=%s samples=%zu\n",
                kind, name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
}

void PrintJson(const Report& report,
               const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{\"correct\": ";
  out += (report.failed == 0 && !report.exact_mismatch) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (first ? "" : ", ");
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  // The open-loop generator sleeps in short slices; the default 50 us
  // timer slack would blur its schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::printf("[stamp] workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "build_type=%s compiler=\"%s\" commit=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, Nproc(), PERFBENCH_BUILD_TYPE,
              __VERSION__, args.commit.c_str());

  Report final_report;
  std::vector<std::pair<std::string, Metric>> output;
  if (args.trace == 0) {
    Tracer off(false);
    final_report = RunOnce(args, args.seconds, off);
    PrintMetrics("end_to_end", final_report.e2e);
    PrintMetrics("ungated", final_report.ungated);
    PrintMetrics("per_layer", final_report.layer);
    output = final_report.e2e;
  } else {
    Tracer off(false);
    const Report untraced = RunOnce(args, args.seconds, off);
    Tracer on(true);
    final_report = RunOnce(args, args.seconds, on);
    output = final_report.layer;
    // Self time per layer (span duration minus its children's cover).
    std::map<std::string, double> self_ms = on.SelfMillisByLayer();
    for (const char* layer : kSpanLayers) self_ms.emplace(layer, 0.0);
    for (const auto& [layer, ms] : self_ms) {
      output.emplace_back("trace.self_ms." + layer, Metric{ms, "ms", on.size()});
    }
    output.emplace_back("trace.spans",
                        Metric{static_cast<double>(on.size()), "count", on.size()});
    // Tracing overhead: traced minus untraced. The query percentiles are
    // taken over each pass's whole sample (no blocks), which full-length
    // passes always support.
    const auto delta = [&](const char* name, std::optional<double> traced,
                           std::optional<double> base, const char* unit) {
      if (traced && base) {
        output.emplace_back(std::string("trace.overhead.") + name,
                            Metric{*traced - *base, unit, 2});
      } else {
        final_report.missing.push_back(std::string("trace.overhead.") + name);
      }
    };
    const Metric* setup_traced = final_report.Find("setup_s");
    const Metric* setup_base = untraced.Find("setup_s");
    delta("setup_s", setup_traced ? std::optional<double>(setup_traced->value) : std::nullopt,
          setup_base ? std::optional<double>(setup_base->value) : std::nullopt, "s");
    delta("query_p50_ms", final_report.query_latency_ms.Percentile(0.50),
          untraced.query_latency_ms.Percentile(0.50), "ms");
    delta("query_p99_ms", final_report.query_latency_ms.Percentile(0.99),
          untraced.query_latency_ms.Percentile(0.99), "ms");
    final_report.attempted += untraced.attempted;
    final_report.failed += untraced.failed;
    final_report.exact_mismatch |= untraced.exact_mismatch;
    final_report.load_invalid |= untraced.load_invalid;
    for (const std::string& m : untraced.missing) final_report.missing.push_back("untraced:" + m);
    PrintMetrics("end_to_end_untraced", untraced.e2e);
    PrintMetrics("ungated_untraced", untraced.ungated);
    PrintMetrics("end_to_end_traced", final_report.e2e);
    PrintMetrics("ungated_traced", final_report.ungated);
    PrintMetrics("per_layer", output);
    if (!args.trace_out.empty()) {
      if (!on.WriteChromeTrace(args.trace_out)) {
        std::fprintf(stderr, "ppq_perfbench: could not write %s\n", args.trace_out.c_str());
      } else {
        std::printf("[trace] spans=%zu file=%s\n", on.size(), args.trace_out.c_str());
      }
    }
  }
  for (const std::string& m : final_report.missing) {
    std::printf("[missing] metric=%s reason=fewer than %zu samples beyond the "
                "percentile, or no value\n",
                m.c_str(), kMinSamplesBeyond);
  }
  const double error_rate =
      final_report.attempted == 0
          ? 0.0
          : static_cast<double>(final_report.failed) / final_report.attempted;
  std::printf("[result] workload=%s attempted=%zu failed=%zu error_rate=%.6g "
              "exact_mismatch=%s load_valid=%s\n",
              args.workload.c_str(), final_report.attempted, final_report.failed,
              error_rate, final_report.exact_mismatch ? "yes" : "no",
              final_report.load_invalid ? "no" : "yes");
  if (final_report.exact_mismatch) {
    std::fprintf(stderr, "ppq_perfbench: an exact-mode answer was wrong\n");
  }
  PrintJson(final_report, output);
  std::fflush(stdout);
  if (final_report.exact_mismatch) return 1;
  return final_report.load_invalid ? 4 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppq_perfbench: %s\n", e.what());
    return 3;
  }
}
