// perfbench: host cost and simulated outcome of the offloading runtime.
//
//   perfbench --workload <suite-dense|suite-sparse|service-stream>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Repeats passes of the workload until `--seconds` of timed host wall have
// been measured (at least two passes), checks every pass's outputs and that
// every pass of the seed simulated the same answer, and prints one JSON
// object as the last line of stdout. `--trace 0` reports the end-to-end
// metrics. `--trace 1` alternates untraced and traced passes, runs the layer
// probes, prints a per-layer self-time summary, writes the host spans to
// `<trace-dir>/<workload>-seed<n>.json`, and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "host_trace.h"
#include "support/strings.h"

namespace perfbench {
namespace {

using ompcloud::str_format;

/// Stop starting passes after this much wall, whatever `--seconds` says, so
/// a run always ends well inside its time limit.
constexpr double kMaxRunSeconds = 120;

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in emission order.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    entries_.push_back(str_format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                  name.c_str(), value, unit.c_str()));
    lines_.push_back(str_format("  %-34s %16.6g %s", name.c_str(), value,
                                unit.c_str()));
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += (i ? ", " : "") + entries_[i];
    }
    return out + "}";
  }
  void print() const {
    for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<std::string> entries_;
  std::vector<std::string> lines_;
};

struct TracedPass {
  PassResult result;
  LayerCounts counts;
  SelfTimes self;
};

double offloads_per_s(const PassResult& pass) {
  return static_cast<double>(pass.attempted - pass.failed) / pass.timed_s;
}

/// Every pass of one seed must simulate exactly the same answer.
bool same_answer(const PassResult& a, const PassResult& b) {
  return a.virtual_s == b.virtual_s && a.latencies == b.latencies &&
         a.cost_usd == b.cost_usd && a.spark_tasks == b.spark_tasks &&
         a.sim_events == b.sim_events && a.wire_bytes == b.wire_bytes;
}

void add_end_to_end(MetricSet& metrics, const std::vector<PassResult>& passes,
                    double rss_mb) {
  std::vector<double> rates;
  std::vector<double> setups;
  for (const PassResult& pass : passes) {
    rates.push_back(offloads_per_s(pass));
    setups.push_back(pass.setup_s);
  }
  const PassResult& first = passes.front();
  metrics.add("offloads_per_s", median(rates), "1/s");
  metrics.add("setup_s", median(setups), "s");
  metrics.add("peak_rss_mb", rss_mb, "MB");
  metrics.add("virtual_s", first.virtual_s, "s");
  metrics.add("virtual_p50_s", quantile(first.latencies, 0.50), "s");
  metrics.add("virtual_p99_s", quantile(first.latencies, 0.99), "s");
  metrics.add("cost_usd", first.cost_usd, "usd");
}

/// Per-layer metrics of the traced run (`bad` collects failed checks).
void add_per_layer(MetricSet& metrics, const std::vector<PassResult>& untraced,
                   const std::vector<TracedPass>& traced,
                   const LayerProbes& probes, std::vector<std::string>& bad) {
  auto med = [&](auto fn) {
    std::vector<double> values;
    for (const TracedPass& pass : traced) values.push_back(fn(pass));
    return median(values);
  };
  const TracedPass& first = traced.front();
  const LayerCounts& counts = first.counts;
  const double attempted = first.result.attempted;

  // kernels / jnibridge
  metrics.add("kernels.calls", static_cast<double>(counts.kernel_calls), "count");
  metrics.add("kernels.host_s", med([](const TracedPass& p) {
                return p.counts.kernel_s;
              }), "s");
  metrics.add("kernels.share", med([](const TracedPass& p) {
                return p.counts.kernel_s / p.result.timed_s;
              }), "ratio");
  metrics.add("kernels.gflops", med([](const TracedPass& p) {
                return p.result.kernel_flops / p.counts.kernel_s / 1e9;
              }), "GFLOP/s");
  for (const auto& [name, gflops] : probes.kernel_gflops) {
    metrics.add("kernels.gflops." + name, gflops, "GFLOP/s");
  }

  // compress
  metrics.add("compress.encode_mb_s", probes.encode_mb_s, "MB/s");
  metrics.add("compress.decode_mb_s", probes.decode_mb_s, "MB/s");
  metrics.add("compress.plain_mb", static_cast<double>(counts.plain_bytes) / 1e6,
              "MB");
  metrics.add("compress.wire_mb", static_cast<double>(counts.wire_bytes) / 1e6,
              "MB");
  metrics.add("compress.ratio",
              counts.wire_bytes == 0
                  ? 0.0
                  : static_cast<double>(counts.plain_bytes) /
                        static_cast<double>(counts.wire_bytes),
              "ratio");

  // omptarget: plugin and device data path
  metrics.add("omptarget.offloads", static_cast<double>(counts.offloads), "count");
  metrics.add("omptarget.data_ops", static_cast<double>(counts.data_ops), "count");
  metrics.add("omptarget.cache_hits", static_cast<double>(counts.cache_hits),
              "count");
  metrics.add("omptarget.fallbacks", static_cast<double>(counts.fallbacks),
              "count");
  metrics.add("runtime.host_s", med([](const TracedPass& p) {
                return p.result.timed_s - p.counts.kernel_s;
              }), "s");
  metrics.add("runtime.us_per_offload", med([](const TracedPass& p) {
                return (p.result.timed_s - p.counts.kernel_s) /
                       p.result.attempted * 1e6;
              }), "us");
  metrics.add("runtime.offload_self_s",
              med([](const TracedPass& p) { return p.self.offload_self; }), "s");
  metrics.add("runtime.outside_s",
              med([](const TracedPass& p) { return p.self.outside; }), "s");

  // scheduler, service and batch
  metrics.add("sched.admitted", static_cast<double>(counts.admitted), "count");
  metrics.add("sched.rejected", static_cast<double>(counts.rejected), "count");
  metrics.add("sched.wait_p50_s", quantile(counts.waits, 0.50), "s");
  metrics.add("sched.wait_p99_s", quantile(counts.waits, 0.99), "s");
  metrics.add("batch.jobs", static_cast<double>(counts.batch_ids.size()), "count");
  metrics.add("batch.coalesced_share",
              static_cast<double>(counts.coalesced) / attempted, "ratio");

  // spark
  metrics.add("spark.tasks", static_cast<double>(counts.tasks), "count");
  metrics.add("spark.task_retries",
              static_cast<double>(counts.attempts - counts.tasks), "count");

  // sim
  std::vector<double> untraced_walls;
  for (const PassResult& pass : untraced) untraced_walls.push_back(pass.timed_s);
  const double events = static_cast<double>(first.result.sim_events);
  metrics.add("sim.events", events, "count");
  metrics.add("sim.events_per_offload", events / attempted, "count");
  metrics.add("sim.events_per_host_s", events / median(untraced_walls), "1/s");

  // storage / net
  metrics.add("storage.puts", static_cast<double>(first.result.store.puts), "count");
  metrics.add("storage.gets", static_cast<double>(first.result.store.gets), "count");
  metrics.add("storage.bytes_in", static_cast<double>(first.result.store.bytes_in),
              "bytes");
  metrics.add("net.bytes_carried", static_cast<double>(first.result.net_bytes),
              "bytes");

  // trace
  metrics.add("trace.spans", static_cast<double>(first.result.trace_spans), "count");
  metrics.add("trace.dropped_spans",
              static_cast<double>(first.result.dropped_spans), "count");
  metrics.add("trace.query_build_ms", med([](const TracedPass& p) {
                return p.result.query_build_ms;
              }), "ms");
  metrics.add("trace.analyze_s",
              med([](const TracedPass& p) { return p.result.analyze_s; }), "s");

  // The bench-side tracer itself.
  std::vector<double> untraced_rates;
  for (const PassResult& pass : untraced) untraced_rates.push_back(offloads_per_s(pass));
  const double traced_rate =
      med([](const TracedPass& p) { return offloads_per_s(p.result); });
  metrics.add("tracing.overhead_share", 1.0 - traced_rate / median(untraced_rates),
              "ratio");
  const double accounted = med([](const TracedPass& p) {
    return (p.self.kernels + p.self.offload_self + p.self.outside) /
           p.result.timed_s;
  });
  metrics.add("tracing.accounted_share", accounted, "ratio");

  for (const TracedPass& pass : traced) {
    if (!pass.self.well_formed) {
      bad.push_back("kernel spans overlap or leave their pass");
    }
    if (pass.self.kernels_in_offload < 0.99) {
      bad.push_back(str_format("only %.1f%% of kernel time fell inside "
                               "offload spans",
                               100 * pass.self.kernels_in_offload));
    }
  }
  if (std::fabs(accounted - 1.0) > 0.02) {
    bad.push_back(str_format("layer self times cover %.1f%% of the timed wall",
                             100 * accounted));
  }
}

/// The traced run's human-readable layer summary.
void print_self_times(const std::vector<PassResult>& untraced,
                      const std::vector<TracedPass>& traced) {
  std::vector<double> wall, kernels, offload_self, outside, query, analyze;
  std::vector<double> traced_rates, untraced_rates;
  for (const TracedPass& pass : traced) {
    wall.push_back(pass.result.timed_s);
    kernels.push_back(pass.self.kernels);
    offload_self.push_back(pass.self.offload_self);
    outside.push_back(pass.self.outside);
    query.push_back(pass.result.query_build_ms / 1e3);
    analyze.push_back(pass.result.analyze_s);
    traced_rates.push_back(offloads_per_s(pass.result));
  }
  for (const PassResult& pass : untraced) {
    untraced_rates.push_back(offloads_per_s(pass));
  }
  const double total = median(wall);
  auto row = [&](const char* layer, double seconds, const char* what) {
    std::printf("  %-22s %10.4f s %6.1f%%  %s\n", layer, seconds,
                100 * seconds / total, what);
  };
  std::printf("layer self time (median of %zu traced passes, %% of timed wall)\n",
              traced.size());
  row("kernels", median(kernels), "wrapped jni::KernelRegistry bodies");
  row("runtime.offload_self", median(offload_self),
      "inside offload spans: plugin, codec, spark, storage, net");
  row("runtime.outside", median(outside),
      "no offload open: scheduler, batching, DES");
  row("= timed wall", total, "");
  row("trace.query", median(query), "one TraceQuery at pass end (untimed)");
  row("trace.analyze", median(analyze), "TraceAnalyzer at pass end (untimed)");
  std::printf("  tracing overhead: %.1f offloads/s traced vs %.1f untraced\n",
              median(traced_rates), median(untraced_rates));
}

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<suite-dense|suite-sparse|service-stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               error);
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  options.trace_dir = ".bench_build/perfbench-traces";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      auto seed = ompcloud::parse_int(value);
      if (!seed || *seed < 0) return usage("--seed must be a whole number");
      options.seed = static_cast<uint64_t>(*seed);
    } else if (flag == "--seconds") {
      auto seconds = ompcloud::parse_double(value);
      if (!seconds || *seconds <= 0) return usage("--seconds must be > 0");
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != kSuiteDense && options.workload != kSuiteSparse &&
      options.workload != kServiceStream) {
    return usage("unknown --workload");
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const auto run_start = Clock::now();
  HostTrace host_trace;
  ReferenceDigests digests;
  std::vector<PassResult> untraced;
  std::vector<TracedPass> traced;
  std::vector<std::string> bad;
  int attempted = 0;
  int failed = 0;
  double timed_total = 0;
  for (int pass = 0;; ++pass) {
    const bool traced_pass = options.trace && pass % 2 == 1;
    auto result =
        run_pass(options, traced_pass ? &host_trace : nullptr, digests);
    if (!result.ok()) {
      std::fprintf(stderr, "pass %d: %s\n", pass,
                   result.status().to_string().c_str());
      return 1;
    }
    std::printf("pass %2d %-8s setup %.4f s  timed %.4f s  %8.2f offloads/s"
                "  virtual %.6f s  failed %d/%d\n",
                pass, traced_pass ? "traced" : "untraced", result->setup_s,
                result->timed_s, offloads_per_s(*result), result->virtual_s,
                result->failed, result->attempted);
    if (!result->first_failure.empty()) {
      std::fprintf(stderr, "pass %d: %d failed, first: %s\n", pass,
                   result->failed, result->first_failure.c_str());
    }
    if (result->mismatched > 0) {
      bad.push_back(str_format("pass %d: %d outputs differ from the serial "
                               "reference", pass, result->mismatched));
    }
    const PassResult& reference = untraced.empty() ? *result : untraced.front();
    if (!same_answer(reference, *result)) {
      bad.push_back(str_format("pass %d simulated a different answer than pass "
                               "0 for the same seed", pass));
    }
    attempted += result->attempted;
    failed += result->failed;
    timed_total += result->timed_s;
    if (traced_pass) {
      traced.push_back({*result, host_trace.counts(), host_trace.self_times()});
    } else {
      untraced.push_back(*result);
    }
    const bool enough = pass >= 1 && timed_total >= options.seconds;
    const bool out_of_time =
        pass >= 1 && seconds_between(run_start, Clock::now()) > kMaxRunSeconds;
    if (enough || out_of_time) break;
  }
  const double rss_mb = peak_rss_mb();

  MetricSet metrics;
  if (options.trace) {
    auto probes = run_probes(options, host_trace);
    if (!probes.ok()) {
      std::fprintf(stderr, "probes: %s\n", probes.status().to_string().c_str());
      return 1;
    }
    add_per_layer(metrics, untraced, traced, *probes, bad);
    print_self_times(untraced, traced);
    std::error_code error;
    std::filesystem::create_directories(options.trace_dir, error);
    const std::string path = str_format(
        "%s/%s-seed%llu.json", options.trace_dir.c_str(),
        options.workload.c_str(), static_cast<unsigned long long>(options.seed));
    ompcloud::Status written = host_trace.write_json(
        path, str_format("\"workload\": \"%s\", \"seed\": %llu",
                         options.workload.c_str(),
                         static_cast<unsigned long long>(options.seed)));
    if (!written.is_ok()) {
      std::fprintf(stderr, "%s\n", written.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu host spans to %s\n", host_trace.span_count(),
                path.c_str());
  } else {
    add_end_to_end(metrics, untraced, rss_mb);
  }
  std::printf("metrics (%zu passes, %.2f s timed, error_rate %.6g = %d/%d)\n",
              untraced.size() + traced.size(), timed_total,
              static_cast<double>(failed) / attempted, failed, attempted);
  metrics.print();
  for (const std::string& problem : bad) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  const bool correct = bad.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
