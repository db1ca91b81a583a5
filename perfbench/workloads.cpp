// The three workloads: one pass each, plus the traced run's layer probes.
//
//   suite-dense / suite-sparse  closed loop, one offload at a time: the
//       paper's 8 benchmarks at n = 448 on 16 simulated c3.8xlarge workers
//       at 256 dedicated cores, default plugin options.
//   service-stream  open loop in virtual time: 1000 small y = W.x requests
//       (64 x 256) from 4 tenants through Service/Session with batching on.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.h"
#include "host_trace.h"
#include "kernels/benchmark.h"
#include "omp/target_region.h"
#include "omptarget/cloud_plugin.h"
#include "omptarget/service.h"
#include "support/random.h"
#include "support/strings.h"
#include "trace/analysis.h"
#include "trace/query.h"

namespace perfbench {

using namespace ompcloud;

namespace {

// --- Stream shape -----------------------------------------------------------

constexpr int kRequests = 1000;
constexpr int64_t kRows = 64;  ///< outputs per request
constexpr int64_t kK = 256;    ///< reduction depth (weights length)
constexpr double kArrivalsPerSecond = 50.0;
const char* const kTenants[] = {"tenant-a", "tenant-b", "tenant-c", "tenant-d"};
constexpr const char* kInferKernel = "perfbench.infer";

Status InferKernel(const jni::KernelArgs& args) {
  auto x = args.input<float>(0);
  auto w = args.input<float>(1);
  auto y = args.output<float>(0);
  for (int64_t i = args.begin; i < args.end; ++i) {
    float acc = 0.0f;
    for (int64_t k = 0; k < kK; ++k) acc += w[k] * x[i * kK + k];
    y[i] = acc;
  }
  return Status::ok();
}

struct Request {
  int tenant = 0;
  double arrival = 0;  ///< due time, virtual seconds
  std::vector<float> x;
  std::vector<float> own_weights;  ///< private copy (non-sharing tenants)
  const float* weights = nullptr;  ///< shared buffer or own_weights
  std::vector<float> y;
  // Outcome.
  bool completed = false;
  bool fell_back = false;
  std::string error;
  double done = 0;
  uint64_t wire_bytes = 0;
};

/// Everything the stream derives from the seed: Poisson arrivals, tenant
/// of each request, which two tenants share one weight buffer, the weights
/// and every request's input.
struct StreamInputs {
  std::vector<float> shared_weights;
  std::vector<Request> requests;
};

void shuffle(int (&values)[4], Xoshiro256& rng) {
  for (int i = 3; i > 0; --i) {
    std::swap(values[i], values[rng.next_below(static_cast<uint64_t>(i) + 1)]);
  }
}

StreamInputs make_stream_inputs(uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5743a11ull);
  StreamInputs inputs;
  int order[] = {0, 1, 2, 3};
  shuffle(order, rng);
  bool shares[4] = {};
  shares[order[0]] = shares[order[1]] = true;

  inputs.shared_weights.resize(static_cast<size_t>(kK));
  for (float& w : inputs.shared_weights) {
    w = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  inputs.requests.resize(kRequests);
  double clock = 0;
  int block[] = {0, 1, 2, 3};
  for (size_t r = 0; r < inputs.requests.size(); ++r) {
    Request& request = inputs.requests[r];
    clock += rng.exponential(1.0 / kArrivalsPerSecond);
    request.arrival = clock;
    // Each run of 4 arrivals holds every tenant once, in seeded order, so
    // every seed sends exactly half of the stream with shared weights.
    if (r % 4 == 0) shuffle(block, rng);
    request.tenant = block[r % 4];
    // Periodic feature rows: compressible, like the inference inputs the
    // service layer was built for (the codec is not this workload's cost).
    const uint64_t base = rng.next_below(23);
    const uint64_t stride = 1 + rng.next_below(7);
    request.x.resize(static_cast<size_t>(kRows * kK));
    for (size_t j = 0; j < request.x.size(); ++j) {
      request.x[j] =
          static_cast<float>((j * stride + base) % 23) * 0.0625f - 0.5f;
    }
    request.y.assign(static_cast<size_t>(kRows), 0.0f);
    if (shares[request.tenant]) {
      request.weights = inputs.shared_weights.data();
    } else {
      request.own_weights = inputs.shared_weights;
      request.weights = request.own_weights.data();
    }
  }
  return inputs;
}

/// Sleeps until the request is due, submits it, and records the outcome.
sim::Co<void> run_request(sim::Engine* engine,
                          omptarget::DeviceManager* devices, Session session,
                          int device_id, int index, Request* request) {
  co_await engine->sleep(request->arrival);
  omp::TargetRegion region(*devices, str_format("req[%d]", index));
  region.device(device_id);
  auto xv = region.map_to("x", request->x.data(), request->x.size());
  auto wv = region.map_to("w", request->weights, static_cast<size_t>(kK));
  auto yv = region.map_from("y", request->y.data(), request->y.size());
  region.parallel_for(kRows)
      .read_partitioned(xv, omp::rows<float>(kK))
      .read(wv)
      .write_partitioned(yv, omp::rows<float>(1))
      .cost_flops(2.0 * static_cast<double>(kK))
      .kernel(kInferKernel);
  auto lowered = region.lower();
  if (!lowered.ok()) {
    request->error = lowered.status().to_string();
    co_return;
  }
  omptarget::SubmitOptions options;
  options.device_id = device_id;
  auto result = co_await session.submit(std::move(*lowered), options);
  if (!result.ok()) {
    request->error = result.status().to_string();
    co_return;
  }
  request->completed = true;
  request->fell_back = result->fell_back_to_host;
  request->done = engine->now();
  request->wire_bytes =
      result->uploaded_wire_bytes + result->downloaded_wire_bytes;
}

/// The bench-side reference: the kernel's dot product in its own order.
bool stream_output_matches(const Request& request) {
  for (int64_t i = 0; i < kRows; ++i) {
    float acc = 0.0f;
    for (int64_t k = 0; k < kK; ++k) {
      acc += request.weights[k] * request.x[static_cast<size_t>(i * kK + k)];
    }
    const float got = request.y[static_cast<size_t>(i)];
    if (std::memcmp(&acc, &got, sizeof(float)) != 0) return false;
  }
  return true;
}

void note_failure(PassResult& result, std::string reason) {
  result.failed += 1;
  if (result.first_failure.empty()) result.first_failure = std::move(reason);
}

/// Counters every pass reads from the substrate once the engine drained;
/// with a trace, also times the end-of-pass trace-layer work.
void read_substrate(sim::Engine& engine, cloud::Cluster& cluster,
                    omptarget::DeviceManager& devices, HostTrace* trace,
                    PassResult& result) {
  trace::Tracer& tracer = devices.tracer();
  result.cost_usd = cluster.cost().accrued_usd();
  result.sim_events = engine.events_processed();
  result.spark_tasks = tracer.metrics().histogram("spark.task_seconds").count();
  result.store = cluster.store().stats();
  result.net_bytes = cluster.network().total_bytes_carried();
  result.trace_spans = tracer.spans().size();
  result.dropped_spans = tracer.dropped_spans();
  if (trace == nullptr) return;

  double start = trace->now();
  size_t indexed = 0;
  {
    trace::TraceQuery query(tracer);
    indexed = query.all().size();
  }
  double end = trace->now();
  trace->record(SpanKind::kTraceQuery, str_format("TraceQuery(%zu)", indexed),
                start, end);
  result.query_build_ms = (end - start) * 1e3;

  start = trace->now();
  trace::TraceAnalyzer analyzer(tracer);
  const size_t analyses = analyzer.analyze_all().size();
  const uint64_t submitted = analyzer.analyze_service().submitted;
  end = trace->now();
  trace->record(SpanKind::kTraceAnalyze,
                str_format("TraceAnalyzer(%zu offloads, %llu submits)",
                           analyses,
                           static_cast<unsigned long long>(submitted)),
                start, end);
  result.analyze_s = end - start;
}

/// FNV-1a digest over every map(from:) buffer of `region`.
Result<uint64_t> output_digest(const omp::TargetRegion& region) {
  OC_ASSIGN_OR_RETURN(omptarget::TargetRegion lowered, region.lower());
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const omptarget::MappedVar& var : lowered.vars) {
    if (!var.maps_from()) continue;
    digest = (digest ^ fnv1a(as_bytes_of(static_cast<const std::byte*>(
                                             var.host_ptr),
                                         var.size_bytes))) *
             0x100000001b3ull;
  }
  return digest;
}

struct PreparedBenchmark {
  std::unique_ptr<kernels::Benchmark> benchmark;
  std::unique_ptr<omp::TargetRegion> region;
};

/// Builds one benchmark's region on `device` (inputs from the seed).
Result<PreparedBenchmark> prepare_benchmark(omptarget::DeviceManager& devices,
                                            const std::string& name,
                                            int device, bool sparse,
                                            uint64_t seed) {
  PreparedBenchmark prepared;
  OC_ASSIGN_OR_RETURN(prepared.benchmark, kernels::make_benchmark(name));
  kernels::Benchmark::Options options;
  options.n = kSuiteN;
  options.sparse = sparse;
  options.seed = seed;
  prepared.benchmark->prepare(options);
  prepared.region = std::make_unique<omp::TargetRegion>(devices, name);
  prepared.region->device(device);
  OC_RETURN_IF_ERROR(prepared.benchmark->build_region(*prepared.region));
  return prepared;
}

Result<PassResult> run_suite_pass(const RunOptions& options, bool sparse,
                                  HostTrace* trace,
                                  ReferenceDigests& digests) {
  PassResult result;
  const auto setup_start = Clock::now();
  sim::Engine engine;
  cloud::ClusterSpec spec;  // c3.8xlarge, pre-provisioned
  spec.workers = 16;
  cloud::Cluster cluster(engine, spec, cloud::SimProfile::paper_scale(kSuiteN));
  spark::SparkConf conf;
  conf.with_dedicated_cores(256);
  omptarget::DeviceManager devices(engine);
  const int cloud_id = devices.register_device(
      std::make_unique<omptarget::CloudPlugin>(cluster, conf,
                                               omptarget::CloudPluginOptions{}));
  std::vector<PreparedBenchmark> suite;
  for (const std::string& name : kernels::benchmark_names()) {
    OC_ASSIGN_OR_RETURN(
        PreparedBenchmark prepared,
        prepare_benchmark(devices, name, cloud_id, sparse, options.seed));
    suite.push_back(std::move(prepared));
  }
  result.setup_s = seconds_between(setup_start, Clock::now());

  ToolAttachment attachment(devices.tracer().tools(), trace);
  if (trace != nullptr) {
    for (const std::string& name : kernels::benchmark_names()) {
      trace->wrap_kernels(name + ".");
    }
    trace->begin_root(SpanKind::kPass, options.workload);
  }
  std::vector<Result<omptarget::OffloadReport>> reports;
  const auto timed_start = Clock::now();
  for (PreparedBenchmark& prepared : suite) {
    reports.push_back(omp::offload_blocking(engine, *prepared.region));
  }
  result.timed_s = seconds_between(timed_start, Clock::now());
  if (trace != nullptr) trace->end_root();

  for (size_t i = 0; i < suite.size(); ++i) {
    kernels::Benchmark& benchmark = *suite[i].benchmark;
    const std::string name(benchmark.name());
    result.attempted += 1;
    result.kernel_flops += static_cast<double>(benchmark.total_flops());
    if (!reports[i].ok()) {
      note_failure(result, name + ": " + reports[i].status().to_string());
      continue;
    }
    const omptarget::OffloadReport& report = *reports[i];
    result.virtual_s += report.total_seconds;
    result.latencies.push_back(report.total_seconds);
    result.wire_bytes +=
        report.uploaded_wire_bytes + report.downloaded_wire_bytes;
    if (report.fell_back_to_host) {
      note_failure(result, name + ": fell back to the host");
      continue;
    }
    OC_ASSIGN_OR_RETURN(uint64_t digest, output_digest(*suite[i].region));
    auto verified = digests.find(name);
    if (verified == digests.end()) {
      benchmark.run_reference();
      if (benchmark.max_error() != 0.0) {
        result.mismatched += 1;
        note_failure(result, str_format("%s: max error %g vs serial reference",
                                        name.c_str(), benchmark.max_error()));
        continue;
      }
      digests.emplace(name, digest);
    } else if (verified->second != digest) {
      result.mismatched += 1;
      note_failure(result, name + ": outputs differ from the first pass's "
                                  "verified outputs");
    }
  }
  read_substrate(engine, cluster, devices, trace, result);
  return result;
}

Result<PassResult> run_stream_pass(const RunOptions& options,
                                   HostTrace* trace) {
  PassResult result;
  const auto setup_start = Clock::now();
  // Drops any wrapper a traced pass left on the kernel.
  jni::KernelRegistry::instance().register_kernel(kInferKernel, InferKernel);
  sim::Engine engine;
  cloud::ClusterSpec spec;
  spec.workers = 4;
  cloud::Cluster cluster(engine, spec, cloud::SimProfile{});
  omptarget::DeviceManager devices(engine);
  const int cloud_id = devices.register_device(
      std::make_unique<omptarget::CloudPlugin>(
          cluster, spark::SparkConf{}, omptarget::CloudPluginOptions{}));
  ServiceOptions service_options;
  service_options.default_device = cloud_id;
  service_options.scheduler.max_concurrent = 8;
  service_options.scheduler.batch_regions = 16;
  service_options.scheduler.batch_linger_seconds = 0.05;
  Service service(devices, service_options);

  StreamInputs inputs = make_stream_inputs(options.seed);
  for (int i = 0; i < kRequests; ++i) {
    Request& request = inputs.requests[static_cast<size_t>(i)];
    engine.spawn(run_request(&engine, &devices,
                             service.session(kTenants[request.tenant]),
                             cloud_id, i, &request));
  }
  result.setup_s = seconds_between(setup_start, Clock::now());

  ToolAttachment attachment(devices.tracer().tools(), trace);
  if (trace != nullptr) {
    trace->wrap_kernels(kInferKernel);
    trace->begin_root(SpanKind::kPass, options.workload);
  }
  const auto timed_start = Clock::now();
  engine.run();
  result.timed_s = seconds_between(timed_start, Clock::now());
  if (trace != nullptr) trace->end_root();

  for (size_t i = 0; i < inputs.requests.size(); ++i) {
    const Request& request = inputs.requests[i];
    result.attempted += 1;
    if (!request.completed) {
      note_failure(result, str_format("req[%zu]: %s", i,
                                      request.error.empty()
                                          ? "never completed"
                                          : request.error.c_str()));
      continue;
    }
    result.latencies.push_back(request.done - request.arrival);
    result.virtual_s = std::max(result.virtual_s, request.done);
    result.wire_bytes += request.wire_bytes;
    result.kernel_flops += 2.0 * static_cast<double>(kRows * kK);
    if (request.fell_back) {
      note_failure(result, str_format("req[%zu]: fell back to the host", i));
    } else if (!stream_output_matches(request)) {
      result.mismatched += 1;
      note_failure(result, str_format("req[%zu]: y differs from the serial "
                                      "reference", i));
    }
  }
  read_substrate(engine, cluster, devices, trace, result);
  return result;
}

}  // namespace

Result<PassResult> run_pass(const RunOptions& options, HostTrace* trace,
                            ReferenceDigests& digests) {
  if (options.workload == kSuiteDense) {
    return run_suite_pass(options, false, trace, digests);
  }
  if (options.workload == kSuiteSparse) {
    return run_suite_pass(options, true, trace, digests);
  }
  if (options.workload == kServiceStream) {
    return run_stream_pass(options, trace);
  }
  return invalid_argument("unknown workload " + options.workload);
}

Result<LayerProbes> run_probes(const RunOptions& options, HostTrace& trace) {
  const bool sparse = options.workload == kSuiteSparse;
  const omptarget::CloudPluginOptions plugin;

  // The codec probe reads the buffers the workload itself maps to the
  // device, so dense and sparse suites are measured in their own regimes.
  std::vector<ByteView> buffers;
  sim::Engine engine;
  omptarget::DeviceManager devices(engine);
  std::vector<PreparedBenchmark> suite;
  std::vector<omptarget::TargetRegion> lowered;
  StreamInputs stream;
  if (options.workload == kServiceStream) {
    stream = make_stream_inputs(options.seed);
    for (const Request& request : stream.requests) {
      buffers.push_back(as_bytes_of(request.x.data(), request.x.size()));
      buffers.push_back(as_bytes_of(request.weights, static_cast<size_t>(kK)));
    }
  } else {
    for (const std::string& name : kernels::benchmark_names()) {
      OC_ASSIGN_OR_RETURN(PreparedBenchmark prepared,
                          prepare_benchmark(devices, name, 0, sparse,
                                            options.seed));
      OC_ASSIGN_OR_RETURN(omptarget::TargetRegion region,
                          prepared.region->lower());
      lowered.push_back(std::move(region));
      suite.push_back(std::move(prepared));
    }
    for (const omptarget::TargetRegion& region : lowered) {
      for (const omptarget::MappedVar& var : region.vars) {
        if (!var.maps_to()) continue;
        buffers.push_back(as_bytes_of(static_cast<const std::byte*>(var.host_ptr),
                                      var.size_bytes));
      }
    }
  }
  LayerProbes probes;
  OC_ASSIGN_OR_RETURN(CodecRates rates,
                      time_codec(buffers, plugin.codec,
                                 plugin.min_compress_size, 0.5, trace));
  probes.encode_mb_s = rates.encode_mb_s;
  probes.decode_mb_s = rates.decode_mb_s;
  OC_ASSIGN_OR_RETURN(probes.kernel_gflops,
                      time_kernels(sparse, options.seed, trace));
  return probes;
}

}  // namespace perfbench
