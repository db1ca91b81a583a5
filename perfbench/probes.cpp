// Layer probes of the traced run. They call the layers' public functions
// directly, outside any pass, so each number isolates one layer.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "compress/payload.h"
#include "host_trace.h"
#include "kernels/benchmark.h"
#include "omp/target_region.h"
#include "support/strings.h"

namespace perfbench {

using namespace ompcloud;

Result<CodecRates> time_codec(const std::vector<ByteView>& buffers,
                              const std::string& codec,
                              uint64_t min_compress_size, double min_seconds,
                              HostTrace& trace) {
  trace.begin_root(SpanKind::kProbe, "probe.codec " + codec);
  double plain = 0;
  double encode_s = 0;
  double decode_s = 0;
  // At least two rounds, so the first round's page faults are amortized.
  for (int round = 0; round < 2 || encode_s < min_seconds; ++round) {
    for (ByteView buffer : buffers) {
      const double start = trace.now();
      OC_ASSIGN_OR_RETURN(ByteBuffer frame,
                          compress::encode_payload(codec, buffer,
                                                   min_compress_size));
      const double encoded = trace.now();
      OC_ASSIGN_OR_RETURN(ByteBuffer restored,
                          compress::decode_payload(frame.view()));
      const double decoded = trace.now();
      if (restored.size() != buffer.size() ||
          std::memcmp(restored.data(), buffer.data(), buffer.size()) != 0) {
        return internal_error("codec probe: " + codec +
                              " round trip changed the bytes");
      }
      plain += static_cast<double>(buffer.size());
      encode_s += encoded - start;
      decode_s += decoded - encoded;
    }
  }
  trace.end_root();
  CodecRates rates;
  rates.encode_mb_s = plain / 1e6 / encode_s;
  rates.decode_mb_s = plain / 1e6 / decode_s;
  return rates;
}

Result<std::vector<std::pair<std::string, double>>> time_kernels(
    bool sparse, uint64_t seed, HostTrace& trace) {
  std::vector<std::pair<std::string, double>> gflops;
  for (const std::string& name : kernels::benchmark_names()) {
    sim::Engine engine;
    omptarget::DeviceManager devices(engine);  // device 0: sequential host
    OC_ASSIGN_OR_RETURN(auto benchmark, kernels::make_benchmark(name));
    kernels::Benchmark::Options options;
    options.n = kSuiteN;
    options.sparse = sparse;
    options.seed = seed;
    benchmark->prepare(options);
    omp::TargetRegion region(devices, name);
    region.device(omptarget::DeviceManager::host_device_id());
    OC_RETURN_IF_ERROR(benchmark->build_region(region));
    trace.wrap_kernels(name + ".");

    trace.begin_root(SpanKind::kProbe, "probe.kernels " + name);
    auto report = omp::offload_blocking(engine, region);
    trace.end_root();
    if (!report.ok()) return report.status();
    const double seconds = trace.counts().kernel_s;
    if (seconds <= 0) return internal_error("kernel probe: no kernel ran");
    gflops.emplace_back(
        name, static_cast<double>(benchmark->total_flops()) / seconds / 1e9);
  }
  return gflops;
}

}  // namespace perfbench
