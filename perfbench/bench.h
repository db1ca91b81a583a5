// Shared declarations of the host-cost benchmark (see README.md).
//
// A run repeats *passes* of one workload until `--seconds` of timed host
// wall have been measured. A pass is: set-up (input generation, cluster /
// plugin / service construction), the timed submission phase, then checks
// that run outside the timer (serial references, seed determinism).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/object_store.h"
#include "support/bytes.h"
#include "support/status.h"

namespace perfbench {

class HostTrace;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline constexpr const char* kSuiteDense = "suite-dense";
inline constexpr const char* kSuiteSparse = "suite-sparse";
inline constexpr const char* kServiceStream = "service-stream";

/// Problem dimension of the suite workloads (stands for the paper's 16384).
inline constexpr int64_t kSuiteN = 448;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its host spans
};

/// What one pass produced.
struct PassResult {
  double setup_s = 0;  ///< host seconds before the first submission
  double timed_s = 0;  ///< host seconds of the submission phase
  int attempted = 0;   ///< offloads (suites) or requests (stream)
  int failed = 0;      ///< errors, rejections, host fallbacks, mismatches
  int mismatched = 0;  ///< outputs that differ from the serial reference
  std::string first_failure;

  // Simulated outcome: deterministic for a seed.
  double virtual_s = 0;          ///< suites: sum of offloads; stream: makespan
  std::vector<double> latencies; ///< per offload / request, virtual seconds
  double cost_usd = 0;
  uint64_t sim_events = 0;
  uint64_t spark_tasks = 0;
  uint64_t wire_bytes = 0;       ///< host<->cloud bytes after compression

  // Substrate counters read after the pass.
  ompcloud::storage::StoreStats store;
  uint64_t net_bytes = 0;
  uint64_t trace_spans = 0;
  uint64_t dropped_spans = 0;
  double kernel_flops = 0;  ///< flops the pass's kernels computed

  // End-of-pass trace-layer timings (traced passes only).
  double query_build_ms = 0;
  double analyze_s = 0;
};

/// Digest of each suite benchmark's outputs on the first pass, taken after
/// they matched the serial reference. Later passes of the same seed must
/// reproduce them bit for bit, which checks them without re-running the
/// (slow) references.
using ReferenceDigests = std::map<std::string, uint64_t>;

/// Runs one pass of `options.workload`. `trace`, when non-null, observes the
/// pass from outside: it attaches as a tool and wraps the kernels.
ompcloud::Result<PassResult> run_pass(const RunOptions& options,
                                      HostTrace* trace,
                                      ReferenceDigests& digests);

/// Layer probes of the traced run, measured outside any pass.
struct LayerProbes {
  double encode_mb_s = 0;  ///< plugin codec over the workload's own buffers
  double decode_mb_s = 0;
  std::vector<std::pair<std::string, double>> kernel_gflops;  ///< per benchmark
};

ompcloud::Result<LayerProbes> run_probes(const RunOptions& options,
                                         HostTrace& trace);

/// Codec throughput over `buffers` (MB/s, 1 MB = 1e6 bytes), repeated until
/// at least `min_seconds` of encoding has been measured.
struct CodecRates {
  double encode_mb_s = 0;
  double decode_mb_s = 0;
};
ompcloud::Result<CodecRates> time_codec(
    const std::vector<ompcloud::ByteView>& buffers, const std::string& codec,
    uint64_t min_compress_size, double min_seconds, HostTrace& trace);

/// Kernel-body GFLOP/s of each paper benchmark at n = kSuiteN, run on the
/// sequential host device with the kernels wrapped by `trace`.
ompcloud::Result<std::vector<std::pair<std::string, double>>> time_kernels(
    bool sparse, uint64_t seed, HostTrace& trace);

}  // namespace perfbench
