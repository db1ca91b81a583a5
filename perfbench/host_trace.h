// Host-time tracer of the benchmark's traced run.
//
// Observes the runtime from outside, through its public surfaces only: a
// `tools::Tool` attached to `devices.tracer().tools()` stamps the steady
// clock at every callback, and every kernel in `jni::KernelRegistry` the
// pass uses is replaced by a wrapper that times the call. Spans live in
// memory and are written out as JSON when the run ends.
//
// Span kinds: `pass` (root: the timed submission phase of one pass, or a
// probe), `offload` (on_target_begin .. on_target_end), `kernel` (one
// wrapped loop-body call), instants for data ops and scheduler events, and
// `trace.query` / `trace.analyze` for the end-of-pass trace-layer work.
// A kernel's parent is the open offload whose job most recently submitted
// a Spark task (the runtime's callbacks carry no task-to-call link, so
// attribution is by job, not by task).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "support/status.h"
#include "tools/tools.h"

namespace perfbench {

enum class SpanKind {
  kPass,
  kOffload,
  kKernel,
  kDataOp,
  kScheduler,
  kTraceQuery,
  kTraceAnalyze,
  kProbe,
};

struct HostSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  SpanKind kind = SpanKind::kPass;
  std::string name;
  double start = 0;  ///< host seconds since the tracer was created
  double end = 0;
  uint64_t offload = 0;  ///< runtime target id (0 = none)
  int64_t request = -1;  ///< stream request index (-1 = none)
};

/// Per-layer counts of the current root, reset by `begin_root`.
struct LayerCounts {
  uint64_t kernel_calls = 0;
  double kernel_s = 0;
  uint64_t offloads = 0;
  uint64_t data_ops = 0;
  uint64_t cache_hits = 0;
  uint64_t fallbacks = 0;
  uint64_t plain_bytes = 0;  ///< transfer ops: bytes that crossed the codec
  uint64_t wire_bytes = 0;   ///< transfer ops: bytes that crossed the wire
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  std::vector<double> waits;  ///< queue wait of each dispatch, virtual s
  std::set<uint64_t> batch_ids;
  uint64_t coalesced = 0;  ///< completions served inside a batch
  uint64_t tasks = 0;
  uint64_t attempts = 0;
};

/// Self time of each layer over one timed pass, from its spans.
struct SelfTimes {
  double wall = 0;          ///< the pass root span
  double kernels = 0;       ///< kernel spans
  double offload_self = 0;  ///< inside offload spans, minus kernels
  double outside = 0;       ///< no offload open: scheduler, DES, driver loop
  double kernels_in_offload = 0;  ///< share of kernel time inside offloads
  bool well_formed = true;  ///< kernels nest in the root and never overlap
};

class HostTrace final : public ompcloud::tools::Tool {
 public:
  HostTrace();
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  /// Host seconds since construction (the span clock).
  [[nodiscard]] double now() const;

  /// Opens a root span; later spans parent under it. Resets the counts.
  void begin_root(SpanKind kind, std::string name);
  /// Closes the root span.
  void end_root();
  /// Self times of the last closed root (meaningful for `pass` roots).
  [[nodiscard]] SelfTimes self_times() const;

  /// Records a closed span under the current root.
  void record(SpanKind kind, std::string name, double start, double end);

  /// Replaces every registered kernel whose name starts with `prefix` by a
  /// wrapper that times its calls. Already wrapped entries are left alone.
  void wrap_kernels(const std::string& prefix);

  [[nodiscard]] const LayerCounts& counts() const { return counts_; }
  [[nodiscard]] size_t span_count() const { return spans_.size(); }

  /// Writes every recorded span as JSON.
  ompcloud::Status write_json(const std::string& path,
                              const std::string& header) const;

  void on_target_begin(const ompcloud::tools::TargetInfo& info) override;
  void on_target_end(const ompcloud::tools::TargetEndInfo& info) override;
  void on_data_op(const ompcloud::tools::DataOpInfo& info) override;
  void on_kernel_submit(const ompcloud::tools::KernelInfo& info) override;
  void on_kernel_complete(const ompcloud::tools::KernelInfo& info) override;
  void on_scheduler_event(
      const ompcloud::tools::SchedulerEventInfo& info) override;

 private:
  struct KernelSite;
  struct TimedKernel;

  uint64_t add_span(SpanKind kind, std::string name, double start, double end,
                    uint64_t parent);
  void on_kernel_call(const KernelSite& site, double start, double end);

  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
  uint64_t root_ = 0;          ///< id of the open (or last) root span
  size_t root_index_ = 0;      ///< its index in spans_
  /// Open offloads: target id -> span index, plus region -> target id.
  std::map<uint64_t, size_t> open_offloads_;
  std::map<std::string, uint64_t, std::less<>> open_regions_;
  uint64_t last_job_offload_ = 0;  ///< offload of the latest task submit
  LayerCounts counts_;
};

/// Attaches a HostTrace to a tool registry for the lifetime of the guard
/// (no-op for a null trace).
class ToolAttachment {
 public:
  ToolAttachment(ompcloud::tools::ToolRegistry& registry, HostTrace* trace)
      : registry_(&registry), trace_(trace) {
    if (trace_ != nullptr) registry_->attach(trace_);
  }
  ~ToolAttachment() {
    if (trace_ != nullptr) registry_->detach(trace_);
  }
  ToolAttachment(const ToolAttachment&) = delete;
  ToolAttachment& operator=(const ToolAttachment&) = delete;

 private:
  ompcloud::tools::ToolRegistry* registry_;
  HostTrace* trace_;
};

}  // namespace perfbench
