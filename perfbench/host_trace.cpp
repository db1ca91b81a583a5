#include "host_trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "jnibridge/bridge.h"
#include "support/strings.h"

namespace perfbench {

using namespace ompcloud;

namespace {

std::string_view kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass: return "pass";
    case SpanKind::kOffload: return "offload";
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kDataOp: return "data_op";
    case SpanKind::kScheduler: return "scheduler";
    case SpanKind::kTraceQuery: return "trace.query";
    case SpanKind::kTraceAnalyze: return "trace.analyze";
    case SpanKind::kProbe: return "probe";
  }
  return "?";
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Request index encoded in a stream region name (`req[<i>]`), else -1.
int64_t request_index(std::string_view region) {
  if (!starts_with(region, "req[") || !ends_with(region, "]")) return -1;
  return parse_int(region.substr(4, region.size() - 5)).value_or(-1);
}

}  // namespace

/// The original body and its registry name.
struct HostTrace::KernelSite {
  jni::LoopBodyFn inner;
  std::string name;
};

struct HostTrace::TimedKernel {
  HostTrace* trace;
  std::shared_ptr<const KernelSite> site;

  Status operator()(const jni::KernelArgs& args) const {
    const double start = trace->now();
    Status status = site->inner(args);
    trace->on_kernel_call(*site, start, trace->now());
    return status;
  }
};

HostTrace::HostTrace() : origin_(Clock::now()) {}

double HostTrace::now() const { return seconds_between(origin_, Clock::now()); }

uint64_t HostTrace::add_span(SpanKind kind, std::string name, double start,
                             double end, uint64_t parent) {
  HostSpan span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.kind = kind;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void HostTrace::begin_root(SpanKind kind, std::string name) {
  counts_ = LayerCounts{};
  open_offloads_.clear();
  open_regions_.clear();
  last_job_offload_ = 0;
  const double start = now();
  root_ = add_span(kind, std::move(name), start, start, 0);
  root_index_ = spans_.size() - 1;
}

void HostTrace::end_root() {
  const double end = now();
  spans_[root_index_].end = end;
  // An offload still open at the end of the phase is closed with it.
  for (const auto& [target, index] : open_offloads_) spans_[index].end = end;
  open_offloads_.clear();
  open_regions_.clear();
}

void HostTrace::record(SpanKind kind, std::string name, double start,
                       double end) {
  add_span(kind, std::move(name), start, end, root_);
}

SelfTimes HostTrace::self_times() const {
  SelfTimes out;
  if (spans_.empty()) return out;
  const HostSpan& root = spans_[root_index_];
  out.wall = root.end - root.start;

  std::vector<std::pair<double, double>> offloads;
  std::vector<std::pair<double, double>> kernels;
  for (size_t i = root_index_ + 1; i < spans_.size(); ++i) {
    const HostSpan& span = spans_[i];
    if (span.kind == SpanKind::kOffload) {
      offloads.emplace_back(std::max(span.start, root.start),
                            std::min(span.end, root.end));
    } else if (span.kind == SpanKind::kKernel) {
      kernels.emplace_back(span.start, span.end);
    }
  }

  // Union of the (possibly concurrent) offload intervals.
  std::sort(offloads.begin(), offloads.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& interval : offloads) {
    if (!merged.empty() && interval.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, interval.second);
    } else {
      merged.push_back(interval);
    }
  }
  double offload_union = 0;
  for (const auto& [lo, hi] : merged) offload_union += hi - lo;

  // Kernel calls run one at a time on the single host thread, inside the
  // root; the part of each that falls inside an offload counts there.
  double kernel_inside = 0;
  double previous_end = root.start;
  for (const auto& [lo, hi] : kernels) {
    if (lo < previous_end || lo < root.start || hi > root.end) {
      out.well_formed = false;
    }
    previous_end = hi;
    out.kernels += hi - lo;
    auto it = std::upper_bound(
        merged.begin(), merged.end(), std::make_pair(lo, hi),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it != merged.begin()) --it;
    for (; it != merged.end() && it->first < hi; ++it) {
      kernel_inside += std::max(0.0, std::min(hi, it->second) -
                                         std::max(lo, it->first));
    }
  }
  out.offload_self = offload_union - kernel_inside;
  out.outside = out.wall - offload_union - (out.kernels - kernel_inside);
  out.kernels_in_offload = out.kernels > 0 ? kernel_inside / out.kernels : 1.0;
  return out;
}

void HostTrace::wrap_kernels(const std::string& prefix) {
  jni::KernelRegistry& registry = jni::KernelRegistry::instance();
  for (const std::string& name : registry.names()) {
    if (!starts_with(name, prefix)) continue;
    auto body = registry.find(name);
    if (!body.ok() || body->target<TimedKernel>() != nullptr) continue;
    auto site = std::make_shared<const KernelSite>(
        KernelSite{std::move(*body), name});
    registry.register_kernel(name, TimedKernel{this, std::move(site)});
  }
}

void HostTrace::on_kernel_call(const KernelSite& site, double start,
                               double end) {
  counts_.kernel_calls += 1;
  counts_.kernel_s += end - start;
  uint64_t parent = root_;
  uint64_t offload = 0;
  if (auto it = open_offloads_.find(last_job_offload_);
      it != open_offloads_.end()) {
    parent = spans_[it->second].id;
    offload = it->first;
  }
  add_span(SpanKind::kKernel, site.name, start, end, parent);
  spans_.back().offload = offload;
}

void HostTrace::on_target_begin(const tools::TargetInfo& info) {
  const double start = now();
  add_span(SpanKind::kOffload, std::string(info.region), start, start, root_);
  spans_.back().offload = info.target_id;
  spans_.back().request = request_index(info.region);
  open_offloads_[info.target_id] = spans_.size() - 1;
  open_regions_[std::string(info.region)] = info.target_id;
}

void HostTrace::on_target_end(const tools::TargetEndInfo& info) {
  counts_.offloads += 1;
  if (info.fell_back_to_host) counts_.fallbacks += 1;
  auto it = open_offloads_.find(info.target_id);
  if (it == open_offloads_.end()) return;
  spans_[it->second].end = now();
  open_offloads_.erase(it);
  if (auto region = open_regions_.find(info.region);
      region != open_regions_.end() && region->second == info.target_id) {
    open_regions_.erase(region);
  }
}

void HostTrace::on_data_op(const tools::DataOpInfo& info) {
  counts_.data_ops += 1;
  if (info.cache_hit) counts_.cache_hits += 1;
  if (info.kind == tools::DataOpKind::kTransferTo ||
      info.kind == tools::DataOpKind::kTransferFrom) {
    counts_.plain_bytes += info.plain_bytes;
    counts_.wire_bytes += info.wire_bytes;
  }
  const double stamp = now();
  add_span(SpanKind::kDataOp,
           str_format("%s %.*s", std::string(to_string(info.kind)).c_str(),
                      static_cast<int>(info.var.size()), info.var.data()),
           stamp, stamp, root_);
}

void HostTrace::on_kernel_submit(const tools::KernelInfo& info) {
  if (auto it = open_regions_.find(info.job); it != open_regions_.end()) {
    last_job_offload_ = it->second;
  }
}

void HostTrace::on_kernel_complete(const tools::KernelInfo& info) {
  counts_.tasks += 1;
  counts_.attempts += static_cast<uint64_t>(info.attempts);
}

void HostTrace::on_scheduler_event(const tools::SchedulerEventInfo& info) {
  using Kind = tools::SchedulerEventInfo::Kind;
  switch (info.kind) {
    case Kind::kAdmit: counts_.admitted += 1; break;
    case Kind::kReject: counts_.rejected += 1; break;
    case Kind::kDispatch:
      counts_.waits.push_back(info.wait_seconds);
      if (info.batch_id != 0) counts_.batch_ids.insert(info.batch_id);
      break;
    case Kind::kComplete:
      if (info.batch_size > 1) counts_.coalesced += 1;
      break;
    case Kind::kPreempt: break;
  }
  const double stamp = now();
  add_span(SpanKind::kScheduler,
           std::string(tools::to_string(info.kind)), stamp, stamp, root_);
  spans_.back().request = request_index(info.region);
}

Status HostTrace::write_json(const std::string& path,
                             const std::string& header) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return internal_error("cannot write " + path);
  std::fprintf(file, "{%s,\n\"spans\": [\n", header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& span = spans_[i];
    std::fprintf(file,
                 "{\"id\": %llu, \"parent\": %llu, \"kind\": \"%s\", "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"offload\": %llu, \"request\": %lld}%s\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 std::string(kind_name(span.kind)).c_str(),
                 json_escape(span.name).c_str(), span.start, span.end,
                 static_cast<unsigned long long>(span.offload),
                 static_cast<long long>(span.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  if (std::fclose(file) != 0) return internal_error("cannot write " + path);
  return Status::ok();
}

}  // namespace perfbench
