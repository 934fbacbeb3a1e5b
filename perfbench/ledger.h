// Benchmark-side instrumentation: an in-memory span ledger written out as a
// Chrome trace-event file, a minimal JSON writer for the result line, and
// the RunMetrics comparison/digest/invariant helpers the output checks use.
//
// Spans are recorded by the benchmark around the public calls it makes into
// the library (planning, sweep submission to ticket ready, run_plan); nothing
// inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/run_metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

/// Nanoseconds on the monotonic clock the parent process also reads, so it
/// can measure set-up from the moment it started this process.
std::int64_t monotonic_ns(Clock::time_point t);

/// One timed interval around a call into a layer. Spans that belong to the
/// same sweep point or run share `id`; `parent` names the span that caused
/// this one (0 = none).
struct Span {
  std::string name;
  std::string layer;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  /// Extra key/value pairs, already JSON-encoded as `"k": v, ...`.
  std::string args;
};

/// Thread-safe in-memory span store. A disabled ledger records nothing, so
/// the untraced runs pay one branch per call site.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id();
  void record(Span span);
  std::size_t size() const;

  /// Writes every span as a complete ("X") Chrome trace event, timestamps
  /// relative to `origin`, with `metadata` (a JSON object) as otherData.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path, Clock::time_point origin,
                          const std::string& metadata) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Builds one JSON object; numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  /// `json` must already be valid JSON (object, array, number...).
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string dump() const;
  /// The members without the braces, for splicing into another object.
  const std::string& fields() const { return body_; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_string(std::string_view text);
std::string json_array(const std::vector<double>& values);
/// `[a, b, ...]` of items that are already JSON.
std::string json_list(const std::vector<std::string>& items);

/// Name of the first RunMetrics field that differs, or "" when the two are
/// field-for-field identical (doubles compared bit-for-bit).
std::string metrics_diff(const mrd::RunMetrics& a, const mrd::RunMetrics& b);

/// 64-bit FNV-1a digest over every RunMetrics field; equal metrics give
/// equal digests, so results can be compared across processes.
std::uint64_t metrics_digest(const mrd::RunMetrics& m, std::uint64_t seed = 0);

/// Conservation checks that hold for every run at the parent commit:
/// hits + disk misses + recompute misses == probes, and
/// useful + wasted <= completed <= issued prefetches. Returns the violated
/// invariant, or "".
std::string conservation_violation(const mrd::RunMetrics& m);

/// Simulated block events of one run: probes, blocks cached, prefetches
/// issued and served, blocks purged.
std::uint64_t block_events(const mrd::RunMetrics& m);

/// Aggregate CPU ticks of the host as this guest sees them (/proc/stat):
/// the share the hypervisor stole over an interval tells measurements made
/// on a contended host apart from quiet ones.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// Stolen share of all CPU ticks between two readings (0 when none passed).
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// The machine a result was measured on: nproc, executor width, build type
/// and compiler, as a JSON object.
std::string machine_json();

}  // namespace perfbench
