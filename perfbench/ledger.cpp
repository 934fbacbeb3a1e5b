#include "ledger.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "exec/executor.h"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t monotonic_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::uint64_t Ledger::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Ledger::record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Ledger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Ledger::write_chrome_trace(const std::string& path,
                                Clock::time_point origin,
                                const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
      << ", \"traceEvents\": [";
  bool first = true;
  for (const Span& span : spans_) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(span.start - origin)
            .count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(span.end - span.start)
            .count();
    char head[256];
    std::snprintf(head, sizeof head,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  ts_us, dur_us);
    out << (first ? "\n" : ",\n") << "{\"name\": " << json_string(span.name)
        << ", \"cat\": " << json_string(span.layer) << ", " << head
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
        << span.parent << (span.args.empty() ? "" : ", ") << span.args
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k);
  body_ += ": ";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

std::string JsonObject::dump() const { return "{" + body_ + "}"; }

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

std::string metrics_diff(const mrd::RunMetrics& a, const mrd::RunMetrics& b) {
#define PERFBENCH_FIELD(f) \
  if (!(a.f == b.f)) return #f;
  PERFBENCH_FIELD(workload)
  PERFBENCH_FIELD(policy)
  PERFBENCH_FIELD(jct_ms)
  PERFBENCH_FIELD(probes)
  PERFBENCH_FIELD(hits)
  PERFBENCH_FIELD(misses_from_disk)
  PERFBENCH_FIELD(misses_recompute)
  PERFBENCH_FIELD(blocks_cached)
  PERFBENCH_FIELD(evictions)
  PERFBENCH_FIELD(spills)
  PERFBENCH_FIELD(purged_blocks)
  PERFBENCH_FIELD(uncacheable_blocks)
  PERFBENCH_FIELD(prefetches_issued)
  PERFBENCH_FIELD(prefetches_completed)
  PERFBENCH_FIELD(prefetches_useful)
  PERFBENCH_FIELD(prefetches_wasted)
  PERFBENCH_FIELD(disk_bytes_read)
  PERFBENCH_FIELD(disk_bytes_written)
  PERFBENCH_FIELD(network_bytes)
  PERFBENCH_FIELD(recompute_cpu_ms)
  PERFBENCH_FIELD(per_rdd_probes)
  PERFBENCH_FIELD(mrd_table_peak_entries)
  PERFBENCH_FIELD(mrd_update_messages)
  PERFBENCH_FIELD(stage_timings.size())
#undef PERFBENCH_FIELD
  for (std::size_t i = 0; i < a.stage_timings.size(); ++i) {
    const mrd::StageTiming& x = a.stage_timings[i];
    const mrd::StageTiming& y = b.stage_timings[i];
    if (x.stage != y.stage || x.job != y.job ||
        x.duration_ms != y.duration_ms || x.compute_ms != y.compute_ms ||
        x.io_ms != y.io_ms) {
      return "stage_timings";
    }
  }
  return "";
}

namespace {

class Fnv {
 public:
  explicit Fnv(std::uint64_t seed) : h_(0xcbf29ce484222325ull ^ seed) {}
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace

std::uint64_t metrics_digest(const mrd::RunMetrics& m, std::uint64_t seed) {
  Fnv h(seed);
  h.str(m.workload);
  h.str(m.policy);
  h.f64(m.jct_ms);
  for (const std::uint64_t v :
       {m.probes, m.hits, m.misses_from_disk, m.misses_recompute,
        m.blocks_cached, m.evictions, m.spills, m.purged_blocks,
        m.uncacheable_blocks, m.prefetches_issued, m.prefetches_completed,
        m.prefetches_useful, m.prefetches_wasted, m.disk_bytes_read,
        m.disk_bytes_written, m.network_bytes}) {
    h.u64(v);
  }
  h.f64(m.recompute_cpu_ms);
  h.u64(m.per_rdd_probes.size());
  for (const auto& [rdd, counts] : m.per_rdd_probes) {
    h.u64(rdd);
    h.u64(counts.first);
    h.u64(counts.second);
  }
  h.u64(m.mrd_table_peak_entries);
  h.u64(m.mrd_update_messages);
  h.u64(m.stage_timings.size());
  for (const mrd::StageTiming& t : m.stage_timings) {
    h.u64(t.stage);
    h.u64(t.job);
    h.f64(t.duration_ms);
    h.f64(t.compute_ms);
    h.f64(t.io_ms);
  }
  return h.value();
}

std::string conservation_violation(const mrd::RunMetrics& m) {
  if (m.hits + m.misses_from_disk + m.misses_recompute != m.probes) {
    return "hits+misses_from_disk+misses_recompute!=probes";
  }
  if (m.prefetches_useful + m.prefetches_wasted > m.prefetches_completed) {
    return "prefetches_useful+prefetches_wasted>prefetches_completed";
  }
  if (m.prefetches_completed > m.prefetches_issued) {
    return "prefetches_completed>prefetches_issued";
  }
  return "";
}

std::uint64_t block_events(const mrd::RunMetrics& m) {
  return m.probes + m.blocks_cached + m.prefetches_issued +
         m.prefetches_completed + m.purged_blocks;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  std::uint64_t field[8] = {};
  stat >> cpu;
  CpuTicks ticks;
  for (std::uint64_t& f : field) {
    if (!(stat >> f)) return CpuTicks{};
    ticks.total += f;
  }
  ticks.steal = field[7];
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string machine_json() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return JsonObject()
      .integer("nproc", nproc > 0 ? static_cast<std::uint64_t>(nproc) : 0)
      .integer("hardware_concurrency", std::thread::hardware_concurrency())
      .integer("executor_width", mrd::Executor::configured_width())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .dump();
}

}  // namespace perfbench
