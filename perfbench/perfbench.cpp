// The benchmark's measuring process. run.py starts it once per measured unit,
// then aggregates what each process prints as its last stdout line (one JSON
// object). One process does one of three jobs:
//
//   --role setup    set up the workload and exit (set-up time samples);
//   --role measure  set up, then measure for --seconds (repro_sweep: one cold
//                   sweep pass); with --check also run the output checks
//                   outside the timed region;
//   --role trace    the traced run: spans around every public call, the
//                   runner phase ledger and the per-layer counters, written
//                   to a Chrome trace-event file under --out.
//
//   perfbench --workload repro_sweep|graph_runs|scale_tier --seed N
//             --role setup|measure|trace [--seconds S] [--check]
//             [--ledger] [--out DIR] [--fig4 CSV]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_store.h"
#include "exec/executor.h"
#include "exec/run_context.h"
#include "harness/experiment.h"
#include "ledger.h"
#include "util/alloc_stats.h"
#include "util/csv.h"
#include "util/format.h"
#include "util/scoped_timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mrd::BestComparison;
using mrd::RunMetrics;

/// Sweep-level workers of repro_sweep (the drivers' `--jobs 4`).
constexpr std::size_t kSweepJobs = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::string role = "measure";
  double seconds = 10.0;
  bool check = false;
  bool ledger = false;
  std::string out = ".";
  std::string fig4;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--role") {
      o.role = value();
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--ledger") {
      o.ledger = true;
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--fig4") {
      o.fig4 = value();
    } else {
      usage_error("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (o.workload != "repro_sweep" && o.workload != "graph_runs" &&
      o.workload != "scale_tier") {
    usage_error("--workload must be repro_sweep, graph_runs or scale_tier");
  }
  if (o.role != "setup" && o.role != "measure" && o.role != "trace") {
    usage_error("--role must be setup, measure or trace");
  }
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

/// The end-to-end simulated metrics of a set of (lru, mrd) pairs.
struct PairScore {
  std::vector<double> ratios;  // mrd jct / lru jct
  std::uint64_t mrd_hits = 0;
  std::uint64_t mrd_probes = 0;

  void add(const RunMetrics& lru, const RunMetrics& mrd_run) {
    ratios.push_back(lru.jct_ms == 0.0 ? 1.0 : mrd_run.jct_ms / lru.jct_ms);
    mrd_hits += mrd_run.hits;
    mrd_probes += mrd_run.probes;
  }
  std::string fields() const {
    return JsonObject()
        .num("mrd_norm_jct", geomean(ratios))
        .num("mrd_hit_ratio", mrd_probes == 0
                                  ? 0.0
                                  : static_cast<double>(mrd_hits) /
                                        static_cast<double>(mrd_probes))
        .fields();
  }
};

/// The jct_validation sweep at the canonical inputs: full MRD vs LRU, best
/// of the default fractions, for the 14 SparkBench workloads in Table 3
/// order. Seed-independent by construction: the paper's bars describe these
/// inputs, not perturbed ones.
std::vector<BestComparison> canonical_fig4_pairs() {
  mrd::SweepRunner runner(kSweepJobs, 1);
  mrd::PolicyConfig lru, mrd_policy;
  lru.name = "lru";
  mrd_policy.name = "mrd";
  std::vector<mrd::PendingBest> pending;
  for (const mrd::WorkloadSpec& spec : mrd::sparkbench_workloads()) {
    pending.push_back(runner.submit_best(
        mrd::plan_workload_shared(spec, mrd::WorkloadParams{}),
        mrd::main_cluster(), mrd::default_cache_fractions(), lru,
        mrd_policy));
  }
  std::vector<BestComparison> out;
  for (mrd::PendingBest& p : pending) out.push_back(p.get());
  return out;
}

/// paper_jct_rho / paper_jct_mae of the canonical Fig 4 vector.
std::string paper_fields(const std::vector<BestComparison>& pairs) {
  const auto& bars = paper_fig4_bars();
  std::vector<double> paper, measured;
  double abs_dev = 0.0;
  for (std::size_t i = 0; i < pairs.size() && i < bars.size(); ++i) {
    paper.push_back(bars[i].second);
    measured.push_back(pairs[i].jct_ratio());
    abs_dev += std::abs(pairs[i].jct_ratio() - bars[i].second);
  }
  return JsonObject()
      .num("paper_jct_rho", spearman(paper, measured))
      .num("paper_jct_mae", abs_dev / static_cast<double>(measured.size()))
      .fields();
}

/// Runner-phase ledger of serial runs: phase busy time, run wall, and the
/// per-unit costs.
struct PhaseLedger {
  mrd::PhaseTimers phases;
  double wall_ms = 0.0;
  RunMetrics totals;  // summed counters of the ledger's runs
  double recompute_cpu_ms = 0.0;

  void add(const mrd::PhaseTimers& t, double wall, const RunMetrics& m) {
    for (std::size_t p = 0; p < mrd::kNumSimPhases; ++p) {
      phases.ms[p] += t.ms[p];
    }
    wall_ms += wall;
    totals.probes += m.probes;
    totals.hits += m.hits;
    totals.blocks_cached += m.blocks_cached;
    totals.evictions += m.evictions;
    totals.spills += m.spills;
    totals.purged_blocks += m.purged_blocks;
    totals.prefetches_issued += m.prefetches_issued;
    totals.prefetches_completed += m.prefetches_completed;
    totals.prefetches_useful += m.prefetches_useful;
    totals.disk_bytes_read += m.disk_bytes_read;
    totals.mrd_update_messages += m.mrd_update_messages;
    recompute_cpu_ms += m.recompute_cpu_ms;
  }

  static double ns_per(double ms, std::uint64_t n) {
    return n == 0 ? 0.0 : ms * 1e6 / static_cast<double>(n);
  }

  std::string fields() const {
    JsonObject o;
    for (std::size_t p = 0; p < mrd::kNumSimPhases; ++p) {
      o.num("runner." + std::string(mrd::kSimPhaseNames[p]) + "_ms",
            phases.ms[p]);
    }
    using mrd::SimPhase;
    o.num("runner.unattributed_ms", wall_ms - phases.total())
        .num("runner.wall_ms", wall_ms)
        .num("runner.ns_per_probe",
             ns_per(phases[SimPhase::kProbes], totals.probes))
        .num("runner.ns_per_cached_block",
             ns_per(phases[SimPhase::kCacheWrites], totals.blocks_cached))
        .num("runner.ns_per_prefetch",
             ns_per(phases[SimPhase::kPrefetchIssue] +
                        phases[SimPhase::kPrefetchServe],
                    totals.prefetches_issued + totals.prefetches_completed))
        .num("runner.ns_per_purged_block",
             ns_per(phases[SimPhase::kPurge], totals.purged_blocks))
        .num("cache.hit_ratio",
             totals.probes == 0 ? 0.0
                                : static_cast<double>(totals.hits) /
                                      static_cast<double>(totals.probes))
        .integer("cluster.evictions", totals.evictions)
        .integer("cluster.spills", totals.spills)
        .integer("cluster.disk_bytes_read", totals.disk_bytes_read)
        .num("core.prefetch_useful_ratio",
             totals.prefetches_issued == 0
                 ? 0.0
                 : static_cast<double>(totals.prefetches_useful) /
                       static_cast<double>(totals.prefetches_issued))
        .integer("core.purged_blocks", totals.purged_blocks)
        .integer("core.mrd_update_messages", totals.mrd_update_messages)
        .num("sim.recompute_cpu_ms", recompute_cpu_ms);
    return o.fields();
  }
};

/// One serial (node_jobs 1) run with phase timers and a `run_plan` span.
RunMetrics ledger_run(const mrd::ExecutionPlan& plan, mrd::RunConfig config,
                      mrd::RunContext* context, std::size_t point,
                      const std::string& name, Ledger* ledger,
                      PhaseLedger* out, std::uint64_t* allocs = nullptr) {
  mrd::PhaseTimers timers;
  config.node_jobs = 1;
  config.phase_timers = &timers;
  config.context = context;
  const Clock::time_point start = Clock::now();
  mrd::alloc_stats::ThreadScope scope;
  RunMetrics m = mrd::run_plan(plan, config);
  const std::uint64_t run_allocs = scope.allocs();
  const Clock::time_point end = Clock::now();
  const double wall = ms_between(start, end);
  out->add(timers, wall, m);
  if (allocs != nullptr) *allocs = run_allocs;
  JsonObject args;
  args.integer("point", point).str("name", name).num("wall_ms", wall);
  for (std::size_t p = 0; p < mrd::kNumSimPhases; ++p) {
    args.num(std::string(mrd::kSimPhaseNames[p]) + "_ms", timers.ms[p]);
  }
  args.num("unattributed_ms", wall - timers.total());
  ledger->record(
      Span{"run_plan", "runner", start, end, ledger->next_id(), 0,
           args.fields()});
  return m;
}

std::uint64_t persisted_blocks(const mrd::Application& app) {
  std::uint64_t blocks = 0;
  for (const mrd::RddInfo& rdd : app.rdds()) {
    if (rdd.persisted) blocks += rdd.num_partitions;
  }
  return blocks;
}

/// The first timed point, plus the host CPU ticks at that moment, so the
/// parent can tell how much CPU the hypervisor stole during set-up.
void mark_first_timed(Clock::time_point t, JsonObject* result) {
  const CpuTicks ticks = cpu_ticks();
  result->num("first_timed_ns", static_cast<double>(monotonic_ns(t)))
      .integer("first_timed_steal", ticks.steal)
      .integer("first_timed_ticks", ticks.total);
}

void emit(const JsonObject& result) {
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// repro_sweep
// ---------------------------------------------------------------------------

/// Distinct points of a spec, in first-submission order.
struct DistinctPoints {
  std::vector<ReproPoint> points;
  std::map<std::string, std::size_t> index;
  /// Per submission, the distinct index of each expanded point.
  std::vector<std::vector<std::size_t>> of_submission;
};

DistinctPoints distinct_points(const ReproSpec& spec) {
  DistinctPoints d;
  for (const ReproSubmission& sub : spec.submissions) {
    auto& ids = d.of_submission.emplace_back();
    for (const ReproPoint& p : expand(sub)) {
      const auto [it, inserted] =
          d.index.emplace(point_key(spec, p), d.points.size());
      if (inserted) d.points.push_back(p);
      ids.push_back(it->second);
    }
  }
  return d;
}

struct ReproPass {
  double wall_ms = 0.0;
  double steal = 0.0;  // stolen share of host CPU during the pass
  std::vector<std::optional<BestComparison>> best;
  std::vector<RunMetrics> single;
  std::vector<bool> threw;
  mrd::SweepStats stats;

  std::uint64_t digest(std::size_t i) const {
    if (threw[i]) return 0;
    if (!best[i]) return metrics_digest(single[i]);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &best[i]->fraction, sizeof bits);
    return metrics_digest(best[i]->baseline,
                          metrics_digest(best[i]->candidate, bits));
  }
};

/// One cold pass: a fresh SweepRunner at --jobs 4 (node_jobs 1) takes every
/// submission in spec order, then results are collected in the same order.
/// fig9's recurring submissions wait for that driver's ad-hoc results,
/// whose runs filled the profile stores they read.
ReproPass run_repro_pass(
    const ReproSpec& spec,
    const std::vector<std::shared_ptr<const mrd::WorkloadRun>>& runs,
    const std::vector<std::uint64_t>& plan_span, const DistinctPoints* points,
    Ledger* ledger) {
  const std::size_t n = spec.submissions.size();
  ReproPass pass;
  pass.best.resize(n);
  pass.single.resize(n);
  pass.threw.assign(n, false);
  std::deque<mrd::ProfileStore> stores(spec.stores);
  std::vector<mrd::PendingBest> pending(n);
  std::vector<mrd::SweepTicket> tickets(n);
  std::vector<Clock::time_point> submitted(n);
  std::vector<bool> collected(n, false);

  const CpuTicks ticks = cpu_ticks();
  const Clock::time_point start = Clock::now();
  mrd::SweepRunner runner(kSweepJobs, 1);
  const auto submit = [&](std::size_t i) {
    const ReproSubmission& s = spec.submissions[i];
    mrd::PolicyConfig candidate = s.candidate;
    if (s.store >= 0) candidate.profile_store = &stores[s.store];
    submitted[i] = Clock::now();
    if (s.best) {
      pending[i] = runner.submit_best(runs[s.plan], s.cluster, s.fractions,
                                      s.baseline, candidate, s.visibility);
    } else {
      tickets[i] = runner.submit(mrd::SweepJob{runs[s.plan], s.cluster,
                                               s.fractions[0], candidate,
                                               s.visibility});
    }
  };
  const auto collect = [&](std::size_t i) {
    if (collected[i]) return;
    collected[i] = true;
    try {
      if (spec.submissions[i].best) {
        pass.best[i] = pending[i].get();
      } else {
        pass.single[i] = tickets[i].get();
      }
    } catch (...) {
      pass.threw[i] = true;
    }
    if (ledger->enabled()) {
      const ReproSubmission& s = spec.submissions[i];
      std::vector<std::string> ids;
      for (const std::size_t k : points->of_submission[i]) {
        ids.push_back(std::to_string(k));
      }
      ledger->record(Span{
          s.driver + (s.best ? " submit_best " : " submit ") + s.row,
          "harness", submitted[i], Clock::now(), ledger->next_id(),
          plan_span[s.plan],
          JsonObject()
              .integer("submission", i)
              .raw("points", json_list(ids))
              .str("candidate", s.candidate.name)
              .fields()});
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!spec.submissions[i].deferred) submit(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!spec.submissions[i].deferred) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (!spec.submissions[j].deferred &&
          spec.submissions[j].store == spec.submissions[i].store) {
        collect(j);
      }
    }
    submit(i);
  }
  for (std::size_t i = 0; i < n; ++i) collect(i);
  pass.wall_ms = ms_between(start, Clock::now());
  pass.steal = steal_share(ticks, cpu_ticks());
  pass.stats = runner.stats();
  return pass;
}

mrd::RunConfig point_config(const ReproPoint& p, const mrd::WorkloadRun& run,
                            std::deque<mrd::ProfileStore>* stores) {
  mrd::RunConfig config;
  config.cluster = *p.cluster;
  config.cluster.cache_bytes_per_node =
      mrd::cache_bytes_per_node_for(run, *p.cluster, p.fraction);
  config.policy = p.policy;
  if (p.store >= 0) config.policy.profile_store = &(*stores)[p.store];
  config.visibility = p.visibility;
  return config;
}

/// The best-of-fractions reduction PendingBest::get() performs, applied to
/// oracle results.
BestComparison oracle_best(const ReproSubmission& sub,
                           const std::vector<std::size_t>& ids,
                           const std::vector<RunMetrics>& oracle) {
  BestComparison best;
  for (std::size_t k = 0; k < sub.fractions.size(); ++k) {
    const RunMetrics& base = oracle[ids[2 * k]];
    const RunMetrics& cand = oracle[ids[2 * k + 1]];
    const double ratio = base.jct_ms == 0.0 ? 1.0 : cand.jct_ms / base.jct_ms;
    if (k == 0 || ratio < best.jct_ratio()) {
      best.fraction = sub.fractions[k];
      best.baseline = base;
      best.candidate = cand;
    }
  }
  return best;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes the Fig 4 CSV exactly as bench/fig4_overall_performance does and
/// compares it byte for byte with the committed copy.
bool fig4_matches(const ReproSpec& spec, const ReproPass& pass,
                  const Options& o) {
  const std::string path = o.out + "/fig4_overall_performance.csv";
  {
    mrd::CsvWriter csv(path);
    csv.write_row({"workload", "evict_only_jct_ratio",
                   "prefetch_only_jct_ratio", "full_jct_ratio", "lru_hit",
                   "mrd_hit", "best_fraction"});
    for (const mrd::WorkloadSpec& w : mrd::sparkbench_workloads()) {
      std::map<std::string, const BestComparison*> variant;
      for (std::size_t i = 0; i < spec.submissions.size(); ++i) {
        const ReproSubmission& s = spec.submissions[i];
        if (s.driver == "fig4" && s.row == w.key && pass.best[i]) {
          variant[s.candidate.name] = &*pass.best[i];
        }
      }
      if (variant.size() != 3) return false;
      const BestComparison& full = *variant["mrd"];
      csv.write_row(
          {w.key, mrd::format_double(variant["mrd-evict"]->jct_ratio(), 4),
           mrd::format_double(variant["mrd-prefetch"]->jct_ratio(), 4),
           mrd::format_double(full.jct_ratio(), 4),
           mrd::format_double(full.baseline.hit_ratio(), 4),
           mrd::format_double(full.candidate.hit_ratio(), 4),
           mrd::format_double(full.fraction, 2)});
    }
  }
  const std::string committed = read_file(o.fig4);
  return !committed.empty() && committed == read_file(path);
}

/// Output checks of a repro pass, outside the timed region: every distinct
/// point is re-run on the serial oracle (fresh context, node_jobs 1) and
/// through SweepRunner::submit on pooled contexts; every submission's result
/// must match the oracle field for field, and every oracle run must satisfy
/// the conservation invariants.
std::string repro_checks(
    const ReproSpec& spec,
    const std::vector<std::shared_ptr<const mrd::WorkloadRun>>& runs,
    const DistinctPoints& d, const ReproPass& pass, const Options& o,
    const Inputs& inputs) {
  std::vector<RunMetrics> oracle(d.points.size());
  std::vector<bool> bad_point(d.points.size(), false);
  std::vector<std::string> notes;  // the first few failures, JSON strings
  const auto note = [&notes](const std::string& text) {
    if (notes.size() < 8) notes.push_back(json_string(text));
  };
  std::size_t invariant_violations = 0;
  {
    std::deque<mrd::ProfileStore> stores(spec.stores);
    for (std::size_t k = 0; k < d.points.size(); ++k) {
      const ReproPoint& p = d.points[k];
      try {
        mrd::RunConfig config = point_config(p, *runs[p.plan], &stores);
        oracle[k] = mrd::run_plan(runs[p.plan]->plan, config);
      } catch (const std::exception& e) {
        bad_point[k] = true;
        note("oracle threw: " + std::string(e.what()));
        continue;
      }
      const std::string v = conservation_violation(oracle[k]);
      if (!v.empty()) {
        bad_point[k] = true;
        ++invariant_violations;
        note(point_key(spec, p) + ": " + v);
      }
    }
  }
  // Every distinct point once more through SweepRunner::submit (pooled
  // contexts, four workers), compared point by point.
  std::size_t point_mismatches = 0;
  {
    std::deque<mrd::ProfileStore> stores(spec.stores);
    mrd::SweepRunner runner(kSweepJobs, 1);
    std::vector<mrd::SweepTicket> tickets(d.points.size());
    for (const bool deferred : {false, true}) {
      for (std::size_t k = 0; k < d.points.size(); ++k) {
        const ReproPoint& p = d.points[k];
        if (p.deferred != deferred) continue;
        mrd::PolicyConfig pol = p.policy;
        if (p.store >= 0) pol.profile_store = &stores[p.store];
        tickets[k] = runner.submit(mrd::SweepJob{
            runs[p.plan], *p.cluster, p.fraction, pol, p.visibility});
      }
      for (std::size_t k = 0; k < d.points.size(); ++k) {
        if (d.points[k].deferred != deferred) continue;
        std::string diff;
        try {
          diff = metrics_diff(tickets[k].get(), oracle[k]);
        } catch (const std::exception& e) {
          diff = std::string("threw: ") + e.what();
        }
        if (!diff.empty()) {
          bad_point[k] = true;
          ++point_mismatches;
          note(point_key(spec, d.points[k]) + ": " + diff);
        }
      }
    }
  }
  // The timed pass's own results against the oracle.
  std::vector<std::string> bad_submissions;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < spec.submissions.size(); ++i) {
    const ReproSubmission& s = spec.submissions[i];
    const auto& ids = d.of_submission[i];
    bool bad = pass.threw[i];
    for (const std::size_t k : ids) {
      bad = bad || bad_point[k];
      events += block_events(oracle[k]);
    }
    if (!bad && s.best) {
      const BestComparison expect = oracle_best(s, ids, oracle);
      std::string diff = metrics_diff(pass.best[i]->baseline, expect.baseline);
      if (diff.empty()) {
        diff = metrics_diff(pass.best[i]->candidate, expect.candidate);
      }
      if (diff.empty() && pass.best[i]->fraction != expect.fraction) {
        diff = "fraction";
      }
      if (!diff.empty()) {
        bad = true;
        note(s.driver + "/" + s.row + ": " + diff);
      }
    } else if (!bad) {
      const std::string diff = metrics_diff(pass.single[i], oracle[ids[0]]);
      if (!diff.empty()) {
        bad = true;
        note(s.driver + "/" + s.row + ": " + diff);
      }
    }
    if (bad) bad_submissions.push_back(std::to_string(i));
  }
  bool fig4_ok = true;
  if (inputs.canonical()) {
    fig4_ok = fig4_matches(spec, pass, o);
    if (!fig4_ok) {
      // Every Fig 4 submission counts as failed when the derived rows differ.
      note("fig4 CSV differs from " + o.fig4);
      for (std::size_t i = 0; i < spec.submissions.size(); ++i) {
        const std::string id = std::to_string(i);
        if (spec.submissions[i].driver == "fig4" &&
            std::find(bad_submissions.begin(), bad_submissions.end(), id) ==
                bad_submissions.end()) {
          bad_submissions.push_back(id);
        }
      }
    }
  }
  const std::vector<BestComparison> canonical = canonical_fig4_pairs();
  PairScore score;
  for (const BestComparison& b : canonical) score.add(b.baseline, b.candidate);

  return JsonObject()
      .raw("bad_submissions", json_list(bad_submissions))
      .integer("distinct_points", d.points.size())
      .integer("point_mismatches", point_mismatches)
      .integer("invariant_violations", invariant_violations)
      .integer("events_per_pass", events)
      .boolean("fig4_checked", inputs.canonical())
      .boolean("fig4_match", fig4_ok)
      .raw("notes", json_list(notes))
      .raw("sim", "{" + score.fields() + ", " + paper_fields(canonical) + "}")
      .dump();
}

int repro_main(const Options& o, const Inputs& inputs) {
  const Clock::time_point origin = Clock::now();
  Ledger ledger(o.role == "trace");
  mrd::Executor::instance();  // executor start-up is part of set-up
  const ReproSpec spec = repro_spec(inputs);
  std::vector<std::shared_ptr<const mrd::WorkloadRun>> runs;
  std::vector<std::uint64_t> plan_span;
  double plan_ms = 0.0;
  std::uint64_t stages = 0, blocks = 0;
  for (const ReproPlan& p : spec.plans) {
    const Clock::time_point t0 = Clock::now();
    runs.push_back(plan_traced(*p.spec, p.params, &ledger));
    plan_ms += ms_between(t0, Clock::now());
    plan_span.push_back(ledger.enabled() ? ledger.size() : 0);
    stages += runs.back()->plan.total_stages();
    blocks += persisted_blocks(*runs.back()->app);
  }
  // Traced passes tag every submission span with the distinct points it
  // covers; the serial ledger's run_plan spans carry the same point ids.
  const DistinctPoints points = distinct_points(spec);
  const Clock::time_point first_timed = Clock::now();
  JsonObject result;
  result.raw("machine", machine_json());
  mark_first_timed(first_timed, &result);
  if (o.role == "setup") {
    emit(result);
    return 0;
  }

  const ReproPass pass =
      run_repro_pass(spec, runs, plan_span, &points, &ledger);
  result.num("rss_mb", peak_rss_mb())
      .num("pass_ms", pass.wall_ms)
      .num("pass_steal", pass.steal)
      .integer("points", spec.points())
      .integer("submissions", spec.submissions.size());
  // Later passes are checked against the checked pass digest by digest.
  std::vector<std::string> digests, weights;
  for (std::size_t i = 0; i < spec.submissions.size(); ++i) {
    digests.push_back(hex(pass.digest(i)));
    weights.push_back(std::to_string(spec.submissions[i].points()));
  }
  result.raw("digests", json_list(digests))
      .raw("submission_points", json_list(weights));

  if (o.check) {
    result.raw("check", repro_checks(spec, runs, points, pass, o, inputs));
  }

  if (o.role == "trace") {
    const mrd::SweepStats& st = pass.stats;
    const double runs_n =
        static_cast<double>(std::max<std::size_t>(1, st.runs));
    const double fresh_runs =
        static_cast<double>(st.runs - std::min(st.runs, st.steady_runs));
    const DistinctPoints& d = points;
    JsonObject layers;
    layers.num("dag.plan_ms", plan_ms)
        .integer("dag.stages", stages)
        .integer("dag.persisted_blocks", blocks)
        .num("run_context.reuse_ratio",
             static_cast<double>(st.steady_runs) / runs_n)
        .num("run_context.steady_allocs_per_run", st.mean_steady_allocs())
        .num("run_context.fresh_allocs_per_run",
             fresh_runs == 0.0
                 ? 0.0
                 : static_cast<double>(st.heap_allocs - st.steady_allocs) /
                       fresh_runs)
        .num("harness.busy_ms", st.aggregate_ms)
        .num("harness.queue_ms_mean", st.mean_queue_ms())
        .num("harness.utilization",
             st.wall_ms == 0.0
                 ? 0.0
                 : st.aggregate_ms /
                       (st.wall_ms * static_cast<double>(st.threads)))
        .num("harness.dispatch_allocs_per_point", st.mean_dispatch_allocs())
        .num("harness.unique_point_ratio",
             static_cast<double>(d.points.size()) /
                 static_cast<double>(spec.points()))
        .integer("harness.exec_steals", st.exec_steals)
        .num("engine.event_share", 0.0)
        .num("engine.instructions", 0.0)
        .num("engine.overlap", 0.0)
        .num("engine.steals", 0.0)
        .num("engine.failed_steal_ratio", 0.0)
        .num("engine.max_shard_depth", 0.0);
    if (o.ledger) {
      // Serial ledger pass over every distinct point (node_jobs 1), one
      // pooled context per (point minus fraction), as the sweep's rings
      // would key them.
      PhaseLedger phases;
      std::deque<mrd::ProfileStore> stores(spec.stores);
      std::map<std::string, std::unique_ptr<mrd::RunContext>> contexts;
      for (std::size_t k = 0; k < d.points.size(); ++k) {
        const ReproPoint& p = d.points[k];
        ReproPoint keyed = p;
        keyed.fraction = 0.0;
        auto& ctx = contexts[point_key(spec, keyed)];
        if (!ctx) ctx = std::make_unique<mrd::RunContext>();
        ledger_run(runs[p.plan]->plan, point_config(p, *runs[p.plan], &stores),
                   ctx.get(), k, point_key(spec, p), &ledger, &phases);
      }
      layers.raw("ledger", "{" + phases.fields() + "}");
    }
    result.raw("layers", layers.dump());
    const std::string trace_path = o.out + "/trace_repro_sweep.json";
    result.boolean("trace_written",
                   ledger.write_chrome_trace(trace_path, origin,
                                             machine_json()))
        .str("trace_file", trace_path)
        .integer("spans", ledger.size());
  }
  emit(result);
  return 0;
}

// ---------------------------------------------------------------------------
// graph_runs and scale_tier
// ---------------------------------------------------------------------------

/// Canonical (seed 0) pair score of a single-run workload: mrd vs lru of
/// each planned workload.
std::string single_run_sim(const std::vector<RunScenario>& scenarios,
                           const std::vector<RunMetrics>& results) {
  PairScore score;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i].policy != "mrd") continue;
    for (std::size_t j = 0; j < scenarios.size(); ++j) {
      if (scenarios[j].policy == "lru" &&
          scenarios[j].run == scenarios[i].run) {
        score.add(results[j], results[i]);
      }
    }
  }
  return score.fields();
}

int single_run_main(const Options& o, const Inputs& inputs) {
  Ledger ledger(o.role == "trace");
  mrd::Executor::instance();
  const Clock::time_point plan_start = Clock::now();
  const std::vector<RunScenario> scenarios =
      o.workload == "graph_runs" ? graph_runs(inputs, &ledger)
                                 : scale_tier(inputs, &ledger);
  const double plan_ms = ms_between(plan_start, Clock::now());
  // One pooled context per scenario, built by an untimed warm-up run whose
  // metrics are the reference every timed run must reproduce.
  std::vector<std::unique_ptr<mrd::RunContext>> contexts;
  std::vector<RunMetrics> reference;
  for (const RunScenario& s : scenarios) {
    contexts.push_back(std::make_unique<mrd::RunContext>());
    mrd::RunConfig config = s.config;
    config.context = contexts.back().get();
    reference.push_back(mrd::run_plan(s.run->plan, config));
  }
  const Clock::time_point first_timed = Clock::now();
  JsonObject result;
  result.raw("machine", machine_json());
  mark_first_timed(first_timed, &result);
  if (o.role == "setup") {
    emit(result);
    return 0;
  }

  // Rounds run every scenario once, back to back, in seeded order. A traced
  // round adds the run_plan spans and the parallel_stats sink; the trace
  // role alternates untraced and traced rounds to price the tracing.
  std::vector<std::vector<double>> samples(scenarios.size());
  std::vector<double> round_ms[2];
  std::vector<double> round_steal;  // of the untraced rounds
  std::uint64_t runs = 0, failed = 0, reused = 0, traced_runs = 0;
  std::uint64_t instructions = 0;
  std::size_t event_runs = 0;
  double overlap_sum = 0.0;
  std::uint64_t steals = 0, failed_steals = 0;
  std::size_t max_shard_depth = 0;
  const auto round = [&](bool traced) {
    const CpuTicks ticks = cpu_ticks();
    const Clock::time_point r0 = Clock::now();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      mrd::RunConfig config = scenarios[i].config;
      config.context = contexts[i].get();
      mrd::NodeParallelStats stats;
      if (traced) config.parallel_stats = &stats;
      const Clock::time_point t0 = Clock::now();
      std::string diff;
      RunMetrics m;
      try {
        m = mrd::run_plan(scenarios[i].run->plan, config);
        diff = metrics_diff(m, reference[i]);
      } catch (const std::exception& e) {
        diff = std::string("threw: ") + e.what();
      }
      const Clock::time_point t1 = Clock::now();
      ++runs;
      failed += diff.empty() ? 0 : 1;
      reused += contexts[i]->fully_reused() ? 1 : 0;
      if (!traced) {
        samples[i].push_back(ms_between(t0, t1));
        continue;
      }
      ++traced_runs;
      if (stats.instructions > 0) ++event_runs;
      instructions += stats.instructions;
      overlap_sum += stats.overlap();
      steals += stats.steals;
      failed_steals += stats.failed_steals;
      max_shard_depth = std::max(max_shard_depth, stats.max_shard_depth);
      ledger.record(Span{"run_plan", "engine", t0, t1, ledger.next_id(), 0,
                         JsonObject()
                             .integer("point", i)
                             .str("scenario", scenarios[i].name)
                             .integer("node_jobs", config.node_jobs)
                             .integer("instructions", stats.instructions)
                             .integer("steals", stats.steals)
                             .fields()});
    }
    round_ms[traced ? 1 : 0].push_back(ms_between(r0, Clock::now()));
    if (!traced) round_steal.push_back(steal_share(ticks, cpu_ticks()));
  };
  // Traced and untraced rounds swap order every iteration so neither always
  // runs second.
  for (bool traced_first = false;;) {
    if (o.role == "trace" && traced_first) round(true);
    round(false);
    if (o.role == "trace" && !traced_first) round(true);
    traced_first = !traced_first;
    if (ms_between(first_timed, Clock::now()) >= o.seconds * 1000.0) break;
  }
  JsonObject samples_json;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    samples_json.raw(scenarios[i].name, json_array(samples[i]));
  }
  std::uint64_t events_per_round = 0;
  for (const RunMetrics& m : reference) events_per_round += block_events(m);
  result.num("rss_mb", peak_rss_mb())
      .raw("samples", samples_json.dump())
      .raw("round_ms", json_array(round_ms[0]))
      .raw("round_steal", json_array(round_steal))
      .integer("events_per_round", events_per_round)
      .integer("runs", runs)
      .integer("failed_runs", failed);

  if (o.check) {
    // Serial oracle (fresh context, node_jobs 1) per scenario.
    std::size_t bad = 0, violations = 0;
    std::vector<std::string> notes;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      mrd::RunConfig config = scenarios[i].config;
      config.node_jobs = 1;
      std::string diff;
      try {
        const RunMetrics oracle = mrd::run_plan(scenarios[i].run->plan, config);
        diff = metrics_diff(reference[i], oracle);
        const std::string v = conservation_violation(oracle);
        if (!v.empty()) {
          ++violations;
          diff = diff.empty() ? v : diff;
        }
      } catch (const std::exception& e) {
        diff = std::string("threw: ") + e.what();
      }
      if (!diff.empty()) {
        ++bad;
        notes.push_back(json_string(scenarios[i].name + ": " + diff));
      }
    }
    // Simulated metrics at the canonical inputs.
    std::string sim;
    if (inputs.canonical()) {
      sim = single_run_sim(scenarios, reference);
    } else {
      const Inputs canonical(kDefaultSeed);
      const std::vector<RunScenario> base =
          o.workload == "graph_runs" ? graph_runs(canonical, nullptr)
                                     : scale_tier(canonical, nullptr);
      std::vector<RunMetrics> base_results;
      for (const RunScenario& s : base) {
        base_results.push_back(mrd::run_plan(s.run->plan, s.config));
      }
      sim = single_run_sim(base, base_results);
    }
    result.raw("check",
               JsonObject()
                   .integer("bad_scenarios", bad)
                   .integer("invariant_violations", violations)
                   .integer("oracle_runs", scenarios.size())
                   .raw("notes", json_list(notes))
                   .raw("sim", "{" + sim + ", " +
                                   paper_fields(canonical_fig4_pairs()) + "}")
                   .dump());
  }

  if (o.role == "trace") {
    // Serial ledger: per scenario a fresh context, one cold run (fresh
    // allocations) and one steady run (context reused in place); node_jobs 1
    // so every allocation and every phase lands on this thread.
    PhaseLedger phases;
    std::uint64_t fresh_allocs = 0, steady_allocs = 0, steady_runs = 0;
    std::uint64_t stages = 0, blocks = 0;
    std::vector<const mrd::WorkloadRun*> seen;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const mrd::WorkloadRun* run = scenarios[i].run.get();
      if (std::find(seen.begin(), seen.end(), run) == seen.end()) {
        seen.push_back(run);
        stages += run->plan.total_stages();
        blocks += persisted_blocks(*run->app);
      }
      // The cold run only prices context construction; the ledger sums the
      // steady run, the state every timed run is in.
      mrd::RunContext context;
      PhaseLedger cold;
      std::uint64_t allocs = 0;
      ledger_run(run->plan, scenarios[i].config, &context, i,
                 scenarios[i].name + " cold", &ledger, &cold, &allocs);
      fresh_allocs += allocs;
      ledger_run(run->plan, scenarios[i].config, &context, i,
                 scenarios[i].name + " steady", &ledger, &phases, &allocs);
      if (context.fully_reused()) {
        steady_allocs += allocs;
        ++steady_runs;
      }
    }
    const auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double n =
        static_cast<double>(std::max<std::uint64_t>(1, traced_runs));
    const double untraced = median(round_ms[0]);
    JsonObject layers;
    layers.num("dag.plan_ms", plan_ms)
        .integer("dag.stages", stages)
        .integer("dag.persisted_blocks", blocks)
        .num("run_context.reuse_ratio",
             static_cast<double>(reused) / static_cast<double>(runs))
        .num("run_context.steady_allocs_per_run",
             steady_runs == 0 ? 0.0
                              : static_cast<double>(steady_allocs) /
                                    static_cast<double>(steady_runs))
        .num("run_context.fresh_allocs_per_run",
             static_cast<double>(fresh_allocs) /
                 static_cast<double>(scenarios.size()))
        .num("engine.event_share", static_cast<double>(event_runs) / n)
        .num("engine.instructions",
             static_cast<double>(instructions) / n)
        .num("engine.overlap", overlap_sum / n)
        .num("engine.steals", static_cast<double>(steals) / n)
        .num("engine.failed_steal_ratio",
             steals + failed_steals == 0
                 ? 0.0
                 : static_cast<double>(failed_steals) /
                       static_cast<double>(steals + failed_steals))
        .num("engine.max_shard_depth", static_cast<double>(max_shard_depth))
        .num("harness.busy_ms", 0.0)
        .num("harness.queue_ms_mean", 0.0)
        .num("harness.utilization", 0.0)
        .num("harness.dispatch_allocs_per_point", 0.0)
        .num("harness.unique_point_ratio", 0.0)
        .num("harness.exec_steals", 0.0)
        .num("trace.overhead_share",
             untraced == 0.0 ? 0.0 : median(round_ms[1]) / untraced - 1.0)
        .raw("ledger", "{" + phases.fields() + "}");
    result.raw("layers", layers.dump());
    const std::string trace_path = o.out + "/trace_" + o.workload + ".json";
    result.boolean("trace_written",
                   ledger.write_chrome_trace(trace_path, plan_start,
                                             machine_json()))
        .str("trace_file", trace_path)
        .integer("spans", ledger.size());
  }
  emit(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  const perfbench::Inputs inputs(o.seed);
  try {
    return o.workload == "repro_sweep" ? perfbench::repro_main(o, inputs)
                                       : perfbench::single_run_main(o, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
