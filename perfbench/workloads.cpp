#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "dag/dag_builder.h"
#include "dag/dag_scheduler.h"
#include "dag/placement.h"
#include "ledger.h"
#include "util/check.h"

namespace perfbench {

using mrd::ClusterConfig;
using mrd::DagVisibility;
using mrd::PolicyConfig;
using mrd::WorkloadParams;
using mrd::WorkloadSpec;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

std::uint64_t Inputs::draw(std::string_view stream, std::uint64_t salt) const {
  // splitmix64 over (seed, FNV-1a(stream), salt).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  std::uint64_t z = seed_ * 0x9e3779b97f4a7c15ull ^ h ^ (salt << 17);
  for (int round = 0; round < 2; ++round) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
  }
  return z;
}

double Inputs::symmetric(std::string_view stream, std::uint64_t salt) const {
  const double unit =
      static_cast<double>(draw(stream, salt) >> 11) * 0x1.0p-53;
  return 2.0 * unit - 1.0;
}

double Inputs::fraction(double f) const {
  if (canonical()) return f;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  const double moved = f + kFractionJitter * symmetric("fraction", bits);
  return std::clamp(std::round(moved * 1000.0) / 1000.0, 0.05, 1.0);
}

std::vector<double> Inputs::fractions(const std::vector<double>& grid) const {
  std::vector<double> out;
  out.reserve(grid.size());
  for (const double f : grid) out.push_back(fraction(f));
  return out;
}

std::uint32_t Inputs::iterations(std::string_view stream,
                                 std::uint32_t base) const {
  if (canonical() || base < kMinJitteredIterations) return base;
  return base - 1 + static_cast<std::uint32_t>(draw(stream, 0) % 3);
}

WorkloadParams Inputs::params(const WorkloadSpec& spec, double scale,
                              bool jitter_scale,
                              std::uint32_t iteration_factor) const {
  WorkloadParams params;
  params.scale = scale;
  if (jitter_scale && !canonical()) {
    params.scale *= 1.0 + kScaleJitter * symmetric("scale:" + spec.key, 0);
  }
  const std::uint32_t iterations =
      this->iterations("iterations:" + spec.key, spec.default_iterations);
  // 0 keeps the generator's own default, exactly as the drivers pass it.
  if (iterations != spec.default_iterations || iteration_factor != 1) {
    params.iterations = iterations * iteration_factor;
  }
  return params;
}

std::shared_ptr<const mrd::WorkloadRun> plan_traced(
    const WorkloadSpec& spec, const WorkloadParams& params, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  auto run = mrd::plan_workload_shared(spec, params);
  if (ledger != nullptr && ledger->enabled()) {
    ledger->record(Span{"plan " + spec.key, "dag", start, Clock::now(),
                        ledger->next_id(), 0,
                        JsonObject()
                            .integer("stages", run->plan.total_stages())
                            .num("scale", params.scale)
                            .integer("iterations", params.iterations)
                            .fields()});
  }
  return run;
}

// ---------------------------------------------------------------------------
// repro_sweep
// ---------------------------------------------------------------------------

namespace {

PolicyConfig policy(const std::string& name) {
  PolicyConfig config;
  config.name = name;
  return config;
}

const WorkloadSpec& workload(const char* key) {
  const WorkloadSpec* spec = mrd::find_workload(key);
  MRD_CHECK(spec != nullptr);
  return *spec;
}

/// Collects one driver's planning calls and submissions.
class DriverBuilder {
 public:
  DriverBuilder(ReproSpec* spec, const Inputs& inputs, std::string driver)
      : spec_(spec), inputs_(inputs), driver_(std::move(driver)) {}

  std::size_t plan(const WorkloadSpec& w, std::uint32_t iteration_factor = 1) {
    spec_->plans.push_back(
        ReproPlan{&w, inputs_.params(w, 1.0, true, iteration_factor)});
    return spec_->plans.size() - 1;
  }

  ReproSubmission& best(std::size_t plan, const ClusterConfig& cluster,
                        const std::vector<double>& fractions,
                        const std::string& candidate,
                        DagVisibility visibility = DagVisibility::kRecurring) {
    ReproSubmission sub = base(plan, cluster);
    sub.best = true;
    sub.fractions = inputs_.fractions(fractions);
    sub.baseline = policy("lru");
    sub.candidate = policy(candidate);
    sub.visibility = visibility;
    rows_.back().push_back(std::move(sub));
    return rows_.back().back();
  }

  ReproSubmission& single(std::size_t plan, const ClusterConfig& cluster,
                          double fraction, const PolicyConfig& candidate,
                          DagVisibility visibility =
                              DagVisibility::kRecurring) {
    ReproSubmission sub = base(plan, cluster);
    sub.fractions = {inputs_.fraction(fraction)};
    sub.candidate = candidate;
    sub.visibility = visibility;
    rows_.back().push_back(std::move(sub));
    return rows_.back().back();
  }

  /// Starts a row: the unit the seed reorders within a driver.
  void row(std::string key) {
    rows_.emplace_back();
    row_keys_.push_back(std::move(key));
  }

  /// The driver's submissions, rows in seeded order.
  std::vector<ReproSubmission> finish() {
    std::vector<std::size_t> order(rows_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    inputs_.shuffle(&order, "rows:" + driver_);
    std::vector<ReproSubmission> out;
    for (const std::size_t r : order) {
      for (ReproSubmission& sub : rows_[r]) {
        sub.row = row_keys_[r];
        out.push_back(std::move(sub));
      }
    }
    return out;
  }

 private:
  ReproSubmission base(std::size_t plan, const ClusterConfig& cluster) const {
    ReproSubmission sub;
    sub.driver = driver_;
    sub.plan = plan;
    sub.cluster = cluster;
    return sub;
  }

  ReproSpec* spec_;
  const Inputs& inputs_;
  std::string driver_;
  std::vector<std::vector<ReproSubmission>> rows_;
  std::vector<std::string> row_keys_;
};

// Each function mirrors the submissions of bench/<driver>.cpp.

void fig4(DriverBuilder& d) {
  for (const WorkloadSpec& w : mrd::sparkbench_workloads()) {
    d.row(w.key);
    const std::size_t p = d.plan(w);
    for (const char* variant : {"mrd-evict", "mrd-prefetch", "mrd"}) {
      d.best(p, mrd::main_cluster(), mrd::default_cache_fractions(), variant);
    }
  }
}

void fig5(DriverBuilder& d) {
  for (const char* key : {"cc", "svdpp", "pr", "scc", "po"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    d.best(p, mrd::lrc_cluster(), mrd::default_cache_fractions(), "lrc");
    d.best(p, mrd::lrc_cluster(), mrd::default_cache_fractions(), "mrd");
  }
}

void fig6(DriverBuilder& d) {
  for (const char* key : {"pr", "logr", "km", "cc", "svdpp"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    d.best(p, mrd::memtune_cluster(), mrd::default_cache_fractions(),
           "memtune");
    d.best(p, mrd::memtune_cluster(), mrd::default_cache_fractions(), "mrd");
  }
}

void fig7(DriverBuilder& d) {
  const std::size_t p = d.plan(workload("svdpp"));
  for (const double fraction : {0.2, 0.35, 0.5, 0.65, 0.8, 1.0}) {
    d.row("svdpp");
    for (const char* pol : {"lru", "lrc", "mrd"}) {
      d.single(p, mrd::lrc_cluster(), fraction, policy(pol));
    }
  }
}

void fig8(DriverBuilder& d) {
  for (const char* key : {"lp", "km"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    for (const char* pol : {"lru", "mrd", "mrd-job"}) {
      d.single(p, mrd::main_cluster(), 0.5, policy(pol),
               DagVisibility::kAdHoc);
    }
  }
}

void fig9(DriverBuilder& d, ReproSpec* spec) {
  for (const char* key : {"km", "tc"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    const int store = static_cast<int>(spec->stores++);
    d.best(p, mrd::main_cluster(), mrd::default_cache_fractions(), "mrd",
           DagVisibility::kAdHoc)
        .store = store;
    ReproSubmission& rec = d.best(p, mrd::main_cluster(),
                                  mrd::default_cache_fractions(), "mrd");
    rec.store = store;
    rec.deferred = true;
  }
}

void fig10(DriverBuilder& d) {
  for (const WorkloadSpec& w : mrd::sparkbench_workloads()) {
    if (w.default_iterations == 0) continue;
    d.row(w.key);
    const std::size_t p1 = d.plan(w);
    const std::size_t p3 = d.plan(w, 3);
    d.best(p1, mrd::main_cluster(), mrd::default_cache_fractions(), "mrd");
    d.best(p3, mrd::main_cluster(), mrd::default_cache_fractions(), "mrd");
  }
}

/// fig11, fig12 and jct_validation submit the same sweep.
void lru_vs_mrd(DriverBuilder& d) {
  for (const WorkloadSpec& w : mrd::sparkbench_workloads()) {
    d.row(w.key);
    d.best(d.plan(w), mrd::main_cluster(), mrd::default_cache_fractions(),
           "mrd");
  }
}

void ablation(DriverBuilder& d) {
  for (const char* key : {"pr", "cc", "svdpp", "km", "po"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    for (const char* pol : {"lru", "lrc", "mrd", "belady"}) {
      d.single(p, mrd::main_cluster(), 0.5, policy(pol));
    }
  }
  d.row("svdpp");
  const std::size_t svdpp = d.plan(workload("svdpp"));
  d.single(svdpp, mrd::main_cluster(), 0.5, policy("lru"));
  for (const double threshold : {0.0, 0.10, 0.25, 0.50, 0.90}) {
    PolicyConfig mrd_policy = policy("mrd");
    mrd_policy.prefetch_threshold = threshold;
    d.single(svdpp, mrd::main_cluster(), 0.5, mrd_policy);
  }
  for (const char* key : {"pr", "svdpp", "po"}) {
    d.row(key);
    const std::size_t p = d.plan(workload(key));
    for (const char* pol : {"lru", "mrd", "mrd-guarded"}) {
      d.single(p, mrd::main_cluster(), 0.4, policy(pol));
    }
  }
}

}  // namespace

std::size_t ReproSpec::points() const {
  std::size_t n = 0;
  for (const ReproSubmission& sub : submissions) n += sub.points();
  return n;
}

ReproSpec repro_spec(const Inputs& inputs) {
  ReproSpec spec;
  // The drivers keep the suite's order; the seed reorders rows within each.
  // Reordering whole drivers moves fig10's long tripled-iteration runs to
  // the end of the queue or not, which alone swings the pass wall by ~15%.
  for (const std::string name :
       {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "ablation", "jct_validation"}) {
    DriverBuilder d(&spec, inputs, name);
    if (name == "fig4") fig4(d);
    if (name == "fig5") fig5(d);
    if (name == "fig6") fig6(d);
    if (name == "fig7") fig7(d);
    if (name == "fig8") fig8(d);
    if (name == "fig9") fig9(d, &spec);
    if (name == "fig10") fig10(d);
    if (name == "fig11" || name == "fig12" || name == "jct_validation") {
      lru_vs_mrd(d);
    }
    if (name == "ablation") ablation(d);
    for (ReproSubmission& sub : d.finish()) {
      spec.submissions.push_back(std::move(sub));
    }
  }
  return spec;
}

std::vector<ReproPoint> expand(const ReproSubmission& sub) {
  std::vector<ReproPoint> points;
  const auto point = [&sub](double f, const PolicyConfig& pol, int store) {
    return ReproPoint{sub.plan, &sub.cluster, f, pol, store, sub.visibility,
                      sub.deferred};
  };
  if (!sub.best) {
    points.push_back(point(sub.fractions[0], sub.candidate, sub.store));
    return points;
  }
  for (const double f : sub.fractions) {
    points.push_back(point(f, sub.baseline, -1));
    points.push_back(point(f, sub.candidate, sub.store));
  }
  return points;
}

std::string point_key(const ReproSpec& spec, const ReproPoint& point) {
  const ReproPlan& plan = spec.plans[point.plan];
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s|s%.17g|i%u|p%u|%s|f%.17g|%s|m%d|t%.17g|w%zu|v%d|st%d",
      plan.spec->key.c_str(), plan.params.scale, plan.params.iterations,
      plan.params.partitions, point.cluster->name.c_str(), point.fraction,
      point.policy.name.c_str(), static_cast<int>(point.policy.metric),
      point.policy.prefetch_threshold, point.policy.memtune_window,
      static_cast<int>(point.visibility), point.store);
  return buf;
}

const std::vector<std::pair<std::string, double>>& paper_fig4_bars() {
  static const std::vector<std::pair<std::string, double>> kBars = {
      {"km", 0.45},  {"linr", 0.55}, {"logr", 0.45},  {"svm", 0.60},
      {"dt", 0.95},  {"mf", 0.60},   {"pr", 0.40},    {"tc", 0.75},
      {"sp", 0.70},  {"lp", 0.30},   {"svdpp", 0.45}, {"cc", 0.55},
      {"scc", 0.20}, {"po", 0.40},
  };
  return kBars;
}

namespace {

std::vector<double> ranks_of(const std::vector<double>& xs) {
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&xs](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(xs.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

}  // namespace

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = ranks_of(a);
  const std::vector<double> rb = ranks_of(b);
  const double ma = mean_of(ra), mb = mean_of(rb);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  const double denom = std::sqrt(va * vb);
  return denom == 0.0 ? 0.0 : cov / denom;
}

// ---------------------------------------------------------------------------
// graph_runs and scale_tier
// ---------------------------------------------------------------------------

namespace {

RunScenario scenario(std::string name, const std::string& pol,
                     std::shared_ptr<const mrd::WorkloadRun> run,
                     ClusterConfig cluster, double fraction) {
  cluster.cache_bytes_per_node =
      mrd::cache_bytes_per_node_for(*run, cluster, fraction);
  RunScenario s;
  s.name = std::move(name);
  s.policy = pol;
  s.run = std::move(run);
  s.config.cluster = cluster;
  s.config.policy = policy(pol);
  s.config.node_jobs = kSingleRunNodeJobs;
  s.config.exec_mode = mrd::ExecMode::kAuto;
  return s;
}

// The full tier of bench/scale_stress: a PageRank-shaped chain over a large
// persisted base plus a fleet of small persisted dimension RDDs.
constexpr std::uint64_t kTierBlockBytes = 64ull << 10;
constexpr std::uint64_t kTierRankBytes = 32ull << 10;
constexpr std::uint32_t kTierParts = 65536;
constexpr std::uint32_t kTierSmallRdds = 64;
constexpr std::uint32_t kTierSmallParts = 100;
constexpr std::uint32_t kTierIterations = 12;
constexpr std::uint32_t kTierNodes = 1000;
constexpr double kTierFraction = 0.4;

std::shared_ptr<const mrd::WorkloadRun> plan_tier(std::uint32_t iterations) {
  using mrd::RddId;
  mrd::DagBuilder b("scale-chain-full");
  b.set_compute_ms_per_mb(0.5);
  const RddId links = b.source("links", kTierParts, kTierBlockBytes);
  const RddId base = b.map(links, "base");
  b.persist(base);

  std::vector<RddId> dims;
  dims.reserve(kTierSmallRdds);
  for (std::uint32_t s = 0; s < kTierSmallRdds; ++s) {
    const RddId src = b.source("dim-src-" + std::to_string(s),
                               kTierSmallParts, kTierBlockBytes);
    const RddId dim = b.map(src, "dim-" + std::to_string(s));
    b.persist(dim);
    dims.push_back(dim);
  }

  mrd::TransformOpts rank_opts;
  rank_opts.bytes_per_partition = kTierRankBytes;
  RddId ranks = b.map(base, "ranks-0", rank_opts);
  b.persist(ranks);
  b.action(ranks, "init");

  for (std::uint32_t it = 1; it <= iterations; ++it) {
    mrd::TransformOpts join_opts;
    join_opts.partitions = kTierParts;
    const RddId contrib =
        b.join(ranks, base, "contrib-" + std::to_string(it), join_opts);
    const RddId next =
        b.map(contrib, "ranks-" + std::to_string(it), rank_opts);
    b.persist(next);
    b.action(next, "iterate-" + std::to_string(it));

    const RddId mix = b.union_of(dims, "dim-mix-" + std::to_string(it));
    const RddId scored = b.filter(mix, "dim-score-" + std::to_string(it));
    b.action(scored, "score-" + std::to_string(it));
    ranks = next;
  }

  auto app = std::make_shared<mrd::Application>(std::move(b).build());
  auto run = std::make_shared<mrd::WorkloadRun>(mrd::WorkloadRun{
      app, mrd::DagScheduler::plan(app), "scale-chain-full", "full"});
  return run;
}

}  // namespace

std::vector<RunScenario> graph_runs(const Inputs& inputs, Ledger* ledger) {
  std::vector<RunScenario> out;
  for (const char* key : {"scc", "lp", "pr"}) {
    const WorkloadSpec& w = workload(key);
    const auto run = plan_traced(w, inputs.params(w, 8.0, false), ledger);
    for (const char* pol : {"lru", "mrd"}) {
      out.push_back(scenario(std::string(key) + "/" + pol, pol, run,
                             mrd::main_cluster(), inputs.fraction(0.5)));
    }
  }
  inputs.shuffle(&out, "graph_runs");
  return out;
}

std::vector<RunScenario> scale_tier(const Inputs& inputs, Ledger* ledger) {
  const Clock::time_point start = Clock::now();
  const std::uint32_t iterations =
      inputs.iterations("iterations:scale-tier", kTierIterations);
  const auto run = plan_tier(iterations);
  if (ledger != nullptr && ledger->enabled()) {
    ledger->record(Span{"plan scale-tier", "dag", start, Clock::now(),
                        ledger->next_id(), 0,
                        "\"iterations\": " + std::to_string(iterations)});
  }
  ClusterConfig cluster = mrd::main_cluster();
  cluster.name = "scale-" + std::to_string(kTierNodes);
  cluster.num_nodes = kTierNodes;
  cluster.placement = mrd::BlockPlacement::kRddMixed;
  std::vector<RunScenario> out;
  for (const char* pol : {"mrd", "lru"}) {
    out.push_back(scenario(std::string("tier/") + pol, pol, run, cluster,
                           inputs.fraction(kTierFraction)));
  }
  inputs.shuffle(&out, "scale_tier");
  return out;
}

}  // namespace perfbench
