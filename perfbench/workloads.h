// The benchmark's three workloads and the seeded inputs they are built from.
//
//   repro_sweep  every point the paper-reproduction drivers submit (fig4 ..
//                fig12, the ablation and jct_validation), with their own
//                duplication, through one SweepRunner.
//   graph_runs   the six core-simulator scenarios (scc, lp, pr under lru and
//                mrd at scale 8, cache fraction 0.5) run back to back through
//                run_plan on pooled contexts.
//   scale_tier   the full synthetic scale tier (~9.2e5 persisted blocks) at
//                1000 nodes with rdd-mixed placement, mrd and lru.
//
// Seed 0 reproduces those inputs exactly. Any other seed perturbs, within the
// ranges below (mirrored in rationale.json): submission order, the cache
// fraction grid and iteration counts everywhere, and on repro_sweep also the
// input scale, from which the graph workloads derive their partition counts.
// The single-run workloads keep their partition counts: a 1-2% change there
// moves scc/lru's run time by ~20% (a different node-group layout), which
// would swamp any bound. The library only ever sees the resulting plans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_config.h"
#include "exec/application_runner.h"
#include "harness/experiment.h"
#include "workloads/workloads.h"

namespace perfbench {

class Ledger;

inline constexpr std::uint64_t kDefaultSeed = 0;
/// Each cache fraction moves by up to this much (absolute), capped at 1.
inline constexpr double kFractionJitter = 0.01;
/// repro_sweep's input scale is multiplied by 1 +- this; the graph
/// workloads size their partition counts from it.
inline constexpr double kScaleJitter = 0.02;
/// Iterative workloads with at least kMinJitteredIterations iterations run
/// default -1, +0 or +1 iterations.
inline constexpr std::uint32_t kMinJitteredIterations = 15;

/// Deterministic, seed-derived perturbation of the benchmark inputs. Every
/// draw is a pure function of (seed, stream name, salt), so the same seed
/// gives the same inputs in every process.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : seed_(seed) {}

  bool canonical() const { return seed_ == kDefaultSeed; }

  /// Parameters of `spec` at `scale` (moved by kScaleJitter when
  /// `jitter_scale`), iterations multiplied by `iteration_factor` (fig10
  /// triples them).
  mrd::WorkloadParams params(const mrd::WorkloadSpec& spec, double scale,
                             bool jitter_scale,
                             std::uint32_t iteration_factor = 1) const;
  double fraction(double f) const;
  std::vector<double> fractions(const std::vector<double>& grid) const;
  /// `base` moved by -1, 0 or +1 when it is at least kMinJitteredIterations.
  std::uint32_t iterations(std::string_view stream, std::uint32_t base) const;

  /// Seeded Fisher-Yates shuffle (identity at the default seed).
  template <typename T>
  void shuffle(std::vector<T>* items, std::string_view stream) const {
    if (canonical()) return;
    for (std::size_t i = items->size(); i > 1; --i) {
      const std::size_t j = draw(stream, i) % i;
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  std::uint64_t draw(std::string_view stream, std::uint64_t salt) const;
  /// Uniform in [-1, 1).
  double symmetric(std::string_view stream, std::uint64_t salt) const;

  std::uint64_t seed_;
};

/// Plans `spec` under `params`, recording a `dag.plan` span.
std::shared_ptr<const mrd::WorkloadRun> plan_traced(
    const mrd::WorkloadSpec& spec, const mrd::WorkloadParams& params,
    Ledger* ledger);

// ---------------------------------------------------------------------------
// repro_sweep
// ---------------------------------------------------------------------------

struct ReproPlan {
  const mrd::WorkloadSpec* spec = nullptr;
  mrd::WorkloadParams params;
};

/// One submit / submit_best call of a reproduction driver.
struct ReproSubmission {
  std::string driver;  // "fig4", "ablation", ...
  std::string row;     // the driver's row (workload key)
  std::size_t plan = 0;  // index into ReproSpec::plans
  mrd::ClusterConfig cluster;
  bool best = false;  // submit_best over `fractions`; else submit(fractions[0])
  std::vector<double> fractions;
  mrd::PolicyConfig baseline;  // best only
  mrd::PolicyConfig candidate;
  mrd::DagVisibility visibility = mrd::DagVisibility::kRecurring;
  /// ProfileStore slot the candidate records into / reads from (fig9), or -1.
  int store = -1;
  /// fig9's recurring phase: submitted once that driver's ad-hoc results are
  /// in, because it reads the profiles those runs stored.
  bool deferred = false;

  std::size_t points() const { return best ? 2 * fractions.size() : 1; }
};

/// One simulation run of the sweep.
struct ReproPoint {
  std::size_t plan = 0;
  const mrd::ClusterConfig* cluster = nullptr;
  double fraction = 0.0;
  mrd::PolicyConfig policy;  // profile_store unset; see `store`
  int store = -1;
  mrd::DagVisibility visibility = mrd::DagVisibility::kRecurring;
  bool deferred = false;
};

struct ReproSpec {
  /// One entry per planning call of the drivers (duplicates kept: every
  /// driver plans its own workloads).
  std::vector<ReproPlan> plans;
  /// Every submission, in seeded submission order.
  std::vector<ReproSubmission> submissions;
  std::size_t stores = 0;

  std::size_t points() const;
};

ReproSpec repro_spec(const Inputs& inputs);

/// The points of one submission, in the order SweepRunner::submit_best
/// queues them (baseline then candidate, per fraction).
std::vector<ReproPoint> expand(const ReproSubmission& sub);

/// Structural identity of a point: equal keys are the same simulation (the
/// planned workload, cluster, fraction, policy configuration, visibility and
/// profile-store slot).
std::string point_key(const ReproSpec& spec, const ReproPoint& point);

/// Paper Fig 4 bars (full MRD, normalized JCT vs LRU) in Table 3 order, the
/// reference bench/jct_validation scores against.
const std::vector<std::pair<std::string, double>>& paper_fig4_bars();

/// Spearman rank correlation (average ranks for ties).
double spearman(const std::vector<double>& a, const std::vector<double>& b);

// ---------------------------------------------------------------------------
// graph_runs and scale_tier: single runs through run_plan
// ---------------------------------------------------------------------------

/// Intra-run node workers of the single-run workloads.
inline constexpr std::size_t kSingleRunNodeJobs = 4;

struct RunScenario {
  std::string name;    // "scc/mrd"
  std::string policy;  // "mrd" or "lru"
  std::shared_ptr<const mrd::WorkloadRun> run;
  /// Everything but the context and the opt-in sinks.
  mrd::RunConfig config;
};

/// Plans the six graph scenarios (seeded order).
std::vector<RunScenario> graph_runs(const Inputs& inputs, Ledger* ledger);

/// Plans the 1000-node scale tier: mrd then lru (seeded order).
std::vector<RunScenario> scale_tier(const Inputs& inputs, Ledger* ledger);

}  // namespace perfbench
