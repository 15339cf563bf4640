// Shared harness for the paper-reproduction benches: a standard simulated
// deployment, sweep runners, the paper's published numbers (Tables 1-6) for
// side-by-side comparison, and rank-correlation fidelity metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chronus/domain.hpp"
#include "chronus/env.hpp"
#include "common/json.hpp"

namespace eco::bench {

// Machine-readable bench artifact: each bench collects its headline numbers
// here and Write() drops a BENCH_<name>.json next to the binary (or into
// $ECO_BENCH_ARTIFACT_DIR when set), so CI can archive the perf trajectory
// across PRs instead of scraping stdout tables.
class BenchReport {
 public:
  explicit BenchReport(std::string name);
  // ~BenchReport() does NOT write; call Write() once the numbers are final.

  void Set(const std::string& key, double value);
  void Set(const std::string& key, std::uint64_t value);
  void Set(const std::string& key, const std::string& value);
  void SetJson(const std::string& key, Json value);

  // The artifact body: {"bench": <name>, "metrics": {...}}.
  [[nodiscard]] Json ToJson() const;
  // Returns the path written, or "" on failure (failure only logs — a bench
  // must not fail its gates because a disk write did).
  std::string Write() const;

 private:
  std::string name_;
  JsonObject metrics_;
};

// Fair-share factor evaluations a scheduler drain may make (DESIGN.md
// "Scheduler complexity"): two per examined candidate and per planning
// pass, one per usage charge, one per distinct user. It grows with the
// work a drain does, not with users × passes, which is what a scheduler
// that evaluates every queued user's factor each pass would spend.
inline std::uint64_t FairShareEvalBudget(std::uint64_t candidates,
                                         std::uint64_t passes,
                                         std::uint64_t charges,
                                         std::uint64_t users) {
  return 2 * (candidates + passes) + charges + users;
}

// The paper's measurement grid: 23 core counts × {1.5, 2.2, 2.5} GHz ×
// HT on/off = 138 configurations (Tables 4-6).
const std::vector<int>& PaperCoreCounts();
std::vector<chronus::Configuration> PaperSweepConfigurations();

// One row of the paper's Tables 4-6.
struct PaperGpwRow {
  int cores;
  double ghz;
  double gflops_per_watt;
  bool ht;
};
// All 138 published rows.
const std::vector<PaperGpwRow>& PaperGpwTable();
// Lookup (0.0 if the paper has no such row).
double PaperGpw(int cores, double ghz, bool ht);

// Paper Table 2 (best vs standard run statistics).
struct PaperRunStats {
  double avg_sys_w;
  double avg_cpu_w;
  double sys_kj;
  double cpu_kj;
  double avg_temp_c;
  double runtime_s;
};
PaperRunStats PaperStandardRun();  // 32 c @ 2.5 GHz, no HT
PaperRunStats PaperBestRun();      // 32 c @ 2.2 GHz, no HT

// A full-length (paper-scale, ~18.5 min reference runtime) environment on
// the EPYC 7502P profile, in-memory repository.
chronus::ChronusEnv MakePaperEnv();

// Runs the given configurations through the Chronus benchmark service on a
// fresh paper env and returns the records (sorted by GFLOPS/W descending
// when `sort_by_gpw`).
std::vector<chronus::BenchmarkRecord> RunSweep(
    const std::vector<chronus::Configuration>& configs,
    bool sort_by_gpw = true);

// Spearman rank correlation between two equal-length vectors (fidelity
// metric: does the reproduction rank configurations like the paper?).
double SpearmanRank(const std::vector<double>& a, const std::vector<double>& b);

// Pretty printers.
std::string Ghz(KiloHertz f);

}  // namespace eco::bench
