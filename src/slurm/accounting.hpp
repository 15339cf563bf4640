// Accounting database — the slurmdbd stand-in. Finished jobs land here with
// their energy/temperature statistics; benches and the Chronus benchmark
// service query it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

struct AccountingTotals {
  std::size_t jobs = 0;
  double cpu_seconds = 0.0;     // sum tasks × runtime
  double system_joules = 0.0;
  double cpu_joules = 0.0;
  // Ledger-attributed joules (0 without an EnergyLedger); excludes idle.
  double attributed_joules = 0.0;
  double wait_seconds = 0.0;    // summed queue wait
  double makespan_seconds = 0.0;  // last end − first submit
};

class AccountingDb {
 public:
  void Record(const JobRecord& job);

  [[nodiscard]] const std::deque<JobRecord>& records() const { return records_; }
  [[nodiscard]] std::optional<JobRecord> Find(JobId id) const;
  [[nodiscard]] std::vector<JobRecord> ByUser(std::uint32_t user_id) const;
  [[nodiscard]] std::vector<JobRecord> ByState(JobState state) const;
  [[nodiscard]] AccountingTotals Totals() const;

  // sacct-style CSV dump.
  Status ExportCsv(const std::string& path) const;

 private:
  // A deque, not a vector: records are ~750 B and a run appends thousands,
  // so a vector's doubling would copy every record and hold a dead half in
  // a multi-MB buffer at its peak. Deque blocks grow without copying.
  std::deque<JobRecord> records_;
};

}  // namespace eco::slurm
