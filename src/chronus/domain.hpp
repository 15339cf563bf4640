// Chronus domain model (the innermost Clean Architecture ring, §4.1).
//
// These are plain value types: a benchmarkable Configuration, the identity
// of a System, one Benchmark measurement, and model metadata. They know
// nothing about storage, Slurm, or ML — the integration interfaces
// (interfaces.hpp) move them across the boundary.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"

namespace eco::chronus {

// One point of the search space: §3.3's JSON configuration
// {"cores": 32, "threads_per_core": 2, "frequency": 2200000}.
struct Configuration {
  int cores = 1;
  int threads_per_core = 1;
  KiloHertz frequency = 0;

  [[nodiscard]] Json ToJson() const;
  static Result<Configuration> FromJson(const Json& json);
  // What FromJson accepts: at least one core and thread, nonzero frequency.
  [[nodiscard]] bool valid() const {
    return cores >= 1 && threads_per_core >= 1 && frequency != 0;
  }

  [[nodiscard]] bool operator==(const Configuration& other) const {
    return cores == other.cores && threads_per_core == other.threads_per_core &&
           frequency == other.frequency;
  }
  [[nodiscard]] std::string ToString() const;
};

// Parses the `--configurations` file format: a JSON array of configurations.
Result<std::vector<Configuration>> ParseConfigurationsFile(
    const std::string& json_text);

struct SystemRecord {
  int id = -1;  // repository-assigned
  std::string cpu_name;
  int cores = 0;
  int threads_per_core = 0;
  std::vector<KiloHertz> frequencies;
  std::uint64_t ram_bytes = 0;
  std::string system_hash;  // simple_hash of cpuinfo+meminfo, §4.2.1

  // All runnable configurations on this system: cores 1..N ×
  // available frequencies × threads-per-core 1..T. This is the default
  // benchmark sweep ("If no configurations are given, it will benchmark all
  // configurations based on the system CPU", §3.1.2).
  [[nodiscard]] std::vector<Configuration> AllConfigurations() const;
};

struct BenchmarkRecord {
  int id = -1;
  int system_id = -1;
  std::string application;  // "hpcg"
  std::string binary_hash;
  Configuration config;
  double gflops = 0.0;
  double duration_s = 0.0;
  double system_kilojoules = 0.0;
  double cpu_kilojoules = 0.0;
  double avg_system_watts = 0.0;
  double avg_cpu_watts = 0.0;
  double avg_cpu_temp = 0.0;

  [[nodiscard]] double GflopsPerWatt() const {
    return avg_system_watts > 0.0 ? gflops / avg_system_watts : 0.0;
  }
};

struct ModelMeta {
  int id = -1;
  int system_id = -1;
  std::string type;         // "brute-force" | "linear-regression" | "random-tree"
  std::string application;
  std::string binary_hash;
  std::string blob_path;    // where the serialized model lives in blob storage
  double created_at = 0.0;  // sim/unix timestamp
};

}  // namespace eco::chronus
