// The system under test for one benchmark iteration, and the seeded inputs
// every iteration of a run replays.
//
// One iteration builds the whole stack afresh (the set-up the benchmark
// reports as setup_s): a Chronus environment whose benchmark sweep trains and
// pre-loads a random-tree model, a ClusterSim with an EnergyLedger and
// job_submit_eco loaded, a SubmitIngress, a one-shard subd server on
// loopback, and the client connections. The workload then runs end to end
// through that stack, and Verify() checks what it produced.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chronus/env.hpp"
#include "common/error.hpp"
#include "slurm/cluster.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/ingress.hpp"
#include "slurm/job.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/subd.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kEcoMix, kBacklogDrain, kSubmitStorm };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Everything a run derives from --seed. Requests are in stream order: the
// i-th request travels with wire sequence number i.
struct Inputs {
  Workload workload = Workload::kEcoMix;
  int nodes = 0;
  std::vector<eco::slurm::JobRequest> requests;
  // eco_mix: arrival window k holds requests [window_first[k],
  // window_first[k + 1]) and ends at sim time window_end[k]; the window's
  // submits enter the cluster at window_end[k].
  std::vector<std::size_t> window_first;
  std::vector<double> window_end;
  // Requests whose comment opts into job_submit_eco.
  std::uint64_t opted_in = 0;
  // submit_storm: the open-loop send rate, and the submits the per-user
  // token buckets must refuse (exact: the admission clock is constant).
  double storm_rate_per_s = 0.0;
  std::uint64_t expected_rejects = 0;
};

Inputs MakeInputs(Workload workload, std::uint64_t seed);

// Program counters and benchmark-side observations of one iteration.
struct IterResult {
  std::vector<std::string> errors;  // failed correctness checks
  double setup_s = 0.0;
  double wall_s = 0.0;  // first client send -> last job finalized, flushed
  std::uint64_t attempted = 0;  // submits sent
  std::uint64_t wire_ok = 0;    // acknowledged as admitted by the ingress
  std::uint64_t refused = 0;    // ingress admission rejects
  std::uint64_t transport_errors = 0;
  std::uint64_t admitted = 0;         // accepted by ClusterSim::SubmitBatch
  std::uint64_t cluster_rejects = 0;  // refused by ClusterSim::SubmitBatch
  std::uint64_t completed = 0;
  std::uint64_t not_completed = 0;  // admitted jobs not ending kCompleted
  std::uint64_t plugin_errors = 0;
  std::uint64_t events = 0;  // sim events executed by RunUntil
  // Client-side submit acknowledgement latency; submit_storm times it from
  // each frame's due time.
  std::vector<double> ack_us;
  // submit_storm: acknowledgement latency from the actual send, generator
  // lateness, and the part of that lateness the previous send does not
  // explain (the generator's own stalls).
  std::vector<double> ack_from_send_us;
  std::vector<double> late_us;
  std::vector<double> stall_us;
  // submit_storm: union of [due, acknowledged] over the frames, the time
  // the front door had a frame in hand.
  double front_door_busy_s = 0.0;
  double sim_kj_per_job = 0.0;
  double sim_wait_mean_s = 0.0;
  std::uint64_t schedule_digest = 0;
  std::uint64_t ledger_digest = 0;
  std::map<std::string, double> layer;  // per-layer metrics
};

// Node energy as the benchmark's own taps see it.
struct NodeTaps {
  std::vector<double> joules;
  std::uint64_t accruals = 0;
};

class Stack {
 public:
  // `log` non-null wraps the plugin entry and the gateway callables in spans
  // recorded into it (the traced run); null loads them unwrapped.
  static eco::Result<std::unique_ptr<Stack>> Build(const Inputs& inputs,
                                                   const std::string& workdir,
                                                   int connections,
                                                   SpanLog* log);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  eco::slurm::ClusterSim& cluster() { return *cluster_; }
  eco::slurm::SubmitIngress& ingress() { return *ingress_; }
  eco::slurm::EnergyLedger& ledger() { return ledger_; }
  const NodeTaps& taps() const { return taps_; }
  std::vector<eco::slurm::rpc::SubmitClient>& clients() { return clients_; }
  std::uint16_t port() const { return server_->port(); }
  // Stops the subd server (joins its threads).
  void StopServer() { server_->Stop(); }

 private:
  Stack() = default;

  // Declaration order is teardown order in reverse: the server stops before
  // the ingress it feeds goes away, and the ledger and taps outlive the
  // cluster whose nodes call into them.
  eco::chronus::ChronusEnv env_;
  eco::slurm::EnergyLedger ledger_;
  NodeTaps taps_;
  std::unique_ptr<eco::slurm::ClusterSim> cluster_;
  std::unique_ptr<eco::slurm::SubmitIngress> ingress_;
  std::unique_ptr<eco::slurm::rpc::SubdServer> server_;
  std::vector<eco::slurm::rpc::SubmitClient> clients_;
};

// Thread placement, the same in every run. The calling thread, and every
// thread it starts later (the subd server's, the storm receiver), share one
// core (the second allowed one when there are three or more): client and
// server hand each frame over on one core, so an acknowledgement never
// waits for another core to wake. The submit_storm generator stands for
// remote clients and gets the last core to itself. Call before any other
// thread exists; with fewer than two cores nothing is pinned.
void PlaceThreads();
int GeneratorCpu();  // -1: the generator is not pinned
void PinThisThread(int cpu);  // no-op for -1

// Runs the workload through the stack; fills wall time, latencies, counts.
// Spans go to `main_log` when it is enabled, and to worker threads' logs,
// which are appended to `worker_logs`.
void RunWorkload(const Inputs& inputs, Stack& stack, SpanLog& main_log,
                 IterResult* result,
                 std::vector<std::unique_ptr<SpanLog>>* worker_logs);

// submit_storm: single-connection closed-loop capacity, in frames/s, from
// the generator's core: sends every request as a 1-job frame and waits for
// each reply; the median rate over chunks of 1000 frames. 0 when a frame
// fails.
double ProbeClosedLoop(const Inputs& inputs, Stack& stack);

// Correctness checks, simulated outcome and digests (untimed).
void Verify(const Inputs& inputs, Stack& stack, IterResult* result);

// Per-layer metrics from the program's counters and the spans of a traced
// iteration (logs.front() is the main thread's).
void CollectLayers(Stack& stack, const std::vector<const SpanLog*>& logs,
                   IterResult* result);

}  // namespace perfbench
