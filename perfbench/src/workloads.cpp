// The three workloads, each run end to end through one Stack:
//
//   client -> subd -> SubmitIngress -> ClusterSim::SubmitBatch (plugin, then
//   the indexed scheduler) -> NodeSim ticks -> finalize, ledger, accounting.
//
// Every call into a layer's public function sits inside a span (recorded
// only in the traced run), so the trace tiles the main thread's wall time.
#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "harness.hpp"
#include "slurm/rpc/wire.hpp"

namespace perfbench {

namespace {

namespace slurm = eco::slurm;
namespace rpc = eco::slurm::rpc;
using eco::telemetry::Counter;

// backlog_drain sends bulk frames with this many jobs, keeping this many
// frames in flight per connection.
constexpr std::size_t kBacklogBatch = 32;
constexpr std::size_t kBacklogDepth = 4;

// A frame sent and not yet acknowledged.
struct InFlight {
  std::size_t conn = 0;
  std::int64_t sent_ns = 0;
  std::size_t count = 0;
};

class Pipeline {
 public:
  Pipeline(Stack& stack, SpanLog* log, IterResult* result)
      : stack_(stack),
        log_(log),
        result_(result),
        dispatch_ns_(stack.cluster().metrics().FindCounter(
            "eco_sched_dispatch_ns_total")) {}

  void Send(std::size_t conn, const slurm::JobRequest* requests,
            std::size_t count, std::uint64_t base_seq) {
    auto& client = stack_.clients()[conn];
    const std::int64_t sent = NowNs();
    eco::Status status;
    {
      ScopedSpan span(log_, "rpc.SendBatch");
      status = client.SendBatch(requests, count, base_seq);
    }
    result_->attempted += count;
    if (!status.ok()) {
      result_->transport_errors += count;
      return;
    }
    in_flight_.push_back({conn, sent, count});
  }

  // Reads the reply to the oldest frame in flight.
  void Absorb() {
    const InFlight frame = in_flight_.front();
    in_flight_.pop_front();
    eco::Status status;
    {
      ScopedSpan span(log_, "rpc.ReadReply");
      status = stack_.clients()[frame.conn].ReadReply(&replies_);
    }
    const std::int64_t acked = NowNs();
    if (!status.ok() || replies_.size() != frame.count) {
      result_->transport_errors += frame.count;
      return;
    }
    result_->ack_us.push_back(static_cast<double>(acked - frame.sent_ns) *
                              1e-3);
    for (const auto& reply : replies_) {
      if (reply.ok()) {
        ++result_->wire_ok;
      } else {
        ++result_->refused;
      }
    }
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }
  void AbsorbAll() {
    while (!in_flight_.empty()) Absorb();
  }

  // SubmitIngress::Drain, then one coalesced ClusterSim::SubmitBatch.
  void DrainAndSubmit() {
    std::vector<slurm::JobRequest> batch;
    {
      ScopedSpan span(log_, "ingress.Drain");
      auto pending = stack_.ingress().Drain();
      batch.reserve(pending.size());
      for (auto& entry : pending) batch.push_back(std::move(entry.request));
    }
    if (batch.empty()) return;
    std::vector<eco::Result<slurm::JobId>> results;
    {
      ScopedSpan span(log_, "sched.SubmitBatch");
      const std::uint64_t before = DispatchNs();
      results = stack_.cluster().SubmitBatch(std::move(batch));
      span.set_inner_ns(static_cast<std::int64_t>(DispatchNs() - before));
    }
    for (const auto& result : results) {
      if (result.ok()) {
        ++result_->admitted;
      } else {
        ++result_->cluster_rejects;
      }
    }
  }

  // Advances the sim to `horizon`, or until idle when horizon < 0.
  void Advance(double horizon) {
    ScopedSpan span(log_, "node.RunUntil");
    const std::uint64_t before = DispatchNs();
    auto& queue = stack_.cluster().queue();
    result_->events += horizon < 0.0 ? queue.RunAll() : queue.RunUntil(horizon);
    span.set_inner_ns(static_cast<std::int64_t>(DispatchNs() - before));
  }

  void FlushIdle() {
    ScopedSpan span(log_, "ledger.FlushIdleEnergy");
    stack_.cluster().FlushIdleEnergy();
  }

 private:
  // Dispatch time nested in a span, from the scheduler's own counter; read
  // only when spans are recorded.
  std::uint64_t DispatchNs() const {
    return log_ != nullptr ? dispatch_ns_->Value() : 0;
  }

  Stack& stack_;
  SpanLog* log_;
  IterResult* result_;
  const Counter* dispatch_ns_;
  std::deque<InFlight> in_flight_;
  std::vector<rpc::SubmitReplyEntry> replies_;
};

// eco_mix: each arrival window's jobs go out as sbatch-like 1-job frames,
// each acknowledged before the next is sent, and the sim then advances to
// the window's end, where they enter the cluster. The simulated outcome
// depends only on the seed.
void RunEcoMix(const Inputs& in, Stack& stack, SpanLog* log, IterResult* r) {
  Pipeline pipe(stack, log, r);
  const std::size_t conns = stack.clients().size();
  r->ack_us.reserve(in.requests.size());
  const std::int64_t t0 = NowNs();
  for (std::size_t w = 0; w + 1 < in.window_first.size(); ++w) {
    for (std::size_t i = in.window_first[w]; i < in.window_first[w + 1]; ++i) {
      pipe.Send(i % conns, &in.requests[i], 1, i);
      pipe.Absorb();
    }
    pipe.Advance(in.window_end[w]);
    pipe.DrainAndSubmit();
  }
  pipe.Advance(-1.0);
  pipe.FlushIdle();
  r->wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
}

// backlog_drain: the whole burst goes out in pipelined bulk frames, then
// enters the cluster at sim time 0 as one batch and drains to idle. A
// frame's acknowledgement time includes the frames sent behind it.
void RunBacklog(const Inputs& in, Stack& stack, SpanLog* log, IterResult* r) {
  Pipeline pipe(stack, log, r);
  const std::size_t conns = stack.clients().size();
  const std::size_t n = in.requests.size();
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < n; i += kBacklogBatch) {
    if (pipe.in_flight() >= kBacklogDepth * conns) pipe.Absorb();
    const std::size_t count = std::min(kBacklogBatch, n - i);
    pipe.Send((i / kBacklogBatch) % conns, &in.requests[i], count, i);
  }
  pipe.AbsorbAll();
  pipe.DrainAndSubmit();
  pipe.Advance(-1.0);
  pipe.FlushIdle();
  r->wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
}

// submit_storm: an open-loop generator sends 1-job frames at a fixed rate
// through the stack's one SubmitClient (it never waits for a reply) while a
// receiver thread reads the replies from the same client. SendBatch touches
// only the client's descriptor and encode buffer, ReadReply only its input
// buffer, so the two threads share it without a lock. Each acknowledgement
// is timed from the frame's due time, so a frame held back because the
// generator was blocked in a send, or stalled, carries that delay; the
// send-time figure and the generator's own lateness are kept beside it.
// The ingress closes after the storm and the admitted 1-tick jobs drain.
void RunStorm(const Inputs& in, Stack& stack, SpanLog* log, IterResult* r,
              std::vector<std::unique_ptr<SpanLog>>* worker_logs) {
  auto& client = stack.clients().front();
  const std::size_t n = in.requests.size();
  const double interval_ns = 1e9 / in.storm_rate_per_s;
  r->late_us.assign(n, 0.0);
  r->stall_us.assign(n, 0.0);
  r->ack_us.assign(n, 0.0);
  r->ack_from_send_us.assign(n, 0.0);
  // Written by the sender before each send, read by the receiver after the
  // reply; atomics because only the socket orders the two.
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::vector<std::int64_t> acked_ns(n, 0);
  auto& send_log = *worker_logs->emplace_back(
      std::make_unique<SpanLog>(1, log != nullptr));
  auto& recv_log = *worker_logs->emplace_back(
      std::make_unique<SpanLog>(2, log != nullptr));
  // The first thread to fail stops the server, which fails the other
  // thread's blocked send or read. A failed ReadReply has already
  // disconnected the client, so the sender stops at its next frame.
  std::atomic<bool> aborted{false};
  const auto abort = [&] {
    if (!aborted.exchange(true)) stack.StopServer();
  };

  Pipeline pipe(stack, log, r);
  std::size_t sent = 0;
  std::uint64_t acked = 0, ok = 0, refused = 0;
  const std::int64_t t_begin = NowNs();
  // First frame due shortly after both threads exist.
  const std::int64_t t0 = t_begin + 1'000'000;
  const auto due_ns = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  {
    ScopedSpan front_door(log, "rpc.front_door");
    send_log.SetCause(0, front_door.index());
    recv_log.SetCause(0, front_door.index());
    std::jthread sender([&] {
      PinThisThread(GeneratorCpu());
      std::int64_t prev_done = 0;
      for (std::size_t i = 0; i < n && !aborted.load(); ++i) {
        const std::int64_t when = due_ns(i);
        // Yielding while it waits keeps the generator from holding a core
        // the server or the receiver was woken onto (when it has no core
        // of its own).
        for (std::int64_t now = NowNs(); now < when; now = NowNs()) {
          if (when - now > 200'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(when - now - 100'000));
          } else {
            std::this_thread::yield();
          }
        }
        const std::int64_t now = NowNs();
        r->late_us[i] = static_cast<double>(now - when) * 1e-3;
        // Lateness the previous send does not explain.
        r->stall_us[i] =
            static_cast<double>(now - std::max(when, prev_done)) * 1e-3;
        sent_ns[i].store(now, std::memory_order_relaxed);
        eco::Status status;
        {
          ScopedSpan span(&send_log, "rpc.SendBatch");
          status = client.SendBatch(&in.requests[i], 1, i);
        }
        prev_done = NowNs();
        if (!status.ok()) {
          abort();
          break;
        }
        ++sent;
      }
    });
    std::jthread receiver([&] {
      std::vector<rpc::SubmitReplyEntry> entries;
      for (std::size_t i = 0; i < n; ++i) {
        eco::Status status;
        {
          ScopedSpan span(&recv_log, "rpc.ReadReply");
          status = client.ReadReply(&entries);
        }
        const std::int64_t now = NowNs();
        if (!status.ok() || entries.size() != 1 || entries[0].seq >= n) {
          abort();
          break;
        }
        const std::size_t seq = entries[0].seq;
        acked_ns[seq] = now;
        r->ack_us[acked] = static_cast<double>(now - due_ns(seq)) * 1e-3;
        r->ack_from_send_us[acked] =
            static_cast<double>(now -
                                sent_ns[seq].load(std::memory_order_relaxed)) *
            1e-3;
        ++acked;
        if (entries[0].ok()) {
          ++ok;
        } else {
          ++refused;
        }
      }
    });
    sender.join();
    receiver.join();
  }
  r->ack_us.resize(acked);
  r->ack_from_send_us.resize(acked);
  r->late_us.resize(sent);
  r->stall_us.resize(sent);
  r->attempted = n;
  r->wire_ok = ok;
  r->refused = refused;
  r->transport_errors = n - acked;
  // Front-door busy time: the union of [due, acknowledged] over the frames.
  // The rest of the storm is the generator's pacing.
  std::int64_t busy_ns = 0, open = 0, close = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (acked_ns[i] == 0) continue;
    const std::int64_t when = due_ns(i);
    if (when > close) {
      busy_ns += close - open;
      open = when;
    }
    close = std::max(close, acked_ns[i]);
  }
  busy_ns += close - open;
  r->front_door_busy_s = static_cast<double>(busy_ns) * 1e-9;

  stack.ingress().Close();
  pipe.DrainAndSubmit();
  pipe.Advance(-1.0);
  pipe.FlushIdle();
  r->wall_s = static_cast<double>(NowNs() - t_begin) * 1e-9;
}

}  // namespace

double ProbeClosedLoop(const Inputs& inputs, Stack& stack) {
  // Rates of consecutive chunks of frames; their median is robust to a
  // stall that hits one chunk.
  constexpr std::size_t kChunk = 1000;
  auto& client = stack.clients().front();
  std::vector<rpc::SubmitReplyEntry> entries;
  std::vector<double> rates;
  bool failed = false;
  std::jthread([&] {
    PinThisThread(GeneratorCpu());
    std::int64_t chunk_start = NowNs();
    for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
      if (!client.SendBatch(&inputs.requests[i], 1, i).ok() ||
          !client.ReadReply(&entries).ok()) {
        failed = true;
        return;
      }
      if ((i + 1) % kChunk == 0) {
        const std::int64_t now = NowNs();
        rates.push_back(static_cast<double>(kChunk) * 1e9 /
                        static_cast<double>(now - chunk_start));
        chunk_start = now;
      }
    }
  }).join();
  if (failed || rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

void RunWorkload(const Inputs& inputs, Stack& stack, SpanLog& main_log,
                 IterResult* result,
                 std::vector<std::unique_ptr<SpanLog>>* worker_logs) {
  SpanLog* log = main_log.enabled() ? &main_log : nullptr;
  switch (inputs.workload) {
    case Workload::kEcoMix:
      RunEcoMix(inputs, stack, log, result);
      break;
    case Workload::kBacklogDrain:
      RunBacklog(inputs, stack, log, result);
      break;
    case Workload::kSubmitStorm:
      RunStorm(inputs, stack, log, result, worker_logs);
      break;
  }
}

}  // namespace perfbench
