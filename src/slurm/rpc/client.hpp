// SubmitClient — the library side of the subd wire protocol.
//
// A thin blocking client: one TCP connection, explicit pipelining. The
// caller decides how many kSubmitBatch frames are in flight (SendBatch is
// fire-and-forget; ReadReply blocks for the oldest outstanding reply), so
// a storm driver can hold N batches open per connection while a simple
// tool sends one and waits. Replies arrive in frame order — the protocol
// has no request ids because TCP ordering plus the server's in-order
// reply batching already provide them.
//
// Threading: one thread may SendBatch while one other thread calls
// ReadReply (a storm client's generator and receiver). Everything else —
// Connect, Disconnect, Ping, SubmitAndWait, moves, destruction — needs the
// client to itself. A failed read shuts the connection down in both
// directions, so a concurrent SendBatch fails too, but leaves the
// descriptor open until Disconnect() or the destructor closes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "slurm/job.hpp"
#include "slurm/rpc/wire.hpp"

namespace eco::slurm::rpc {

class SubmitClient {
 public:
  SubmitClient() = default;
  ~SubmitClient();
  SubmitClient(const SubmitClient&) = delete;
  SubmitClient& operator=(const SubmitClient&) = delete;
  SubmitClient(SubmitClient&& other) noexcept;
  SubmitClient& operator=(SubmitClient&& other) noexcept;

  Status Connect(const std::string& address, std::uint16_t port);
  void Disconnect();
  // True from a successful Connect() until Disconnect(), including after a
  // failed read has shut the connection down.
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  // Encodes requests[i] with seq = base_seq + i (base_seq == kAutoSeqWire:
  // ingress-stamped arrival order) into one kSubmitBatch frame and writes
  // it out. Does not wait for the reply — callers pipeline by sending
  // several batches before the first ReadReply().
  Status SendBatch(const JobRequest* requests, std::size_t count,
                   std::uint64_t base_seq = kAutoSeqWire);
  Status SendBatch(const std::vector<JobRequest>& requests,
                   std::uint64_t base_seq = kAutoSeqWire) {
    return SendBatch(requests.data(), requests.size(), base_seq);
  }

  // Blocks for the next kSubmitReply frame (one per SendBatch, in send
  // order) and fills `entries` with the admission verdicts.
  Status ReadReply(std::vector<SubmitReplyEntry>* entries);

  // Convenience: SendBatch + ReadReply.
  Status SubmitAndWait(const std::vector<JobRequest>& requests,
                       std::vector<SubmitReplyEntry>* entries,
                       std::uint64_t base_seq = kAutoSeqWire) {
    const Status sent = SendBatch(requests, base_seq);
    if (!sent.ok()) return sent;
    return ReadReply(entries);
  }

  // Round-trip liveness probe: kPing -> kPong with a token echo check.
  Status Ping(std::uint64_t token);

 private:
  // Blocks until a complete frame of `want` type is buffered; fills *frame
  // (viewing in_) and consumes it from the stream on the NEXT call.
  Status ReadFrame(FrameType want, FrameView* frame);
  // Failure path of ReadFrame: shuts the socket down without closing it.
  void ShutdownOnError();

  int fd_ = -1;
  std::vector<char> in_;
  std::size_t in_start_ = 0;
  std::vector<char> encode_buf_;
};

}  // namespace eco::slurm::rpc
