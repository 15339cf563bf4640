#include "slurm/rpc/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "slurm/rpc/socket_util.hpp"

namespace eco::slurm::rpc {

SubmitClient::~SubmitClient() { Disconnect(); }

SubmitClient::SubmitClient(SubmitClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      in_(std::move(other.in_)),
      in_start_(std::exchange(other.in_start_, 0)),
      encode_buf_(std::move(other.encode_buf_)) {}

SubmitClient& SubmitClient::operator=(SubmitClient&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = std::exchange(other.fd_, -1);
    in_ = std::move(other.in_);
    in_start_ = std::exchange(other.in_start_, 0);
    encode_buf_ = std::move(other.encode_buf_);
  }
  return *this;
}

Status SubmitClient::Connect(const std::string& address, std::uint16_t port) {
  Disconnect();
  auto fd = ConnectTo(address, port);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  SetNoDelay(fd_);
  return Status::Ok();
}

void SubmitClient::Disconnect() {
  CloseFd(fd_);
  fd_ = -1;
  in_.clear();
  in_start_ = 0;
}

void SubmitClient::ShutdownOnError() {
  // Not Disconnect(): a sender thread may be inside SendBatch on this
  // descriptor, and a closed number could be handed to another open. The
  // shutdown fails its send instead; the descriptor stays ours until
  // Disconnect() or the destructor.
  ::shutdown(fd_, SHUT_RDWR);
}

Status SubmitClient::SendBatch(const JobRequest* requests, std::size_t count,
                               std::uint64_t base_seq) {
  if (fd_ < 0) return Status::Error("submit client: not connected");
  encode_buf_.clear();
  AppendSubmitBatchFrame(encode_buf_, requests, count, base_seq);
  if (!SendAll(fd_, encode_buf_.data(), encode_buf_.size())) {
    return Status::Error("submit client: send failed");
  }
  return Status::Ok();
}

Status SubmitClient::ReadReply(std::vector<SubmitReplyEntry>* entries) {
  FrameView frame;
  const Status status = ReadFrame(FrameType::kSubmitReply, &frame);
  if (!status.ok()) return status;
  std::string error;
  if (!DecodeSubmitReply(frame.payload, entries, &error)) {
    return Status::Error("submit client: bad reply: " + error);
  }
  return Status::Ok();
}

Status SubmitClient::Ping(std::uint64_t token) {
  if (fd_ < 0) return Status::Error("submit client: not connected");
  encode_buf_.clear();
  AppendPingFrame(encode_buf_, token);
  if (!SendAll(fd_, encode_buf_.data(), encode_buf_.size())) {
    return Status::Error("submit client: send failed");
  }
  FrameView frame;
  const Status status = ReadFrame(FrameType::kPong, &frame);
  if (!status.ok()) return status;
  std::uint64_t echoed = 0;
  if (!DecodeEchoToken(frame.payload, &echoed) || echoed != token) {
    return Status::Error("submit client: pong token mismatch");
  }
  return Status::Ok();
}

Status SubmitClient::ReadFrame(FrameType want, FrameView* frame) {
  if (fd_ < 0) return Status::Error("submit client: not connected");
  // Consume the frame handed out by the previous call: its views are dead,
  // so the compaction is safe now and keeps the buffer from creeping.
  if (in_start_ > 0) {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_start_));
    in_start_ = 0;
  }
  std::string error;
  while (true) {
    std::size_t consumed = 0;
    const DecodeResult rc =
        NextFrame(in_.data(), in_.size(), frame, &consumed, &error);
    if (rc == DecodeResult::kError) {
      ShutdownOnError();
      return Status::Error("submit client: protocol error: " + error);
    }
    if (rc == DecodeResult::kFrame) {
      if (frame->type != want) {
        ShutdownOnError();
        return Status::Error("submit client: unexpected frame type");
      }
      in_start_ = consumed;
      return Status::Ok();
    }
    const std::size_t old_size = in_.size();
    in_.resize(old_size + 64 * 1024);
    const ssize_t r = ::recv(fd_, in_.data() + old_size, 64 * 1024, 0);
    if (r > 0) {
      in_.resize(old_size + static_cast<std::size_t>(r));
      continue;
    }
    in_.resize(old_size);
    if (r < 0 && errno == EINTR) continue;
    ShutdownOnError();
    return Status::Error(r == 0 ? "submit client: server closed connection"
                                : "submit client: recv failed");
  }
}

}  // namespace eco::slurm::rpc
