#include "chronus/storage.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/log.hpp"

namespace eco::chronus {
namespace fs = std::filesystem;
namespace {

std::string ErrnoText() { return std::strerror(errno); }

std::int64_t Nanoseconds(const struct timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec);
}

// mkdtemp("<system temp dir>/<prefix>XXXXXX"); returns the new directory.
Result<std::string> MakeTempDirectory(const std::string& prefix) {
  std::error_code ec;
  const fs::path base = fs::temp_directory_path(ec);
  std::string templ = (ec ? fs::path("/tmp") : base) / (prefix + "XXXXXX");
  if (::mkdtemp(templ.data()) == nullptr) {
    return Result<std::string>::Error("storage: mkdtemp failed: " + templ +
                                      ": " + ErrnoText());
  }
  return templ;
}

// Falls back to a shared directory (with a warning) only when the
// system temp dir refuses mkdtemp.
std::string TemporaryRoot(const std::string& prefix, bool* owned) {
  auto dir = MakeTempDirectory(prefix);
  *owned = dir.ok();
  if (dir.ok()) return *dir;
  ECO_WARN << "storage: " << dir.message() << "; using a shared directory";
  return "/tmp/" + prefix + "shared";
}

void RemoveOwnedRoot(const std::string& root) {
  std::error_code ec;
  fs::remove_all(root, ec);
}

// fstatat of `path` under `dir_fd` (AT_FDCWD: an ordinary stat); a missing
// file is the all-zero identity.
Result<FileIdentity> StatIdentity(int dir_fd, const char* path) {
  struct stat st {};
  if (::fstatat(dir_fd, path, &st, 0) != 0) {
    if (errno == ENOENT) return FileIdentity{};
    return Result<FileIdentity>::Error(std::string("storage: cannot stat ") +
                                       path + ": " + ErrnoText());
  }
  FileIdentity id;
  id.dev = static_cast<std::uint64_t>(st.st_dev);
  id.ino = static_cast<std::uint64_t>(st.st_ino);
  id.size = static_cast<std::int64_t>(st.st_size);
  id.mtime_ns = Nanoseconds(st.st_mtim);
  id.ctime_ns = Nanoseconds(st.st_ctim);
  return id;
}

}  // namespace

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::Error("storage: mkdir failed: " + path + ": " +
                               ec.message());
  return Status::Ok();
}

Status WriteWholeFile(const std::string& path, const std::string& data) {
  // The temp name is unique per process and call, so concurrent writers of
  // one target never share a temp file; the last rename wins whole.
  static std::atomic<std::uint64_t> sequence{0};
  const std::size_t slash = path.rfind('/');
  const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
  const std::string tmp = path.substr(0, base) + "." + path.substr(base) +
                          ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::Error("storage: cannot open for write: " + path + ": " +
                         ErrnoText());
  }
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  const bool written = left == 0;
  const std::string write_error = written ? "" : ErrnoText();
  const bool closed = ::close(fd) == 0;
  if (!written || !closed) {
    ::unlink(tmp.c_str());
    return Status::Error("storage: write failed: " + path + ": " +
                         (written ? ErrnoText() : write_error));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string error = ErrnoText();
    ::unlink(tmp.c_str());
    return Status::Error("storage: rename failed: " + path + ": " + error);
  }
  return Status::Ok();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Result<std::string>::Error("storage: cannot open: " + path);
  // One read of the size fstat reports; files that report 0 (procfs) or
  // grow meanwhile are read on until EOF.
  struct stat st {};
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size) + 1
          : 4096;
  std::string out(hint, '\0');
  std::size_t used = 0;
  for (;;) {
    if (used == out.size()) out.resize(out.size() * 2);
    const ssize_t n = ::read(fd, out.data() + used, out.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Result<std::string>::Error("storage: read failed: " + path);
    }
    if (n == 0) break;
    used += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(used);
  return out;
}

EtcStorage::EtcStorage(std::string root) : root_(std::move(root)) {
  if (!root_.empty() && root_.back() == '/') root_.pop_back();
  EnsureDirectory(root_);
  settings_path_ = ResolvePath("settings.json");
  root_fd_ = ::open(root_.empty() ? "/" : root_.c_str(),
                    O_PATH | O_DIRECTORY | O_CLOEXEC);
}

std::shared_ptr<EtcStorage> EtcStorage::Temporary() {
  bool owned = false;
  auto storage = std::make_shared<EtcStorage>(TemporaryRoot("chronus-etc-", &owned));
  storage->owns_root_ = owned;
  return storage;
}

EtcStorage::~EtcStorage() {
  if (root_fd_ >= 0) ::close(root_fd_);
  if (owns_root_) RemoveOwnedRoot(root_);
}

std::string EtcStorage::ResolvePath(const std::string& name) const {
  if (!name.empty() && name.front() == '/') return name;  // already absolute
  return root_ + "/" + name;
}

Result<Json> EtcStorage::LoadSettings() {
  auto text = ReadWholeFile(settings_path_);
  if (!text.ok()) return Json(JsonObject{});  // fresh install: empty settings
  return Json::Parse(*text);
}

Status EtcStorage::SaveSettings(const Json& settings) {
  return WriteWholeFile(settings_path_, settings.Dump(2) + "\n");
}

Result<FileIdentity> EtcStorage::SettingsIdentity() {
  return root_fd_ >= 0 ? StatIdentity(root_fd_, "settings.json")
                       : StatIdentity(AT_FDCWD, settings_path_.c_str());
}

Status EtcStorage::WriteFile(const std::string& name, const std::string& data) {
  return WriteWholeFile(ResolvePath(name), data);
}

Result<std::string> EtcStorage::ReadFile(const std::string& name) {
  return ReadWholeFile(ResolvePath(name));
}

LocalBlobStorage::LocalBlobStorage(std::string root) : root_(std::move(root)) {
  if (!root_.empty() && root_.back() == '/') root_.pop_back();
  EnsureDirectory(root_);
}

std::shared_ptr<LocalBlobStorage> LocalBlobStorage::Temporary() {
  bool owned = false;
  auto storage = std::make_shared<LocalBlobStorage>(
      TemporaryRoot("chronus-blobs-", &owned));
  storage->owns_root_ = owned;
  return storage;
}

LocalBlobStorage::~LocalBlobStorage() {
  if (owns_root_) RemoveOwnedRoot(root_);
}

Result<std::string> LocalBlobStorage::Save(const std::string& name,
                                           const std::string& content) {
  const std::string path = root_ + "/" + name;
  const Status written = WriteWholeFile(path, content);
  if (!written.ok()) return Result<std::string>::Error(written.message());
  return path;
}

Result<std::string> LocalBlobStorage::Load(const std::string& path) {
  // Paths from Save() are absolute-ish already; bare names resolve under root.
  if (path.find('/') == std::string::npos) {
    return ReadWholeFile(root_ + "/" + path);
  }
  return ReadWholeFile(path);
}

}  // namespace eco::chronus
