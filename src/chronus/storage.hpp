// Storage integrations:
//  - EtcStorage: the LocalStorage implementation (paper: "ETC Storage") —
//    settings.json plus pre-loaded model files under a root directory
//    (/etc/chronus on a real system; any directory here).
//  - LocalBlobStorage: the FileRepository implementation — serialized
//    optimizers as files under ./optimizers (§3.2 "File Repository"); the
//    paper notes NFS/S3 could implement the same interface.
#pragma once

#include <memory>
#include <string>

#include "chronus/interfaces.hpp"

namespace eco::chronus {

class EtcStorage : public LocalStorageInterface {
 public:
  explicit EtcStorage(std::string root);
  // A fresh private directory (mkdtemp under the system temp dir), removed
  // with everything in it when the storage is destroyed.
  static std::shared_ptr<EtcStorage> Temporary();
  ~EtcStorage() override;
  EtcStorage(const EtcStorage&) = delete;
  EtcStorage& operator=(const EtcStorage&) = delete;

  Result<Json> LoadSettings() override;
  Status SaveSettings(const Json& settings) override;
  Result<FileIdentity> SettingsIdentity() override;
  [[nodiscard]] std::string ResolvePath(const std::string& name) const override;
  Status WriteFile(const std::string& name, const std::string& data) override;
  Result<std::string> ReadFile(const std::string& name) override;

 private:
  std::string root_;
  std::string settings_path_;
  // The root, opened once: SettingsIdentity is one fstatat of a single path
  // component (about half the cost of a stat that walks the whole path, on
  // a 4-vCPU x86 VM) and allocates nothing. -1 if the open failed;
  // stat(settings_path_) then.
  int root_fd_ = -1;
  bool owns_root_ = false;
};

class LocalBlobStorage : public FileRepositoryInterface {
 public:
  explicit LocalBlobStorage(std::string root);
  // A fresh private directory, removed when the storage is destroyed.
  static std::shared_ptr<LocalBlobStorage> Temporary();
  ~LocalBlobStorage() override;
  LocalBlobStorage(const LocalBlobStorage&) = delete;
  LocalBlobStorage& operator=(const LocalBlobStorage&) = delete;

  Result<std::string> Save(const std::string& name,
                           const std::string& content) override;
  Result<std::string> Load(const std::string& path) override;

 private:
  std::string root_;
  bool owns_root_ = false;
};

// Filesystem helpers shared by the storage backends and the CLI.
Status EnsureDirectory(const std::string& path);
// Atomic replace: writes a temp file in the target's directory, then renames
// it over the target. A concurrent reader sees the old file or the new one,
// never a torn one, and every write gives the target a new inode.
Status WriteWholeFile(const std::string& path, const std::string& data);
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace eco::chronus
