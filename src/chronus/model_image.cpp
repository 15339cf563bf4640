#include "chronus/model_image.hpp"

#include <cstring>

#include "common/byte_image.hpp"

namespace eco::chronus {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'O', 'M', 'O', 'D', 'E', 'L'};
constexpr std::uint32_t kRandomTreeType = 1;
constexpr std::size_t kCandidateBytes =
    2 * sizeof(std::int32_t) + sizeof(std::uint64_t);

}  // namespace

std::string EncodeModelImage(const std::string& system_hash,
                             const std::string& binary_hash,
                             const std::vector<Configuration>& candidates,
                             const ml::RandomForest& forest) {
  std::string out(kMagic, sizeof(kMagic));
  ImageWriter w(&out);
  w.Put(kModelImageVersion);
  w.Put(kRandomTreeType);
  w.PutString(system_hash);
  w.PutString(binary_hash);
  std::uint32_t count = 0;
  for (const Configuration& c : candidates) count += c.valid() ? 1 : 0;
  w.Put(count);
  for (const Configuration& c : candidates) {
    if (!c.valid()) continue;
    w.Put(static_cast<std::int32_t>(c.cores));
    w.Put(static_cast<std::int32_t>(c.threads_per_core));
    w.Put(static_cast<std::uint64_t>(c.frequency));
  }
  forest.AppendImage(&out);
  return out;
}

Result<ModelImage> DecodeModelImage(std::string_view bytes) {
  using R = Result<ModelImage>;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return R::Error("model image: bad magic");
  }
  ImageReader in(bytes.substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint32_t type = 0;
  if (!in.Get(&version) || version != kModelImageVersion) {
    return R::Error("model image: unsupported version");
  }
  if (!in.Get(&type) || type != kRandomTreeType) {
    return R::Error("model image: unsupported model type");
  }
  ModelImage image;
  std::uint32_t count = 0;
  if (!in.GetString(&image.system_hash) || !in.GetString(&image.binary_hash) ||
      !in.Get(&count)) {
    return R::Error("model image: truncated header");
  }
  if (count == 0 || !in.Fits(count, kCandidateBytes)) {
    return R::Error("model image: bad candidate count");
  }
  image.candidates.resize(count);
  for (Configuration& c : image.candidates) {
    std::int32_t cores = 0;
    std::int32_t tpc = 0;
    std::uint64_t frequency = 0;
    in.Get(&cores);
    in.Get(&tpc);
    in.Get(&frequency);
    c = {cores, tpc, static_cast<KiloHertz>(frequency)};
    if (!c.valid()) return R::Error("model image: invalid candidate");
  }
  auto forest = ml::RandomForest::FromImage(in);
  if (!forest.ok()) return R::Error(forest.message());
  if (!in.done()) return R::Error("model image: trailing bytes");
  image.forest = std::move(forest.value());
  return image;
}

}  // namespace eco::chronus
