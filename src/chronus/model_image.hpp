// The pre-loaded model image: a flat little-endian file Preload writes
// beside the self-contained JSON file for a random-tree model, so the first
// Predict of a process copies arrays instead of parsing ~375 KB of JSON.
// The JSON file stays the interchange and test format, and the fallback
// whenever the image is missing, corrupt or for another model.
//
// Layout (DESIGN.md "Chronus local storage" has the full table):
//
//   char[8] magic "ECOMODEL" · u32 version · u32 model type (1 = random-tree)
//   u32 len + system hash · u32 len + binary hash
//   u32 candidate count · {i32 cores, i32 threads/core, u64 kHz} each
//   the forest (ml::RandomForest::AppendImage)
//
// The image must end exactly where the forest does.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "chronus/domain.hpp"
#include "ml/random_forest.hpp"

namespace eco::chronus {

inline constexpr std::uint32_t kModelImageVersion = 1;

struct ModelImage {
  std::string system_hash;
  std::string binary_hash;
  std::vector<Configuration> candidates;
  ml::RandomForest forest;
};

// Writes only the candidates Configuration::FromJson would accept, so the
// image and the JSON file answer from the same candidate list.
std::string EncodeModelImage(const std::string& system_hash,
                             const std::string& binary_hash,
                             const std::vector<Configuration>& candidates,
                             const ml::RandomForest& forest);

// Rejects, without reading or allocating past `bytes`, a wrong magic,
// version or model type, any count the bytes cannot hold, an invalid
// candidate, a forest that fails ml::RandomForest::FromImage, and trailing
// bytes. Callers still check the hashes against the key they asked for.
Result<ModelImage> DecodeModelImage(std::string_view bytes);

}  // namespace eco::chronus
