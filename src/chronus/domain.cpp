#include "chronus/domain.hpp"

#include <sstream>

namespace eco::chronus {

Json Configuration::ToJson() const {
  JsonObject obj;
  obj["cores"] = cores;
  obj["threads_per_core"] = threads_per_core;
  obj["frequency"] = static_cast<long long>(frequency);
  return Json(std::move(obj));
}

Result<Configuration> Configuration::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Result<Configuration>::Error("configuration: expected object");
  }
  Configuration config;
  config.cores = static_cast<int>(json.at("cores").as_int(0));
  config.threads_per_core =
      static_cast<int>(json.at("threads_per_core").as_int(1));
  config.frequency = static_cast<KiloHertz>(json.at("frequency").as_int(0));
  if (!config.valid()) {
    return Result<Configuration>::Error("configuration: invalid fields in " +
                                        json.Dump());
  }
  return config;
}

std::string Configuration::ToString() const {
  std::ostringstream out;
  out << cores << "c@" << KiloHertzToGHz(frequency) << "GHz"
      << (threads_per_core > 1 ? "+ht" : "");
  return out.str();
}

Result<std::vector<Configuration>> ParseConfigurationsFile(
    const std::string& json_text) {
  auto parsed = Json::Parse(json_text);
  if (!parsed.ok()) {
    return Result<std::vector<Configuration>>::Error(parsed.message());
  }
  if (!parsed->is_array()) {
    return Result<std::vector<Configuration>>::Error(
        "configurations: expected a JSON array");
  }
  std::vector<Configuration> out;
  for (const auto& item : parsed->as_array()) {
    auto config = Configuration::FromJson(item);
    if (!config.ok()) {
      return Result<std::vector<Configuration>>::Error(config.message());
    }
    out.push_back(*config);
  }
  return out;
}

std::vector<Configuration> SystemRecord::AllConfigurations() const {
  std::vector<Configuration> out;
  for (int c = 1; c <= cores; ++c) {
    for (const KiloHertz f : frequencies) {
      for (int t = 1; t <= threads_per_core; ++t) {
        out.push_back(Configuration{c, t, f});
      }
    }
  }
  return out;
}

}  // namespace eco::chronus
