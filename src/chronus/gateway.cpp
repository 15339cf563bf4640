#include "chronus/gateway.hpp"

#include "sysinfo/simple_hash.hpp"

namespace eco::chronus {

std::shared_ptr<ChronusGateway> ChronusGateway::Wire(
    std::shared_ptr<SlurmConfigService> config_service,
    std::shared_ptr<SettingsService> settings_service,
    std::shared_ptr<sysinfo::VirtualProcFs> procfs) {
  auto gateway = std::make_shared<ChronusGateway>();
  gateway->slurm_config = [config_service](const std::string& system_hash,
                                           const std::string& binary_hash) {
    return config_service->Run(system_hash, binary_hash);
  };
  // VirtualProcFs has no mutator, so the identity is fixed at wiring: hash
  // it once instead of re-rendering /proc/cpuinfo on every submit.
  gateway->system_hash = [hash = sysinfo::HashToString(procfs->SystemHash())] {
    return hash;
  };
  gateway->state = [settings_service] { return settings_service->GetState(); };
  return gateway;
}

}  // namespace eco::chronus
