#include "network/params.hpp"

#include <stdexcept>

namespace pnoc::network {

std::string toString(Architecture arch) {
  switch (arch) {
    case Architecture::kFirefly: return "Firefly";
    case Architecture::kDhetpnoc: return "d-HetPNoC";
  }
  return "?";
}

void SimulationParameters::validate() const {
  if (clusterSize == 0 || numCores == 0 || numCores % clusterSize != 0) {
    throw std::invalid_argument("numCores must be a positive multiple of clusterSize");
  }
  if (clusterSize > 31) {
    // Electrical-router port state (crossbar, owned outputs, output
    // arbitration requests) lives in 32-bit masks over clusterSize + 1 ports.
    throw std::invalid_argument(
        "cluster_size must be at most 31 (router port state is tracked in 32-bit masks "
        "over cluster_size + 1 ports)");
  }
  if (bandwidthSet.totalWavelengths == 0) {
    throw std::invalid_argument("bandwidth set must provide at least one wavelength");
  }
  if (reservedPerCluster == 0) {
    throw std::invalid_argument("each cluster needs at least one reserved wavelength");
  }
  if (reservedPerCluster * numClusters() > bandwidthSet.totalWavelengths) {
    throw std::invalid_argument(
        "reserved wavelengths exceed the aggregate wavelength budget");
  }
  if (bandwidthSet.packetFlits == 0 || bandwidthSet.flitBits == 0) {
    throw std::invalid_argument("packet geometry must be non-zero");
  }
  if (coreRouter.numPorts != clusterSize + 1) {
    throw std::invalid_argument(
        "core routers need clusterSize + 1 ports (local, peers, photonic uplink)");
  }
  if (coreRouter.vcsPerPort == 0 || coreRouter.vcsPerPort > 32) {
    // VC occupancy, head-front, lock and bound-core state all live in 32-bit
    // masks (`1u << vc`); more than 32 VCs would shift out of range.
    throw std::invalid_argument(
        "vcsPerPort must be between 1 and 32 (VC state is tracked in 32-bit masks)");
  }
  if (coreRouter.vcDepthFlits < bandwidthSet.packetFlits) {
    throw std::invalid_argument(
        "VC depth must hold a whole packet (wormhole VC-per-packet discipline)");
  }
  if (offeredLoad <= 0.0) {
    throw std::invalid_argument("offered load must be positive");
  }
  if (injectionQueuePackets == 0) {
    throw std::invalid_argument("injection queue needs capacity for at least one packet");
  }
}

}  // namespace pnoc::network
