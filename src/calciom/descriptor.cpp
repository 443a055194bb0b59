#include "calciom/descriptor.hpp"

namespace calciom::core {

mpi::Info IoDescriptor::toInfo() const {
  mpi::Info info;
  info.setInt(kAppId, appId);
  info.set(kAppName, appName);
  info.setInt(kCores, cores);
  info.setInt(kTotalBytes, static_cast<std::int64_t>(totalBytes));
  info.setInt(kFiles, files);
  info.setInt(kRounds, roundsPerFile);
  info.setInt(kBytesPerRound, static_cast<std::int64_t>(bytesPerRound));
  info.setDouble(kEstAlone, estAloneSeconds);
  return info;
}

IoDescriptor IoDescriptor::fromInfo(const mpi::Info& info) {
  IoDescriptor d;
  d.appId = static_cast<std::uint32_t>(info.getIntOr(kAppId, 0));
  d.appName = info.find(kAppName).value_or("");
  d.cores = static_cast<int>(info.getIntOr(kCores, 1));
  d.totalBytes = static_cast<std::uint64_t>(info.getIntOr(kTotalBytes, 0));
  d.files = static_cast<int>(info.getIntOr(kFiles, 1));
  d.roundsPerFile = static_cast<int>(info.getIntOr(kRounds, 1));
  d.bytesPerRound =
      static_cast<std::uint64_t>(info.getIntOr(kBytesPerRound, 0));
  d.estAloneSeconds = info.getDoubleOr(kEstAlone, 0.0);
  return d;
}

IoDescriptor IoDescriptor::fromPhase(const io::PhaseInfo& phase, int cores) {
  IoDescriptor d;
  d.appId = phase.appId;
  d.appName = phase.appName;
  d.cores = cores;
  d.totalBytes = phase.totalBytes;
  d.files = phase.files;
  d.roundsPerFile = phase.roundsPerFile;
  d.bytesPerRound = phase.bytesPerRound;
  d.estAloneSeconds = phase.estimatedAloneSeconds;
  return d;
}

}  // namespace calciom::core
