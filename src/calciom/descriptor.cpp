#include "calciom/descriptor.hpp"

namespace calciom::core {

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

void IoHints::applyTo(IoDescriptor& desc) const {
  if (appName) {
    desc.appName = *appName;
  }
  desc.cores = cores.value_or(desc.cores);
  desc.totalBytes = totalBytes.value_or(desc.totalBytes);
  desc.files = files.value_or(desc.files);
  desc.roundsPerFile = roundsPerFile.value_or(desc.roundsPerFile);
  desc.bytesPerRound = bytesPerRound.value_or(desc.bytesPerRound);
  desc.estAloneSeconds = estAloneSeconds.value_or(desc.estAloneSeconds);
}

}  // namespace calciom::core
