#include "fault/injector.hpp"

#include "sim/rng.hpp"

namespace calciom::fault {

namespace {

using sim::mix64;

[[nodiscard]] constexpr double toUniform01(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Salts keep the fault classes' draws independent for one message index.
enum : std::uint64_t {
  kSaltDrop = 1,
  kSaltDelay = 2,
  kSaltDelayMagnitude = 3,
  kSaltDuplicate = 4,
  kSaltDuplicateMagnitude = 5,
  kSaltReorder = 6,
  kSaltBlackout = 7,
};

}  // namespace

double Injector::uniform(std::uint64_t index,
                         std::uint64_t salt) const noexcept {
  std::uint64_t h = mix64(plan_.seed ^ 0xCA1C10Full);
  h = mix64(h ^ shard_);
  h = mix64(h ^ index);
  h = mix64(h ^ salt);
  return toUniform01(h);
}

mpi::DeliveryFilter::Verdict Injector::onSend(
    std::string_view port, std::uint32_t /*fromApp*/,
    const core::Message& /*payload*/) {
  Verdict v;
  // Fault only the coordination layer. The data path (FlowNet, PFS) has its
  // own failure model out of scope here, and a disabled plan must consume
  // no indices at all so enabling faults later never shifts earlier draws.
  if (!plan_.messageFaultsEnabled() || !port.starts_with("calciom/")) {
    return v;
  }
  const std::uint64_t i = nextIndex_++;
  ++seen_;
  if (plan_.dropProbability > 0.0 &&
      uniform(i, kSaltDrop) < plan_.dropProbability) {
    // A dropped message cannot also be duplicated or delayed: it is gone.
    v.drop = true;
    ++dropped_;
    return v;
  }
  if (plan_.duplicateProbability > 0.0 &&
      uniform(i, kSaltDuplicate) < plan_.duplicateProbability) {
    v.duplicate = true;
    v.duplicateExtraDelaySeconds =
        uniform(i, kSaltDuplicateMagnitude) * plan_.maxDelaySeconds;
    ++duplicated_;
  }
  if (plan_.delayProbability > 0.0 &&
      uniform(i, kSaltDelay) < plan_.delayProbability) {
    v.extraDelaySeconds =
        uniform(i, kSaltDelayMagnitude) * plan_.maxDelaySeconds;
    ++delayed_;
  } else if (plan_.reorderProbability > 0.0 &&
             uniform(i, kSaltReorder) < plan_.reorderProbability) {
    v.extraDelaySeconds = plan_.reorderDelaySeconds;
    ++reordered_;
  }
  return v;
}

bool Injector::stubBlackedOut(std::uint64_t round) const noexcept {
  if (plan_.blackoutProbability <= 0.0 || round == 0) {
    return false;
  }
  const std::uint64_t span =
      static_cast<std::uint64_t>(plan_.blackoutRounds < 1
                                     ? 1
                                     : plan_.blackoutRounds);
  const std::uint64_t first = round >= span ? round - span + 1 : 1;
  for (std::uint64_t r = first; r <= round; ++r) {
    std::uint64_t h = mix64(plan_.seed ^ 0xB1AC0Full);
    h = mix64(h ^ shard_);
    h = mix64(h ^ r);
    h = mix64(h ^ kSaltBlackout);
    if (toUniform01(h) < plan_.blackoutProbability) {
      return true;
    }
  }
  return false;
}

}  // namespace calciom::fault
