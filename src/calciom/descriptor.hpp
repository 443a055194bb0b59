#pragma once

/// \file descriptor.hpp
/// The I/O descriptor applications exchange through CALCioM. This is the
/// content of the paper's Prepare()/Inform() calls: knowledge gathered from
/// every level of the I/O stack — the application level contributes file
/// counts and byte totals, the MPI-I/O level contributes collective
/// buffering rounds and per-round volumes. It travels as a typed field of
/// the Inform message (wire.hpp); `IoHints` are the typed Prepare() hints
/// that override some of its fields (`Session::prepare`).

#include <cstdint>
#include <optional>
#include <string>

#include "io/hooks.hpp"

namespace calciom::core {

struct IoDescriptor {
  std::uint32_t appId = 0;
  std::string appName;
  /// Cores running the application (weights machine-efficiency metrics).
  int cores = 1;
  /// Phase volume across all files.
  std::uint64_t totalBytes = 0;
  int files = 1;
  int roundsPerFile = 1;
  std::uint64_t bytesPerRound = 0;
  /// The application's estimate of the phase duration without contention.
  double estAloneSeconds = 0.0;

  /// Builds a descriptor from the I/O stack's phase summary plus the
  /// application-level knowledge (core count).
  [[nodiscard]] static IoDescriptor fromPhase(const io::PhaseInfo& phase,
                                              int cores);

  bool operator==(const IoDescriptor&) const = default;
};

/// Prepare() hints: descriptor knowledge a level of the I/O stack supplies
/// ahead of the phase. A set field overrides the descriptor's; an unset one
/// leaves it alone. There is no `appId`: the session owns its identity.
struct IoHints {
  std::optional<std::string> appName;
  std::optional<int> cores;
  std::optional<std::uint64_t> totalBytes;
  std::optional<int> files;
  std::optional<int> roundsPerFile;
  std::optional<std::uint64_t> bytesPerRound;
  std::optional<double> estAloneSeconds;

  /// Overwrites the fields of `desc` that this hint sets.
  void applyTo(IoDescriptor& desc) const;
};

}  // namespace calciom::core
