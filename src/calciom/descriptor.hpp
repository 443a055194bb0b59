#pragma once

/// \file descriptor.hpp
/// The I/O descriptor applications exchange through CALCioM. This is the
/// content of the paper's Prepare()/Inform() calls: knowledge gathered from
/// every level of the I/O stack — the application level contributes file
/// counts and byte totals, the MPI-I/O level contributes collective
/// buffering rounds and per-round volumes. It travels as a typed field of
/// the Inform message (wire.hpp); `toInfo`/`fromInfo` map it to and from
/// the MPI_Info hints the paper's Prepare() takes (`Session::prepare`).

#include <cstdint>
#include <string>

#include "io/hooks.hpp"
#include "mpi/info.hpp"

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

  /// Info keys of the Prepare() hints.
  static constexpr const char* kAppId = "calciom.app_id";
  static constexpr const char* kAppName = "calciom.app_name";
  static constexpr const char* kCores = "calciom.cores";
  static constexpr const char* kTotalBytes = "calciom.total_bytes";
  static constexpr const char* kFiles = "calciom.files";
  static constexpr const char* kRounds = "calciom.rounds_per_file";
  static constexpr const char* kBytesPerRound = "calciom.bytes_per_round";
  static constexpr const char* kEstAlone = "calciom.est_alone_seconds";

  [[nodiscard]] mpi::Info toInfo() const;
  [[nodiscard]] static IoDescriptor fromInfo(const mpi::Info& info);

  /// Builds a descriptor from the I/O stack's phase summary plus the
  /// application-level knowledge (core count).
  [[nodiscard]] static IoDescriptor fromPhase(const io::PhaseInfo& phase,
                                              int cores);

  bool operator==(const IoDescriptor&) const = default;
};

}  // namespace calciom::core
