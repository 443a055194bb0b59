#pragma once

/// \file comm.hpp
/// Intra-application communicator cost model. We do not simulate individual
/// ranks; collective operations are charged as analytic latency/bandwidth
/// delays using the standard log-tree models (Hockney-style alpha-beta).
/// These feed the collective-buffering shuffle phase and the coordinator's
/// intra-application gathers.

#include <cmath>
#include <cstdint>

#include "sim/contracts.hpp"

namespace calciom::mpi {

struct CommCosts {
  /// Per-hop message latency (alpha), seconds.
  double latency = 5e-6;
  /// Per-process injection bandwidth into the interconnect (beta), bytes/s.
  double bandwidthPerProcess = 350e6;
};

/// Cost model for an `size`-process communicator.
class Communicator {
 public:
  Communicator(int size, CommCosts costs) : size_(size), costs_(costs) {
    CALCIOM_EXPECTS(size >= 1);
    CALCIOM_EXPECTS(costs.latency >= 0.0);
    CALCIOM_EXPECTS(costs.bandwidthPerProcess > 0.0);
  }

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] const CommCosts& costs() const noexcept { return costs_; }

  [[nodiscard]] int treeDepth() const noexcept {
    return size_ <= 1 ? 0
                      : static_cast<int>(std::ceil(std::log2(size_)));
  }

  /// Dissemination barrier: alpha * ceil(log2 n).
  [[nodiscard]] double barrierTime() const noexcept {
    return costs_.latency * treeDepth();
  }

  /// Binomial-tree broadcast of `bytes` from the root.
  [[nodiscard]] double bcastTime(double bytes) const noexcept {
    return treeDepth() * (costs_.latency + bytes / costs_.bandwidthPerProcess);
  }

  /// Gather of `bytesPerRank` from every rank to the root: the root link is
  /// the bottleneck and must absorb (n-1) contributions.
  [[nodiscard]] double gatherTime(double bytesPerRank) const noexcept {
    return treeDepth() * costs_.latency +
           (size_ - 1) * bytesPerRank / costs_.bandwidthPerProcess;
  }

  /// Full data exchange moving `totalBytes` across the communicator (the
  /// collective-buffering shuffle). Aggregate exchange bandwidth is half the
  /// total injection capacity (each byte is sent once and received once).
  [[nodiscard]] double allToAllTime(double totalBytes) const noexcept {
    const double aggregate = size_ * costs_.bandwidthPerProcess / 2.0;
    return barrierTime() + totalBytes / aggregate;
  }

 private:
  int size_;
  CommCosts costs_;
};

}  // namespace calciom::mpi
