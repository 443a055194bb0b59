#pragma once

/// \file shared_storage.hpp
/// Machine-wide shared storage over a sharded platform: one shard of a
/// `platform::Cluster` is designated the *storage shard* and hosts the only
/// `pfs::ParallelFileSystem` that matters; applications pinned on the other
/// (compute) shards reach it through remote PFS clients whose write
/// requests and completions ride the sync-horizon barriers. This closes the
/// gap between the cross-shard coordination layer (calciom::GlobalArbiter)
/// and the modeled I/O stack: real `io::CollectiveWriter` applications on
/// distinct shards now contend for one PFS, so every paper figure has a
/// sharded counterpart and the serial figures are the special case of an
/// application placed on the storage shard itself (which gets a plain
/// same-engine `pfs::PfsClient`).
///
/// Protocol (mirrors the GlobalArbiter's stub/barrier design):
///
///   compute shard s: writer --> RemoteClient::writeRange
///                       │  (request appended to shard-s outbox, round-local)
///   barrier:            ▼  drained in (shard, arrival) order
///                    storage engine: scheduleAt(max(barrier, clock) + hop)
///                       │  flows start in the storage FlowNet (group=app)
///                       ▼  flow completion --> completion outbox
///   next barrier:    origin engine: scheduleAt(max(barrier, clock) + hop)
///                       │
///                       ▼  request trigger fires; the writer's round resumes
///
/// Determinism: outboxes are shard-local during rounds (only shard s's loop
/// appends to outbox s; only the completion task on the storage shard
/// appends completions) and are exchanged exclusively at barriers, when no
/// shard loop runs — the same argument as src/sim/README.md rule 4. A
/// cross-shard write therefore pays up to one barrier quantization plus one
/// cross-shard hop in each direction on top of the transfer itself.
///
/// The alternative placement — no storage shard, per-shard FlowNets
/// exchanging *bandwidth tokens* at barriers — is documented and compared
/// in src/pfs/README.md; the storage shard was chosen because it keeps the
/// contention model bit-identical to the single-machine path.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pfs/client.hpp"
#include "platform/machine.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/time.hpp"

namespace calciom::platform {

class Cluster;
// Internal client implementations, defined in shared_storage.cpp.
class SharedStorageRemoteClient;
class SharedStorageLocalClient;

/// Lifetime counters of the shared-storage exchange.
struct SharedStorageStats {
  /// Write requests carried across a barrier to the storage shard.
  std::uint64_t requestsForwarded = 0;
  /// Completion notifications carried back to a compute shard.
  std::uint64_t completionsForwarded = 0;
  /// Barriers that moved at least one request or completion.
  std::uint64_t exchanges = 0;
};

/// One cross-shard write request as observed by the exchange; tests use the
/// log to prove a paused writer issued nothing while another application
/// held the grant.
struct RequestTrace {
  std::uint32_t appId = 0;
  std::size_t originShard = 0;
  /// Origin-shard clock when the writer issued the request.
  sim::Time issueTime = 0.0;
  /// Storage-shard time at which the request's flows start.
  sim::Time dispatchTime = 0.0;
  /// Storage-shard time at which the last flow completed; 0 while in
  /// flight. completeTime - dispatchTime is the pure transfer duration —
  /// what throughput comparisons against a single-machine run must use
  /// (issue-to-trigger spans additionally contain barrier/hop latency).
  sim::Time completeTime = 0.0;
  std::uint64_t bytes = 0;
};

/// Barrier hook owning the shared-storage exchange; see file comment. Owned
/// by the cluster it serves (install() registers it via adoptBarrierHook).
class SharedStorageModel final : public sim::BarrierHook {
 public:
  struct Config {
    /// Shard hosting the shared file system. Default (nullopt): the last
    /// shard. Applications may be pinned on the storage shard too; they
    /// bypass the exchange entirely.
    std::optional<std::size_t> storageShard;
  };

  /// Creates the model over `cluster`, installs it as a barrier hook and
  /// hands ownership to the cluster. Call after cluster construction,
  /// before the first run. Clients handed out by makeClient keep pointers
  /// into the model, so they must be destroyed before the cluster is.
  static SharedStorageModel& install(Cluster& cluster, Config config);
  static SharedStorageModel& install(Cluster& cluster);
  ~SharedStorageModel() override;

  /// Per-application plumbing for an app running `processes` cores on
  /// `shard`: same recipe as Machine::provisionApp, except the injection
  /// resource is allocated in the *storage* shard's FlowNet — all PFS flows
  /// live there, whichever shard the application runs on.
  [[nodiscard]] ProvisionedApp provisionApp(std::size_t shard,
                                            std::uint32_t appId,
                                            const std::string& name,
                                            int processes);

  /// Client for an application pinned on `shard`: a plain same-engine
  /// PfsClient when the app lives on the storage shard, otherwise a remote
  /// proxy that rides the barrier exchange. At most one live client per
  /// appId (local or remote); an id becomes reusable once its client is
  /// destroyed and — for remote clients — its last request has drained
  /// (sequential campaigns, mirroring GlobalArbiter::onApplicationLaunched).
  [[nodiscard]] std::unique_ptr<pfs::PfsClient> makeClient(
      std::size_t shard, pfs::ClientContext ctx);

  /// sim::BarrierHook: exchange the round's requests and completions.
  /// Returns whether any delivery was scheduled.
  bool onBarrier(sim::Time barrierTime) override;

  /// The shared file system (the storage shard machine's).
  [[nodiscard]] pfs::ParallelFileSystem& fs();
  [[nodiscard]] std::size_t storageShard() const noexcept {
    return storageShard_;
  }
  [[nodiscard]] double crossShardLatency() const noexcept { return latency_; }
  [[nodiscard]] const SharedStorageStats& stats() const noexcept {
    return stats_;
  }
  /// Every cross-shard request, in exchange order. Requests from apps on
  /// the storage shard do not cross the exchange and are not logged.
  [[nodiscard]] const std::vector<RequestTrace>& requestLog() const noexcept {
    return requestLog_;
  }

 private:
  friend class SharedStorageRemoteClient;
  friend class SharedStorageLocalClient;

  struct Request {
    std::uint32_t appId = 0;
    std::size_t originShard = 0;
    std::string file;
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    double streams = 1.0;
    sim::Time issueTime = 0.0;
    std::shared_ptr<sim::Trigger> done;  // fired on the origin engine
  };
  struct Completion {
    std::uint32_t appId = 0;
    std::size_t originShard = 0;
    std::shared_ptr<sim::Trigger> done;
    /// Slot in requestLog_ to stamp with the completion time.
    std::size_t logIndex = 0;
  };

  SharedStorageModel(Cluster& cluster, Config config);

  /// Called by remote clients from their home shard's loop. Round-local by
  /// construction: only shard `shard`'s loop appends to outbox `shard`,
  /// and the barrier drains each outbox in its append (arrival) order —
  /// the deterministic (shard, arrival) merge order.
  void enqueueRequest(std::size_t shard, Request request);
  /// Client-destruction hooks: free the id; for remotes, release the
  /// storage-side executor — deferred until the app's last request has
  /// drained, since scheduled dispatches still reference it.
  void forgetRemote(SharedStorageRemoteClient* client);
  void forgetLocal(SharedStorageLocalClient* client);
  void releaseExecutorIfIdle(std::uint32_t appId);
  [[nodiscard]] bool hasQueuedRequests(std::uint32_t appId) const;
  /// Storage-shard coroutine: awaits the server-side write, then parks the
  /// completion for the next barrier.
  sim::Task awaitRequest(std::shared_ptr<sim::Trigger> serverDone,
                         Completion completion);

  Cluster& cluster_;
  std::size_t storageShard_ = 0;
  double latency_ = 0.0;
  std::vector<std::vector<Request>> outboxes_;  // one per shard
  std::vector<Completion> completions_;  // storage-shard round-local
  /// Storage-side executor client per remote application.
  std::map<std::uint32_t, std::unique_ptr<pfs::PfsClient>> execClients_;
  /// Requests per app drained from an outbox whose completion has not yet
  /// been delivered back (mutated at barriers only).
  std::map<std::uint32_t, int> inFlight_;
  /// Executors whose remote client died with requests still in flight;
  /// released at the barrier that delivers their last completion.
  std::set<std::uint32_t> deferredRelease_;
  /// Ids with a live client (local or remote): the one-client-per-app
  /// invariant covers both paths.
  std::set<std::uint32_t> liveClientIds_;
  std::vector<SharedStorageRemoteClient*> remotes_;
  std::vector<SharedStorageLocalClient*> locals_;
  SharedStorageStats stats_;
  std::vector<RequestTrace> requestLog_;
  /// Barrier scratch (onBarrier): completion indices stably grouped by
  /// origin shard, plus the shards touched. Reused to avoid per-round
  /// allocation.
  std::vector<std::vector<std::size_t>> completionGroups_;
  std::vector<std::size_t> touchedShards_;
};

}  // namespace calciom::platform
