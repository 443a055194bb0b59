#include "platform/shared_storage.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "platform/cluster.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"
#include "sim/shard_affinity.hpp"

namespace calciom::platform {

/// Compute-shard proxy of the shared file system. Write requests are
/// appended to the model's per-shard outbox and cross at the next barrier;
/// `contended()` answers from the snapshot the model pushes at each barrier
/// (stale by at most one round, and a pure function of barrier state, so
/// campaigns stay bit-identical across worker counts). The base-class
/// references point at the *storage* shard's net and fs, which the proxy
/// only uses for immutable reads (layout, config, injection capacity) — see
/// the read discipline in pfs/client.hpp.
class SharedStorageRemoteClient final : public pfs::PfsClient {
 public:
  SharedStorageRemoteClient(SharedStorageModel& model, std::size_t homeShard,
                            sim::Engine& homeEngine, net::FlowNet& storageNet,
                            pfs::ParallelFileSystem& fs,
                            pfs::ClientContext ctx)
      : pfs::PfsClient(homeEngine, storageNet, fs, std::move(ctx)),
        model_(&model),
        homeShard_(homeShard) {}

  ~SharedStorageRemoteClient() override {
    if (model_ != nullptr) {
      model_->forgetRemote(this);
    }
  }

  std::shared_ptr<sim::Trigger> writeRange(const std::string& file,
                                           std::uint64_t offset,
                                           std::uint64_t len,
                                           double streams) override {
    CALCIOM_EXPECTS(streams > 0.0);
    // Must be driven from the home shard (or setup code): the outbox is
    // round-local to that shard. Always-on (enforce): this predates the
    // CALCIOM_SHARD_CHECKS option and every build keeps it.
    sim::ShardAffinity(&engine_).enforce(
        "platform::SharedStorageRemoteClient::writeRange");
    auto done = std::make_shared<sim::Trigger>();
    // len == 0 still crosses the exchange: the storage-side client opens
    // the file and runs recordWrite(0) there, keeping fs state identical
    // to an app pinned on the storage shard (the base-class contract).
    SharedStorageModel::Request req;
    req.appId = ctx_.appId;
    req.originShard = homeShard_;
    req.file = file;
    req.offset = offset;
    req.len = len;
    req.streams = streams;
    req.issueTime = engine_.now();
    req.done = done;
    model_->enqueueRequest(homeShard_, std::move(req));
    return done;
  }

  [[nodiscard]] bool contended() const override { return contendedSnapshot_; }

  void setContendedSnapshot(bool contended) noexcept {
    contendedSnapshot_ = contended;
  }
  [[nodiscard]] std::uint32_t appId() const noexcept { return ctx_.appId; }
  void detachModel() noexcept { model_ = nullptr; }

 private:
  SharedStorageModel* model_;
  std::size_t homeShard_;
  bool contendedSnapshot_ = false;
};

/// Storage-shard-local client: the plain same-engine path, wrapped only so
/// the model can enforce one live client per appId across both paths.
class SharedStorageLocalClient final : public pfs::PfsClient {
 public:
  SharedStorageLocalClient(SharedStorageModel& model, sim::Engine& engine,
                           net::FlowNet& net, pfs::ParallelFileSystem& fs,
                           pfs::ClientContext ctx)
      : pfs::PfsClient(engine, net, fs, std::move(ctx)), model_(&model) {}
  ~SharedStorageLocalClient() override {
    if (model_ != nullptr) {
      model_->forgetLocal(this);
    }
  }
  [[nodiscard]] std::uint32_t appId() const noexcept { return ctx_.appId; }
  void detachModel() noexcept { model_ = nullptr; }

 private:
  SharedStorageModel* model_;
};

SharedStorageModel::SharedStorageModel(Cluster& cluster, Config config)
    : cluster_(cluster) {
  CALCIOM_EXPECTS(cluster.shardCount() >= 1);
  storageShard_ = config.storageShard.value_or(cluster.shardCount() - 1);
  CALCIOM_EXPECTS(storageShard_ < cluster.shardCount());
  latency_ = cluster.spec().crossShardLatencySeconds;
  outboxes_.resize(cluster.shardCount());
}

SharedStorageModel& SharedStorageModel::install(Cluster& cluster,
                                                Config config) {
  auto model = std::unique_ptr<SharedStorageModel>(
      new SharedStorageModel(cluster, config));
  SharedStorageModel& ref = *model;
  cluster.adoptBarrierHook(std::move(model));
  return ref;
}

SharedStorageModel& SharedStorageModel::install(Cluster& cluster) {
  return install(cluster, Config{});
}

SharedStorageModel::~SharedStorageModel() {
  // Clients normally die first (they must be declared after the cluster);
  // detach any stragglers so their destructors do not call back into us.
  for (SharedStorageRemoteClient* remote : remotes_) {
    remote->detachModel();
  }
  for (SharedStorageLocalClient* local : locals_) {
    local->detachModel();
  }
}

pfs::ParallelFileSystem& SharedStorageModel::fs() {
  return cluster_.machine(storageShard_).fs();
}

ProvisionedApp SharedStorageModel::provisionApp(std::size_t shard,
                                                std::uint32_t appId,
                                                const std::string& name,
                                                int processes) {
  CALCIOM_EXPECTS(shard < cluster_.shardCount());
  // Same recipe as Machine::provisionApp (single shared definition), but
  // the injection resource lives in the storage shard's FlowNet: every PFS
  // flow runs there, whichever shard the application runs on.
  return provisionAppInto(cluster_.machine(shard).spec(),
                          cluster_.machine(storageShard_).net(), appId, name,
                          processes);
}

std::unique_ptr<pfs::PfsClient> SharedStorageModel::makeClient(
    std::size_t shard, pfs::ClientContext ctx) {
  CALCIOM_EXPECTS(shard < cluster_.shardCount());
  // One live client per appId, across the local and remote paths; an id
  // still draining a dead remote's requests (execClients_ entry deferred)
  // is not reusable yet either.
  CALCIOM_EXPECTS(!liveClientIds_.contains(ctx.appId));
  CALCIOM_EXPECTS(!execClients_.contains(ctx.appId));
  Machine& storage = cluster_.machine(storageShard_);
  liveClientIds_.insert(ctx.appId);
  if (shard == storageShard_) {
    // Same-shard app: the serial path, no exchange involved.
    auto local = std::make_unique<SharedStorageLocalClient>(
        *this, storage.engine(), storage.net(), storage.fs(), std::move(ctx));
    locals_.push_back(local.get());
    return local;
  }
  execClients_.emplace(
      ctx.appId,
      std::make_unique<pfs::PfsClient>(storage.engine(), storage.net(),
                                       storage.fs(), ctx));
  auto remote = std::make_unique<SharedStorageRemoteClient>(
      *this, shard, cluster_.engine(shard), storage.net(), storage.fs(),
      std::move(ctx));
  remotes_.push_back(remote.get());
  return remote;
}

void SharedStorageModel::enqueueRequest(std::size_t shard, Request request) {
  // Outbox `shard` is round-local to shard `shard`: only that shard's loop
  // (or setup/barrier context) may append, or the (shard, arrival) merge
  // order would depend on thread interleaving.
  sim::ShardAffinity(&cluster_.engine(shard))
      .check("platform::SharedStorageModel::enqueueRequest");
  outboxes_[shard].push_back(std::move(request));
}

bool SharedStorageModel::hasQueuedRequests(std::uint32_t appId) const {
  for (const std::vector<Request>& box : outboxes_) {
    for (const Request& req : box) {
      if (req.appId == appId) {
        return true;
      }
    }
  }
  return false;
}

void SharedStorageModel::releaseExecutorIfIdle(std::uint32_t appId) {
  const auto it = inFlight_.find(appId);
  const bool inFlight = it != inFlight_.end() && it->second > 0;
  if (!inFlight && !hasQueuedRequests(appId)) {
    execClients_.erase(appId);
    deferredRelease_.erase(appId);
  }
}

void SharedStorageModel::forgetRemote(SharedStorageRemoteClient* client) {
  remotes_.erase(std::remove(remotes_.begin(), remotes_.end(), client),
                 remotes_.end());
  const std::uint32_t appId = client->appId();
  liveClientIds_.erase(appId);
  // Release the storage-side executor so a sequential campaign can reuse
  // the id (mirrors GlobalArbiter::onApplicationLaunched). If the client
  // died with requests still queued or in flight, the executor is still
  // referenced by scheduled dispatches — defer the release to the barrier
  // that delivers the app's last completion.
  deferredRelease_.insert(appId);
  releaseExecutorIfIdle(appId);
}

void SharedStorageModel::forgetLocal(SharedStorageLocalClient* client) {
  liveClientIds_.erase(client->appId());
  locals_.erase(std::remove(locals_.begin(), locals_.end(), client),
                locals_.end());
}

sim::Task SharedStorageModel::awaitRequest(
    std::shared_ptr<sim::Trigger> serverDone, Completion completion) {
  co_await serverDone;
  // Parked until the next barrier; only the storage shard's loop runs here.
  requestLog_[completion.logIndex].completeTime =
      cluster_.engine(storageShard_).now();
  completions_.push_back(std::move(completion));
}

bool SharedStorageModel::onBarrier(sim::Time barrierTime) {
  // The exchange reads every outbox and snapshots storage state for remote
  // contended() answers: only legal when no shard loop runs (rule 4).
  sim::ShardAffinity::checkBarrierContext(
      "platform::SharedStorageModel::onBarrier");
  bool scheduled = false;
  sim::Engine& storageEng = cluster_.engine(storageShard_);
  // Requests first, in (shard, arrival) order — each outbox is drained in
  // append order, itself the shard's (deterministic) event order. Delivery
  // lands strictly after the barrier and pays the cross-shard hop; a shard
  // that skipped rounds may trail the barrier, so clamp to its clock. The
  // clamp is shared by the whole barrier's request batch (the storage clock
  // cannot move while the barrier thread runs), so resolve the timestamp
  // once; the payload-heavy Requests move into one shared batch per
  // barrier instead of one closure-owned copy each, with one engine event
  // per request (event counts and seq order are part of the deterministic
  // observable surface).
  std::size_t requestCount = 0;
  for (const std::vector<Request>& outbox : outboxes_) {
    requestCount += outbox.size();
  }
  if (requestCount > 0) {
    const sim::Time at = std::max(barrierTime, storageEng.now()) + latency_;
    auto batch = std::make_shared<std::vector<Request>>();
    batch->reserve(requestCount);
    for (std::size_t s = 0; s < outboxes_.size(); ++s) {
      for (Request& req : outboxes_[s]) {
        const std::size_t logIndex = requestLog_.size();
        requestLog_.push_back(RequestTrace{req.appId, req.originShard,
                                           req.issueTime, at,
                                           /*completeTime=*/0.0, req.len});
        ++stats_.requestsForwarded;
        ++inFlight_[req.appId];
        const std::size_t idx = batch->size();
        batch->push_back(std::move(req));
        storageEng.scheduleAt(at, [this, logIndex, batch, idx] {
          Request& req = (*batch)[idx];
          const auto exec = execClients_.find(req.appId);
          CALCIOM_EXPECTS(exec != execClients_.end());
          auto serverDone = exec->second->writeRange(req.file, req.offset,
                                                     req.len, req.streams);
          cluster_.engine(storageShard_)
              .spawn(awaitRequest(std::move(serverDone),
                                  Completion{req.appId, req.originShard,
                                             std::move(req.done),
                                             logIndex}));
        });
        scheduled = true;
      }
      outboxes_[s].clear();
    }
  }
  // Completions back to their origin shards, stably grouped per shard so
  // the engine and the clamped timestamp resolve once per shard. Grouping
  // preserves each shard's relative completion order (per-engine seq order
  // depends only on that subsequence) and each app's completions all share
  // its one origin shard, so inFlight_ / deferred-release transitions per
  // app happen in the same order as the ungrouped storage-event walk.
  if (!completions_.empty()) {
    if (completionGroups_.size() < cluster_.shardCount()) {
      completionGroups_.resize(cluster_.shardCount());
    }
    for (std::vector<std::size_t>& group : completionGroups_) {
      group.clear();
    }
    touchedShards_.clear();
    for (std::size_t i = 0; i < completions_.size(); ++i) {
      const std::size_t shard = completions_[i].originShard;
      if (completionGroups_[shard].empty()) {
        touchedShards_.push_back(shard);
      }
      completionGroups_[shard].push_back(i);
    }
    for (const std::size_t shard : touchedShards_) {
      sim::Engine& eng = cluster_.engine(shard);
      const sim::Time at = std::max(barrierTime, eng.now()) + latency_;
      for (const std::size_t i : completionGroups_[shard]) {
        Completion& c = completions_[i];
        ++stats_.completionsForwarded;
        --inFlight_[c.appId];
        eng.scheduleAt(at, [done = std::move(c.done)] { done->fire(); });
        scheduled = true;
        if (deferredRelease_.contains(c.appId)) {
          releaseExecutorIfIdle(c.appId);  // the dead app's last request drained
        }
      }
    }
    completions_.clear();
  }
  if (scheduled) {
    ++stats_.exchanges;
  }
  // Contention snapshots: a pure function of barrier-time storage state, so
  // remote contended() stays deterministic whatever the worker count.
  pfs::ParallelFileSystem& sharedFs = cluster_.machine(storageShard_).fs();
  for (SharedStorageRemoteClient* remote : remotes_) {
    remote->setContendedSnapshot(sharedFs.anyOtherAppActive(remote->appId()));
  }
  return scheduled;
}

}  // namespace calciom::platform
