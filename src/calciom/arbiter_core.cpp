#include "calciom/arbiter_core.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <set>
#include <string_view>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/json.hpp"

namespace calciom::core {

std::string toJson(const DecisionRecord& d) {
  sim::Json json;
  json.object(sim::Json::Style::Inline)
      .precise("time", d.time)
      .num("requester", d.requester)
      .array("accessors");
  for (const std::uint32_t a : d.accessors) {
    json.num(a);
  }
  json.close().str("action", toString(d.action));
  if (!d.costs.empty()) {
    json.array("costs");
    for (const ActionCost& c : d.costs) {
      json.object()
          .str("action", toString(c.action))
          .precise("metric_cost", c.metricCost)
          .array("terms");
      for (const AppCost& t : c.terms) {
        json.object()
            .num("cores", t.cores)
            .precise("io_seconds", t.ioSeconds)
            .precise("alone_seconds", t.aloneSeconds)
            .close();
      }
      json.close().close();
    }
    json.close();
  }
  json.close();
  return std::move(json).take();
}

void foldDecisions(sim::Fingerprint& fp,
                   const std::vector<DecisionRecord>& decisions) noexcept {
  for (const DecisionRecord& d : decisions) {
    fp.foldBits(d.time);
    fp.fold(d.requester);
    fp.fold(static_cast<std::uint64_t>(d.action));
    fp.fold(d.accessors.size());
    for (const std::uint32_t a : d.accessors) {
      fp.fold(a);
    }
    for (const ActionCost& c : d.costs) {
      fp.fold(static_cast<std::uint64_t>(c.action));
      fp.foldBits(c.metricCost);
    }
  }
}

void foldGrants(sim::Fingerprint& fp,
                const std::vector<GrantRecord>& grants) noexcept {
  for (const GrantRecord& g : grants) {
    fp.foldBits(g.time);
    fp.fold(g.app);
    fp.fold(g.resume ? 1u : 0u);
  }
}

ArbiterCore::ArbiterCore(std::unique_ptr<Policy> policy)
    : policy_(std::move(policy)) {
  CALCIOM_EXPECTS(policy_ != nullptr);
}

void ArbiterCore::onMessage(sim::Time now, std::uint32_t from,
                            const Message& payload, Commands& out) {
  // Admission filters. Both are opt-in by stamp: messages with a zero seq /
  // incarnation (legacy senders, hand-crafted test traffic) skip them
  // entirely, which is what keeps the hardened core's behavior
  // bit-identical on pre-hardening streams.
  const std::uint64_t inc = payload.incarnation();
  const std::uint64_t seq = payload.seq();  // throws on a command type
  if (AppRecord* const known = apps_.find(from); known != nullptr) {
    AppRecord& rec = *known;
    if (inc < rec.incarnation) {
      // In-flight leftover of a dead predecessor that shared this reused
      // id. Without the fence a delayed predecessor Inform would
      // re-register the dead job and poison the successor's state.
      return;
    }
    if (inc > rec.incarnation) {
      // First contact from a new incarnation: the predecessor is gone even
      // if no scheduler event said so. Reclaim its state, then let the
      // message register the successor fresh (non-Inform messages from an
      // unregistered app are no-ops, exactly right for a successor whose
      // Inform is still in flight).
      onApplicationTerminated(now, from, out);
    } else {
      if (seq != 0) {
        if (seq <= rec.lastSeq) {
          if (audit_) {
            auditInvariants();
          }
          return;  // duplicate, or reordered behind a later-applied message
        }
        rec.lastSeq = seq;
      }
      rec.lastHeard = now;
    }
  }
  switch (payload.type()) {
    case MessageType::Inform:
      onInform(now, from, payload, out);
      break;
    case MessageType::Release:
      onRelease(from, payload);
      break;
    case MessageType::Complete:
      onComplete(now, from, out);
      break;
    case MessageType::PauseAck:
      onPauseAck(now, from, payload, out);
      break;
    case MessageType::Heartbeat:
      onHeartbeat(now, from, payload, out);
      break;
    default:
      CALCIOM_ENSURES(false);  // a command addressed to the arbiter
  }
  if (audit_) {
    auditInvariants();
  }
}

const PolicyContext& ArbiterCore::buildContext(sim::Time now,
                                               const AppRecord& requester) {
  PolicyContext& ctx = context_;
  ctx.requester = requester.desc;
  ctx.now = now;
  ctx.queueLength = waitQueue_.size();
  ctx.accessors.clear();
  for (std::uint32_t id : accessors_) {
    const AppRecord& rec = apps_.at(id);
    ctx.accessors.push_back(PolicyContext::AccessorView{
        rec.desc, rec.progress, rec.grantTime});
  }
  return ctx;
}

void ArbiterCore::onInform(sim::Time now, std::uint32_t app,
                           const Message& payload, Commands& out) {
  if (recovering_ && payload.sessionState() != SessionState::None) {
    // A session answering our Recover broadcast: its Inform carries the
    // full local view, including the protocol state it believes it is in.
    applyRecoveryReport(now, app, payload, out);
    return;
  }
  const std::uint64_t epoch = payload.epoch();
  AppRecord* const existing = apps_.find(app);
  if (existing != nullptr && existing->state != AppState::Idle && epoch != 0) {
    AppRecord& known = *existing;
    if (epoch == known.epoch) {
      // Retransmission of an Inform already admitted (the session's retry
      // timer fired because either its Inform or our Grant was lost). The
      // request must not be re-queued — that would double-book the app.
      // Refresh the descriptor; if access was already granted, the Grant is
      // what got lost: say it again (cmdSeq-filtered at the session).
      known.desc = payload.descriptor();
      if (known.state == AppState::Accessing) {
        emit(now, app, CommandType::Grant, out);
      }
      return;
    }
    // A new phase announced while the previous one never closed: the
    // Complete was lost in flight. Close the old phase first (resuming the
    // paused, admitting the queue), then register the new request below.
    onComplete(now, app, out);
  }

  // The only insert of a regular message; onComplete above moves no record,
  // and nothing below inserts or erases while `rec` is held.
  AppRecord& rec = apps_.upsert(app);
  rec.desc = payload.descriptor();
  rec.state = AppState::Waiting;
  rec.progress = 0.0;
  rec.requestTime = now;
  rec.epoch = epoch;
  rec.incarnation = payload.incarnation();
  rec.lastSeq = std::max(rec.lastSeq, payload.seq());
  rec.lastHeard = now;

  if (recovering_) {
    // No scheduling decisions inside the reconciliation window: the
    // accessor set is still being rebuilt from reports, so any grant now
    // could double-book the resource. Park the request; closing the window
    // admits it through the normal queue.
    waitQueue_.push_back(app);
    return;
  }

  // No one is writing and no interrupt is settling: grant immediately.
  if (accessors_.empty() && !pendingInterrupter_ && pausedStack_.empty() &&
      waitQueue_.empty()) {
    grant(now, app, out);
    return;
  }
  // While an interrupt is in flight (or apps are paused), newcomers queue;
  // re-deciding mid-transition would interleave pause/grant messages.
  if (pendingInterrupter_ || accessors_.empty()) {
    waitQueue_.push_back(app);
    return;
  }

  const PolicyContext& ctx = buildContext(now, rec);
  DecisionRecord record;
  record.time = now;
  record.requester = app;
  record.accessors = accessors_;
  if (const auto* dynamic = dynamic_cast<const DynamicPolicy*>(policy_.get())) {
    // Evaluated once: with accessors present, decide() is exactly the
    // cheapest of these costs.
    record.costs = dynamic->evaluate(ctx);
    CALCIOM_ENSURES(!record.costs.empty());
    record.action = record.costs.front().action;
  } else {
    record.action = policy_->decide(ctx);
  }
  const Action action = record.action;
  decisions_.push_back(std::move(record));

  switch (action) {
    case Action::Interfere:
      grant(now, app, out);
      break;
    case Action::Queue:
      waitQueue_.push_back(app);
      break;
    case Action::Interrupt:
      waitQueue_.insert(waitQueue_.begin(), app);
      beginInterrupt(now, app, out);
      break;
  }
}

void ArbiterCore::onRelease(std::uint32_t app, const Message& payload) {
  AppRecord* const rec = apps_.find(app);
  if (rec == nullptr) {
    return;
  }
  rec->progress = std::clamp(payload.progress().value_or(rec->progress),
                             0.0, 1.0);
}

void ArbiterCore::onComplete(sim::Time now, std::uint32_t app, Commands& out) {
  AppRecord* const found = apps_.find(app);
  if (found == nullptr) {
    return;
  }
  AppRecord& rec = *found;
  const bool wasPauseRequested = rec.state == AppState::PauseRequested;
  rec.state = AppState::Idle;
  rec.progress = 1.0;
  detachAccessor(app);
  removeFrom(waitQueue_, app);
  removeFrom(pausedStack_, app);

  // The completing application may itself be the interrupter whose grant
  // is still settling: abandon the interrupt, exactly like a terminated
  // interrupter (acks that still arrive resume via onPauseAck's
  // no-interrupter path). Unreachable through the live Session protocol (an
  // interrupter completes only after its grant) but reachable in offline
  // oracle replays, where the captured stream's completion times come from
  // a different schedule — without this, the settled interrupt would
  // re-grant the completed application and stall the queue forever.
  if (pendingInterrupter_ && *pendingInterrupter_ == app) {
    pendingInterrupter_.reset();
    pendingAcks_ = 0;
  }

  // An accessor that finished before acknowledging its pause counts as an
  // implicit ack: nothing is left to pause.
  if (wasPauseRequested && pendingInterrupter_) {
    CALCIOM_ENSURES(pendingAcks_ > 0);
    if (--pendingAcks_ == 0) {
      const std::uint32_t next = *pendingInterrupter_;
      pendingInterrupter_.reset();
      removeFrom(waitQueue_, next);
      grant(now, next, out);
    }
    return;
  }
  admitNext(now, out);
}

void ArbiterCore::onPauseAck(sim::Time now, std::uint32_t app,
                             const Message& payload, Commands& out) {
  AppRecord* const rec = apps_.find(app);
  if (rec == nullptr || rec->state != AppState::PauseRequested) {
    // Unknown app, or a replayed/reordered ack for a pause that already
    // settled (the app has since resumed or completed): a no-op.
    return;
  }
  rec->progress = std::clamp(payload.progress().value_or(rec->progress),
                             0.0, 1.0);
  applyPauseAck(now, app, out);
}

void ArbiterCore::applyPauseAck(sim::Time now, std::uint32_t app,
                                Commands& out) {
  AppRecord& rec = apps_.at(app);
  CALCIOM_EXPECTS(rec.state == AppState::PauseRequested);
  rec.state = AppState::Paused;
  rec.pausedAt = now;
  detachAccessor(app);
  pausedStack_.push_back(app);
  if (pendingInterrupter_) {
    CALCIOM_ENSURES(pendingAcks_ > 0);
    if (--pendingAcks_ == 0) {
      const std::uint32_t next = *pendingInterrupter_;
      pendingInterrupter_.reset();
      removeFrom(waitQueue_, next);
      grant(now, next, out);
    }
  } else {
    // The interrupter vanished before this ack arrived (terminated job):
    // resume whoever just paused for nothing.
    admitNext(now, out);
  }
}

void ArbiterCore::onHeartbeat(sim::Time now, std::uint32_t app,
                              const Message& payload, Commands& out) {
  AppRecord* const found = apps_.find(app);
  if (found == nullptr) {
    if (recovering_) {
      // A live session we hold no record of — it registered inside the
      // un-checkpointed tail. A heartbeat carries no descriptor to
      // re-register from, so ask for the full view instead. Raw command
      // (cmdSeq 0): there is no record to stamp from, and the session
      // skips its replay filter for unstamped sequences.
      out.push_back(ArbiterCommand{app, CommandType::Recover, /*epoch=*/0,
                                   /*cmdSeq=*/0, /*incarnation=*/0,
                                   incarnation_});
      ++recoverIssued_;
    }
    return;  // never informed, or already reclaimed — Inform retry re-admits
  }
  AppRecord& rec = *found;
  rec.lastHeard = now;  // the renewal (idempotent with onMessage's update)
  rec.progress =
      std::clamp(payload.progress().value_or(rec.progress), 0.0, 1.0);
  const std::uint64_t epoch = payload.epoch();
  const SessionState state = payload.sessionState();
  if (state == SessionState::None || epoch == 0) {
    return;  // plain keepalive: renewal only
  }
  if (epoch > rec.epoch || state == SessionState::Idle) {
    // The session is already past the phase we still hold open: its
    // Complete was lost. Close the phase; a next-phase Inform (possibly a
    // retry) re-registers it.
    if (rec.state != AppState::Idle) {
      onComplete(now, app, out);
    }
    return;
  }
  if (epoch < rec.epoch) {
    return;  // stale heartbeat from an earlier phase
  }
  switch (rec.state) {
    case AppState::Accessing:
      // The session missed the message that made it an accessor.
      if (state == SessionState::Waiting && canRepair(now, rec)) {
        emit(now, app, CommandType::Grant, out);
      } else if (state == SessionState::Paused && canRepair(now, rec)) {
        emit(now, app, CommandType::Resume, out);
      }
      break;
    case AppState::PauseRequested:
      if (state == SessionState::Paused) {
        // The PauseAck was lost; the heartbeat is as good as the ack.
        applyPauseAck(now, app, out);
      } else if (state == SessionState::Accessing && canRepair(now, rec)) {
        emit(now, app, CommandType::Pause, out);  // the Pause was lost
      } else if (state == SessionState::Waiting && canRepair(now, rec)) {
        emit(now, app, CommandType::Grant, out);  // it missed the Grant too
      }
      break;
    case AppState::Waiting:
      if (recovering_ && state == SessionState::Accessing) {
        // Restored record says Waiting, the live session says it holds the
        // grant — issued inside the un-checkpointed tail. Reinstate, as a
        // recovery report would: revoking a real grant mid-write is the
        // one reconciliation that could corrupt data.
        removeFrom(waitQueue_, app);
        rec.state = AppState::Accessing;
        rec.grantTime = now;
        attachAccessor(app);
        ++grants_;
        grantLog_.push_back(GrantRecord{now, app, /*resume=*/false});
        ++reinstated_;
      }
      break;
    case AppState::Paused:
    case AppState::Idle:
      // Nothing to reconcile: a Paused session reporting "accessing" is
      // impossible through filtered commands, and Idle records carry no
      // obligations.
      break;
  }
}

void ArbiterCore::onTick(sim::Time now, Commands& out) {
  bool windowJustClosed = false;
  if (recovering_) {
    if (now < recoveryDeadline_) {
      // Inside the reconciliation window: no sweeps (restored lease clocks
      // predate the crash — sweeping now would reclaim every app before it
      // could answer) and no admissions.
      if (audit_) {
        auditInvariants();
      }
      return;
    }
    recovering_ = false;
    windowJustClosed = true;
  }
  if (!leases_.enabled() && !windowJustClosed) {
    return;
  }
  if (leases_.enabled()) {
    // Expire leases of silent non-Idle applications. Two passes because the
    // reclamation erases from apps_; its ascending-id iteration keeps this
    // deterministic. Right after a reconciliation window this sweep is what
    // reclaims the apps that never answered the Recover broadcast: their
    // restored lastHeard predates the crash, so they are over-lease by
    // construction — dead or degraded either way.
    std::vector<std::uint32_t> expired;
    for (const auto& [id, rec] : apps_) {
      if (rec.state != AppState::Idle &&
          now - rec.lastHeard > leases_.leaseSeconds) {
        expired.push_back(id);
      }
    }
    for (const std::uint32_t id : expired) {
      ++leaseReclaims_;
      onApplicationTerminated(now, id, out);
    }
    // Retransmit Pause to accessors that never acknowledged — a lost Pause
    // would otherwise park the interrupter forever (the accessor keeps
    // writing, oblivious).
    if (pendingInterrupter_) {
      for (const std::uint32_t id : accessors_) {
        AppRecord& rec = apps_.at(id);
        if (rec.state == AppState::PauseRequested && canRepair(now, rec)) {
          emit(now, id, CommandType::Pause, out);
        }
      }
    }
  }
  if (windowJustClosed) {
    // Resume normal admission over the rebuilt state (after the sweep, so
    // a dead waiter is not granted only to be reclaimed next tick).
    admitNext(now, out);
  }
  if (audit_) {
    auditInvariants();
  }
}

void ArbiterCore::onApplicationTerminated(sim::Time now, std::uint32_t appId,
                                          Commands& out) {
  if (!apps_.contains(appId)) {
    return;
  }
  // Equivalent to an implicit Complete: frees access, queue position and
  // pause state, lets the schedule make progress, and — if the dying
  // application was itself waiting for accessors to pause — abandons the
  // interrupt (onComplete's pending-interrupter reset).
  onComplete(now, appId, out);
  apps_.erase(appId);
}

void ArbiterCore::configureLeases(const LeaseConfig& leases) {
  CALCIOM_EXPECTS(leases.leaseSeconds >= 0.0);
  CALCIOM_EXPECTS(leases.commandRetrySeconds >= 0.0);
  leases_ = leases;
}

std::optional<double> ArbiterCore::appProgress(std::uint32_t app) const {
  const AppRecord* const rec = apps_.find(app);
  if (rec == nullptr) {
    return std::nullopt;
  }
  return rec->progress;
}

void ArbiterCore::emit(sim::Time now, std::uint32_t app, CommandType type,
                       Commands& out) {
  AppRecord& rec = apps_.at(app);
  rec.lastCommandAt = now;
  out.push_back(ArbiterCommand{app, type, rec.epoch, ++rec.cmdSeq,
                               rec.incarnation, incarnation_});
}

void ArbiterCore::grant(sim::Time now, std::uint32_t app, Commands& out) {
  AppRecord& rec = apps_.at(app);
  rec.state = AppState::Accessing;
  rec.grantTime = now;
  attachAccessor(app);
  ++grants_;
  grantLog_.push_back(GrantRecord{now, app, /*resume=*/false});
  cpuSecondsWaited_ +=
      (now - rec.requestTime) * static_cast<double>(rec.desc.cores);
  emit(now, app, CommandType::Grant, out);
}

void ArbiterCore::beginInterrupt(sim::Time now, std::uint32_t requester,
                                 Commands& out) {
  CALCIOM_EXPECTS(!pendingInterrupter_);
  CALCIOM_EXPECTS(!accessors_.empty());
  pendingInterrupter_ = requester;
  pendingAcks_ = 0;
  // Iterate a copy: emit() touches the record, and accessors_ must not be
  // mutated mid-walk if a future transition ever folds into emit.
  const std::vector<std::uint32_t> current = accessors_;
  for (std::uint32_t id : current) {
    AppRecord& rec = apps_.at(id);
    if (rec.state == AppState::Accessing) {
      rec.state = AppState::PauseRequested;
      ++pendingAcks_;
      ++pauses_;
      emit(now, id, CommandType::Pause, out);
    } else if (rec.state == AppState::PauseRequested) {
      // A previous interrupt was abandoned (its requester completed or
      // terminated before the pause settled) and this accessor's ack is
      // still owed: it counts toward the new interrupt, without a second
      // Pause command.
      ++pendingAcks_;
    }
  }
  CALCIOM_ENSURES(pendingAcks_ > 0);
}

void ArbiterCore::admitNext(sim::Time now, Commands& out) {
  if (recovering_) {
    return;  // no admissions until the reconciliation window closes
  }
  if (!accessors_.empty() || pendingInterrupter_) {
    return;  // the system is still busy (or an interrupt is settling)
  }
  // Resume preempted applications before admitting new ones.
  if (!pausedStack_.empty()) {
    const std::uint32_t app = pausedStack_.back();
    pausedStack_.pop_back();
    AppRecord& rec = apps_.at(app);
    rec.state = AppState::Accessing;
    rec.grantTime = now;
    attachAccessor(app);
    grantLog_.push_back(GrantRecord{now, app, /*resume=*/true});
    cpuSecondsWaited_ +=
        (now - rec.pausedAt) * static_cast<double>(rec.desc.cores);
    emit(now, app, CommandType::Resume, out);
    return;
  }
  if (!waitQueue_.empty()) {
    const std::uint32_t app = waitQueue_.front();
    waitQueue_.erase(waitQueue_.begin());
    grant(now, app, out);
  }
}

void ArbiterCore::removeFrom(std::vector<std::uint32_t>& v,
                             std::uint32_t app) {
  v.erase(std::remove(v.begin(), v.end(), app), v.end());
}

void ArbiterCore::attachAccessor(std::uint32_t app) {
  CALCIOM_EXPECTS(apps_.contains(app));
  accessors_.push_back(app);
  maxAccessors_ = std::max(maxAccessors_, accessors_.size());
}

void ArbiterCore::detachAccessor(std::uint32_t app) {
  removeFrom(accessors_, app);
}

void ArbiterCore::applyRecoveryReport(sim::Time now, std::uint32_t app,
                                      const Message& payload, Commands& out) {
  const SessionState claim = payload.sessionState();
  const AppRecord* const found = apps_.find(app);
  if (claim == SessionState::Idle) {
    // The phase the restored record holds open already closed at the
    // session (its Complete died in the crash window). Close it here too.
    if (found != nullptr && found->state != AppState::Idle) {
      onComplete(now, app, out);
    }
    return;
  }
  const bool known = found != nullptr;
  const AppState prior = known ? found->state : AppState::Idle;
  // The insert may move every record: `found` is dead from here, and
  // nothing below inserts or erases while `rec` is held.
  AppRecord& rec = apps_.upsert(app);
  rec.desc = payload.descriptor();
  rec.progress =
      std::clamp(payload.progress().value_or(rec.progress), 0.0, 1.0);
  if (payload.epoch() != 0) {
    rec.epoch = payload.epoch();
  }
  if (payload.incarnation() != 0) {
    rec.incarnation = payload.incarnation();
  }
  rec.lastSeq = std::max(rec.lastSeq, payload.seq());
  rec.lastHeard = now;
  if (!known) {
    // The checkpoint predates this app entirely: conservative clocks, so
    // pricing starts at the report, not at a time the core never saw.
    rec.requestTime = now;
    rec.grantTime = now;
    rec.pausedAt = now;
  }
  // Detach from every container, then re-attach per the claim.
  detachAccessor(app);
  removeFrom(waitQueue_, app);
  removeFrom(pausedStack_, app);
  if (claim == SessionState::Accessing) {
    // The session holds a grant the restored state may have lost in the
    // un-checkpointed tail. The session's view wins: under an exclusive
    // policy at most one in-epoch session can legitimately believe this
    // (every grant passed the pre-crash core's own gate), and revoking a
    // real grant mid-write is the one reconciliation that could corrupt
    // data.
    if (prior != AppState::Accessing && prior != AppState::PauseRequested) {
      rec.grantTime = now;
      ++grants_;
      grantLog_.push_back(GrantRecord{now, app, /*resume=*/false});
      ++reinstated_;
    }
    rec.state = AppState::Accessing;
    attachAccessor(app);
  } else if (claim == SessionState::Paused) {
    if (prior != AppState::Paused) {
      rec.pausedAt = now;  // the real pause settled inside the lost tail
    }
    rec.state = AppState::Paused;
    pausedStack_.push_back(app);
  } else {
    // Waiting.
    if (prior == AppState::Accessing || prior == AppState::PauseRequested) {
      // The restored state granted access but the Grant command died with
      // the crash: reconcile toward the arbiter's grant, as the heartbeat
      // repair path does.
      rec.state = AppState::Accessing;
      attachAccessor(app);
      emit(now, app, CommandType::Grant, out);
    } else {
      rec.state = AppState::Waiting;
      waitQueue_.push_back(app);
    }
  }
}

ArbiterSnapshot ArbiterCore::snapshot(sim::Time now) const {
  ArbiterSnapshot s;
  s.takenAt = now;
  s.arbiterIncarnation = incarnation_;
  s.apps.reserve(apps_.size());
  for (const auto& [id, rec] : apps_) {
    ArbiterSnapshot::AppEntry e;
    e.id = id;
    e.desc = rec.desc;
    e.state = static_cast<int>(rec.state);
    e.progress = rec.progress;
    e.requestTime = rec.requestTime;
    e.grantTime = rec.grantTime;
    e.pausedAt = rec.pausedAt;
    e.incarnation = rec.incarnation;
    e.lastSeq = rec.lastSeq;
    e.epoch = rec.epoch;
    e.cmdSeq = rec.cmdSeq;
    e.lastHeard = rec.lastHeard;
    e.lastCommandAt = rec.lastCommandAt;
    s.apps.push_back(std::move(e));
  }
  s.accessors = accessors_;
  s.waitQueue = waitQueue_;
  s.pausedStack = pausedStack_;
  s.pendingInterrupter = pendingInterrupter_;
  s.pendingAcks = pendingAcks_;
  s.grants = grants_;
  s.pauses = pauses_;
  s.leaseReclaims = leaseReclaims_;
  s.maxAccessors = maxAccessors_;
  s.cpuSecondsWaited = cpuSecondsWaited_;
  s.decisions = decisions_;
  s.grantLog = grantLog_;
  return s;
}

void ArbiterCore::restore(const ArbiterSnapshot& snap) {
  apps_.clear();
  for (const auto& e : snap.apps) {
    AppRecord rec;
    rec.desc = e.desc;
    rec.state = static_cast<AppState>(e.state);
    rec.progress = e.progress;
    rec.requestTime = e.requestTime;
    rec.grantTime = e.grantTime;
    rec.pausedAt = e.pausedAt;
    rec.incarnation = e.incarnation;
    rec.lastSeq = e.lastSeq;
    rec.epoch = e.epoch;
    rec.cmdSeq = e.cmdSeq;
    rec.lastHeard = e.lastHeard;
    rec.lastCommandAt = e.lastCommandAt;
    apps_.upsert(e.id) = std::move(rec);
  }
  accessors_ = snap.accessors;
  waitQueue_ = snap.waitQueue;
  pausedStack_ = snap.pausedStack;
  pendingInterrupter_ = snap.pendingInterrupter;
  pendingAcks_ = snap.pendingAcks;
  grants_ = snap.grants;
  pauses_ = snap.pauses;
  leaseReclaims_ = snap.leaseReclaims;
  maxAccessors_ = snap.maxAccessors;
  cpuSecondsWaited_ = snap.cpuSecondsWaited;
  decisions_ = snap.decisions;
  grantLog_ = snap.grantLog;
  incarnation_ = snap.arbiterIncarnation;
  recovering_ = false;
  recoveryDeadline_ = 0.0;
  // policy_, leases_, audit_ stay: configuration of this process, not
  // protocol state of the snapshotted one.
  if (audit_) {
    auditInvariants();
  }
}

void ArbiterCore::beginRecovery(sim::Time now, double windowSeconds,
                                std::uint64_t incarnation, Commands& out) {
  CALCIOM_EXPECTS(windowSeconds >= 0.0);
  CALCIOM_EXPECTS(incarnation > incarnation_);
  incarnation_ = incarnation;
  recovering_ = true;
  recoveryDeadline_ = now + windowSeconds;
  // A half-settled interrupt in the restored state is unrecoverable as-is:
  // its Pause commands and any acks died with the old process. Abandon it —
  // PauseRequested accessors never stopped writing, so they are plain
  // accessors again, and the interrupter keeps its queue-front slot.
  pendingInterrupter_.reset();
  pendingAcks_ = 0;
  for (auto& [id, rec] : apps_) {
    if (rec.state == AppState::PauseRequested) {
      rec.state = AppState::Accessing;
    }
  }
  // Ask every non-Idle application for its local view. Epoch 0 on purpose:
  // the restored epoch may trail the session's (it advanced phases inside
  // the lost tail) and a stamped Recover would be dropped as stale by the
  // very session it must reach.
  for (auto& [id, rec] : apps_) {
    if (rec.state == AppState::Idle) {
      continue;
    }
    rec.lastCommandAt = now;
    out.push_back(ArbiterCommand{id, CommandType::Recover, /*epoch=*/0,
                                 ++rec.cmdSeq, rec.incarnation, incarnation_});
    ++recoverIssued_;
  }
  if (audit_) {
    auditInvariants();
  }
}

Message encodeCommand(const ArbiterCommand& cmd) {
  Message m = Message::command(cmd.type);
  m.setCmdSeq(cmd.cmdSeq);
  m.setEpoch(cmd.epoch);
  m.setIncarnation(cmd.incarnation);
  m.setArbiterIncarnation(cmd.arbiterIncarnation);
  return m;
}

namespace {
/// 16 hex digits of the IEEE-754 bit pattern: the bit-exact double
/// encoding of encodeSnapshot (a %g rendering could collide two distinct
/// values and hide a real divergence behind an equal string).
void appendBits(std::string& out, double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

/// `tag` then the decimal digits of `v`, as std::to_string renders them,
/// appended in place: no temporary string, so no `" " + to_string(x)`
/// concatenation for -O3 to inline into a spurious -Wrestrict (GCC 12).
template <std::integral T>
void appendInt(std::string& out, std::string_view tag, T v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out += tag;
  out.append(buf, end);
}
}  // namespace

std::string encodeSnapshot(const ArbiterSnapshot& s) {
  std::string out = "calciom-snapshot v1\nt ";
  appendBits(out, s.takenAt);
  appendInt(out, "\ninc ", s.arbiterIncarnation);
  appendInt(out, "\ncounters g ", s.grants);
  appendInt(out, " p ", s.pauses);
  appendInt(out, " lr ", s.leaseReclaims);
  appendInt(out, " ma ", s.maxAccessors);
  out += " w ";
  appendBits(out, s.cpuSecondsWaited);
  if (s.pendingInterrupter) {
    appendInt(out, "\npending ", *s.pendingInterrupter);
  } else {
    out += "\npending -";
  }
  appendInt(out, " acks ", s.pendingAcks);
  const auto idList = [&out](std::string_view tag,
                             const std::vector<std::uint32_t>& v) {
    out += "\n";
    out += tag;
    for (const std::uint32_t id : v) {
      appendInt(out, " ", id);
    }
  };
  idList("acc", s.accessors);
  idList("queue", s.waitQueue);
  idList("paused", s.pausedStack);
  for (const auto& a : s.apps) {
    appendInt(out, "\napp ", a.id);
    appendInt(out, " s", a.state);
    out += " pr ";
    appendBits(out, a.progress);
    out += " rt ";
    appendBits(out, a.requestTime);
    out += " gt ";
    appendBits(out, a.grantTime);
    out += " pa ";
    appendBits(out, a.pausedAt);
    appendInt(out, " in ", a.incarnation);
    appendInt(out, " sq ", a.lastSeq);
    appendInt(out, " ep ", a.epoch);
    appendInt(out, " cs ", a.cmdSeq);
    out += " lh ";
    appendBits(out, a.lastHeard);
    out += " lc ";
    appendBits(out, a.lastCommandAt);
    appendInt(out, " d ", a.desc.appId);
    appendInt(out, " ", a.desc.cores);
    appendInt(out, " ", a.desc.totalBytes);
    appendInt(out, " ", a.desc.files);
    appendInt(out, " ", a.desc.roundsPerFile);
    appendInt(out, " ", a.desc.bytesPerRound);
    out += " ";
    appendBits(out, a.desc.estAloneSeconds);
    out += " ";
    out += a.desc.appName;
  }
  for (const auto& d : s.decisions) {
    out += "\nd ";
    appendBits(out, d.time);
    appendInt(out, " ", d.requester);
    appendInt(out, " a", static_cast<int>(d.action));
    for (const std::uint32_t id : d.accessors) {
      appendInt(out, " ", id);
    }
    for (const auto& c : d.costs) {
      appendInt(out, " c", static_cast<int>(c.action));
      out += ":";
      appendBits(out, c.metricCost);
      for (const auto& t : c.terms) {
        appendInt(out, ",", t.cores);
        out += ":";
        appendBits(out, t.ioSeconds);
        out += ":";
        appendBits(out, t.aloneSeconds);
      }
    }
  }
  for (const auto& g : s.grantLog) {
    out += "\ng ";
    appendBits(out, g.time);
    appendInt(out, " ", g.app);
    out += g.resume ? " r" : " g";
  }
  out += "\n";
  return out;
}

void ArbiterCore::auditInvariants() const {
  std::set<std::uint32_t> seen;
  for (const std::uint32_t id : accessors_) {
    const AppRecord& rec = apps_.at(id);
    CALCIOM_ENSURES(seen.insert(id).second);
    CALCIOM_ENSURES(rec.state == AppState::Accessing ||
                    rec.state == AppState::PauseRequested);
  }
  for (const std::uint32_t id : waitQueue_) {
    CALCIOM_ENSURES(seen.insert(id).second);
    CALCIOM_ENSURES(apps_.at(id).state == AppState::Waiting);
  }
  for (const std::uint32_t id : pausedStack_) {
    CALCIOM_ENSURES(seen.insert(id).second);
    CALCIOM_ENSURES(apps_.at(id).state == AppState::Paused);
  }
  if (pendingInterrupter_) {
    CALCIOM_ENSURES(pendingAcks_ > 0);
    int owed = 0;
    for (const std::uint32_t id : accessors_) {
      if (apps_.at(id).state == AppState::PauseRequested) {
        ++owed;
      }
    }
    CALCIOM_ENSURES(owed == pendingAcks_);
  }
}

}  // namespace calciom::core
