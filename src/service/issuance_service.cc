#include "service/issuance_service.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "persist/checkpoint.h"
#include "validation/validate.h"
#include "util/check.h"
#include "util/request_arena.h"
#include "util/stopwatch.h"

namespace geolic {
namespace {

// Cooperative suspension point for the simulation harness; a no-op branch
// in production (hooks are null). Call sites must hold no locks.
inline void SimYield(const OnlineValidatorOptions& options,
                     const char* point) {
  if (options.sim_hooks != nullptr) {
    options.sim_hooks->Yield(point);
  }
}

// Request timer that reads the simulation's virtual clock when hooks are
// installed (making latency metrics a deterministic function of the seed)
// and the monotonic wall clock otherwise.
class RequestTimer {
 public:
  explicit RequestTimer(SimHooks* hooks)
      : hooks_(hooks), sim_start_(hooks != nullptr ? hooks->NowNanos() : 0) {}

  int64_t ElapsedNanos() const {
    if (hooks_ != nullptr) {
      return static_cast<int64_t>(hooks_->NowNanos() - sim_start_);
    }
    return real_.ElapsedNanos();
  }

 private:
  SimHooks* hooks_;
  uint64_t sim_start_;
  Stopwatch real_;
};

// Leading words of a service-checkpoint payload: a sentinel no journal
// sequence can equal, then the layout version. Recovery rejects any other
// pair.
constexpr uint64_t kCheckpointV3Sentinel = ~uint64_t{0};
constexpr uint32_t kCheckpointV3Version = 3;

// Upper end of an ordered constraint range (for a multi-interval: the last
// piece's hi — pieces are kept sorted and disjoint).
Result<int64_t> OrderedHi(const ConstraintRange& range) {
  if (range.is_interval()) {
    return range.interval().hi();
  }
  if (range.is_multi_interval() &&
      range.multi_interval().piece_count() > 0) {
    return range.multi_interval().pieces().back().hi();
  }
  return Status::InvalidArgument(
      "expiry needs an ordered (interval) dimension");
}

// Ascending indexes of the licenses whose `dim` range ends strictly below
// `cutoff` — the expiry rule, shared between the live path and journal
// replay so the two can never disagree.
Result<std::vector<int>> ComputeExpired(const std::vector<License>& active,
                                        int dim, int64_t cutoff) {
  std::vector<int> expired;
  for (size_t i = 0; i < active.size(); ++i) {
    const HyperRect& rect = active[i].rect();
    if (dim < 0 || dim >= rect.dimensions()) {
      return Status::OutOfRange("expiry dimension out of range");
    }
    GEOLIC_ASSIGN_OR_RETURN(const int64_t hi, OrderedHi(rect.dim(dim)));
    if (hi < cutoff) {
      expired.push_back(static_cast<int>(i));
    }
  }
  return expired;
}

// Renumbers a surviving record's set densely through `old_to_new` (paper
// Algorithm 5). Callers drop records whose set touches a removed license
// first: usage granted under a revoked right is revoked with it.
LicenseSet Renumber(const LicenseSet& set, const std::vector<int>& old_to_new) {
  LicenseSet renumbered;
  for (int i : set.Indexes()) {
    renumbered.Add(old_to_new[static_cast<size_t>(i)]);
  }
  return renumbered;
}

// What a reconfiguration does with one old shard.
struct ShardCarry {
  // New shard that takes the old shard object as-is; -1 = rebuild.
  int to = -1;
  // The shard's old groups that lose a license. The carry stands only
  // while none of them holds a record (checked on the slack tables under the
  // shard lock, and again at the cut).
  std::vector<LicenseSet> must_stay_empty;
};

// The carry rule. Groups share no equations (Theorem 2), so a
// reconfiguration only has to re-divide the groups it changes. Old shard
// `s` is carried into new shard `n` when
//  * every old group of `s` that loses no license reappears in the new
//    grouping with its exact mask, and old_to_new is the identity on it,
//    so its records keep their sets;
//  * every other old group of `s` holds no records (`must_stay_empty`);
//  * `n`'s groups are exactly those kept groups, plus at most the
//    singleton group of a newly acquired license (which holds nothing).
// Groups are compared by mask, never by id: ids shift whenever a group
// below them merges, splits or vanishes. Carries are kept strictly
// ascending in both old and new shard index, so consecutive epochs agree
// on the relative order of every shard they share and locking "in index
// order" stays one global order. Result: one entry per old shard.
std::vector<ShardCarry> PlanCarries(const LicenseGrouping& before,
                                    size_t before_shards,
                                    const LicenseGrouping& after,
                                    size_t after_shards,
                                    const LicenseSet& removed, int acquired,
                                    const std::vector<int>& old_to_new) {
  // Group g lives on shard g % shards, so a shard's groups are the stride
  // s, s + shards, s + 2·shards, …, in ascending order of lowest license.
  const int old_groups = before.group_count();
  const int new_groups = after.group_count();
  const int old_stride = static_cast<int>(before_shards);
  const int new_stride = static_cast<int>(after_shards);
  const LicenseSet acquired_group =
      acquired >= 0 ? LicenseSet::Singleton(acquired) : LicenseSet();
  // The first group at or after `g` on g's new shard that is not the
  // acquired singleton (new_groups when there is none).
  const auto next_wanted = [&](int g) {
    while (g < new_groups && after.GroupMask(g) == acquired_group) {
      g += new_stride;
    }
    return g;
  };
  std::vector<ShardCarry> carries(before_shards);
  int last_from = -1;
  for (int n = 0; n < new_stride; ++n) {
    int want = next_wanted(n);
    if (want >= new_groups) {
      continue;
    }
    // The only candidate is the old shard that owned the first wanted
    // group's lowest license (under the identity, the index is unchanged).
    // That license is never the acquired one, which sorts last.
    const int lowest = after.GroupMask(want).Lowest();
    if (old_to_new[static_cast<size_t>(lowest)] != lowest) {
      continue;
    }
    const int s = before.GroupOf(lowest) % old_stride;
    if (s <= last_from) {
      continue;
    }
    // Walk both stripes in step: each old group that loses no license must
    // be the next wanted group, and n must have none left over.
    ShardCarry carry;
    bool match = true;
    for (int g = s; match && g < old_groups; g += old_stride) {
      const LicenseSet mask = before.GroupMask(g);
      if (mask.Intersects(removed)) {
        carry.must_stay_empty.push_back(mask);
        continue;
      }
      // Dense renumbering only shifts indexes down, so the identity on a
      // mask's highest license implies it on every lower one.
      const int top = mask.Highest();
      match = want < new_groups && after.GroupMask(want) == mask &&
              old_to_new[static_cast<size_t>(top)] == top;
      want = next_wanted(want + new_stride);
    }
    if (match && want >= new_groups) {
      carry.to = n;
      carries[static_cast<size_t>(s)] = std::move(carry);
      last_from = s;
    }
  }
  return carries;
}

// `set`'s scope-local word: bit p for its scope's p-th license.
uint64_t LocalWord(const LicenseGrouping& scopes, const LicenseSet& set) {
  uint64_t word = 0;
  for (int i : set.Indexes()) {
    word |= uint64_t{1} << scopes.PositionOf(i);
  }
  return word;
}

// Calls fn(t, last) for every local word t with s ⊆ t ⊆ full in ascending
// order — the (x − rest) & rest step over the subsets of rest = full ∖ s —
// until fn returns false; `last` flags t == full.
template <typename Fn>
void ForEachSuperset(uint64_t s, uint64_t full, Fn&& fn) {
  const uint64_t rest = full & ~s;
  for (uint64_t sub = 0;; sub = (sub - rest) & rest) {
    if (!fn(s | sub, sub == rest) || sub == rest) {
      return;
    }
  }
}

// Charges a record of `count` against local set `s`: every equation T ⊇ S
// gains it on the left, so its slack shrinks by it.
void Charge(std::vector<int64_t>* slack, uint64_t s, int64_t count) {
  ForEachSuperset(s, slack->size() - 1, [&](uint64_t t, bool) {
    (*slack)[t] -= count;
    return true;
  });
}

// How one journaled reconfiguration transforms license indexes.
struct CatalogEvolution {
  LicenseSet removed;           // Old-space indexes dropped (empty: acquire).
  std::vector<int> old_to_new;  // Surviving old index → new index, else -1.
};

// Applies one reconfiguration frame to the evolving catalog `active`,
// cross-checking the frame against what the live service would have done.
// Admission frames are not accepted here.
Status EvolveCatalog(const JournalEntry& entry, std::vector<License>* active,
                     CatalogEvolution* evolution) {
  evolution->removed = LicenseSet();
  evolution->old_to_new.clear();
  const int old_size = static_cast<int>(active->size());
  switch (entry.kind) {
    case JournalEntryKind::kAdmission:
      return Status::Internal("admission frame is not a reconfiguration");
    case JournalEntryKind::kTenantOp:
      // Tenant-tagged frames belong to the multi-tenant catalog's shared
      // journals (catalog/catalog_service.h), never to a single service's
      // own WAL.
      return Status::ParseError(
          "tenant-tagged frame in a single-service journal");
    case JournalEntryKind::kAcquire:
      evolution->old_to_new.reserve(static_cast<size_t>(old_size));
      for (int i = 0; i < old_size; ++i) {
        evolution->old_to_new.push_back(i);
      }
      active->push_back(*entry.acquired);
      return Status::Ok();
    case JournalEntryKind::kRevoke: {
      if (entry.revoked_index < 0 || entry.revoked_index >= old_size) {
        return Status::ParseError("revoke frame index out of range");
      }
      const License& victim =
          (*active)[static_cast<size_t>(entry.revoked_index)];
      if (victim.id() != entry.revoked_id) {
        return Status::ParseError(
            "revoke frame id disagrees with the catalog evolution");
      }
      evolution->removed.Add(entry.revoked_index);
      break;
    }
    case JournalEntryKind::kExpire: {
      GEOLIC_ASSIGN_OR_RETURN(
          const std::vector<int> expired,
          ComputeExpired(*active, entry.expire_dim, entry.expire_cutoff));
      if (expired.empty()) {
        // The live service never journals a no-op expiry.
        return Status::ParseError("expire frame removed no licenses");
      }
      if (expired != entry.expired_indexes) {
        return Status::ParseError(
            "expire frame's removed set disagrees with the catalog evolution");
      }
      for (int i : expired) {
        evolution->removed.Add(i);
      }
      break;
    }
  }
  if (evolution->removed.Size() >= old_size) {
    return Status::ParseError(
        "reconfiguration frame would empty the catalog");
  }
  evolution->old_to_new.reserve(static_cast<size_t>(old_size));
  int next = 0;
  for (int i = 0; i < old_size; ++i) {
    evolution->old_to_new.push_back(
        evolution->removed.Contains(i) ? -1 : next++);
  }
  std::vector<License> survivors;
  survivors.reserve(static_cast<size_t>(old_size) -
                    static_cast<size_t>(evolution->removed.Size()));
  for (int i = 0; i < old_size; ++i) {
    if (!evolution->removed.Contains(i)) {
      survivors.push_back(std::move((*active)[static_cast<size_t>(i)]));
    }
  }
  *active = std::move(survivors);
  return Status::Ok();
}

}  // namespace

IssuanceService::IssuanceService(const LicenseCatalog* licenses,
                                 const OnlineValidatorOptions& options,
                                 std::shared_ptr<CatalogEpoch> epoch0)
    : options_(options),
      dyn_grouping_(licenses->schema().dimensions() > 0
                        ? DynamicGrouping(licenses->schema().dimensions())
                        : DynamicGrouping()),
      metrics_(options.metrics != nullptr ? options.metrics : &owned_metrics_) {
  // Mirror the catalog into the incremental grouping — the structure later
  // reconfigurations update in place. Within a catalog every license
  // shares content and permission, so rectangle overlap is license
  // overlap and the components match FromLicenses exactly.
  for (const License& license : licenses->licenses()) {
    const Result<int> added = dyn_grouping_.AddLicense(license.rect());
    GEOLIC_CHECK(added.ok());
  }
  Publish(std::move(epoch0));
}

Result<std::shared_ptr<IssuanceService::CatalogEpoch>>
IssuanceService::BuildEpoch(const OnlineValidatorOptions& options,
                            uint64_t epoch_number,
                            const LicenseCatalog* catalog,
                            std::unique_ptr<LicenseCatalog> owned,
                            LicenseGrouping grouping) {
  std::optional<LicenseGrouping> whole_catalog;
  if (!options.use_grouping) {
    whole_catalog = LicenseGrouping::FromComponents(ComponentSet{
        {catalog->AllMask()},
        std::vector<int>(static_cast<size_t>(catalog->size()), 0)});
  }
  auto epoch = std::make_shared<CatalogEpoch>(
      catalog, std::move(owned), std::move(grouping), std::move(whole_catalog));
  const LicenseGrouping& scopes = epoch->scopes();
  for (int g = 0; g < scopes.group_count(); ++g) {
    if (scopes.GroupSize(g) > kMaxScopeLicenses) {
      return Status::CapacityExceeded(
          "an equation scope of " + std::to_string(scopes.GroupSize(g)) +
          " licenses exceeds the slack-table cap of " +
          std::to_string(kMaxScopeLicenses));
    }
  }
  epoch->epoch = epoch_number;
  int shard_count = 1;
  if (options.use_grouping) {
    shard_count = epoch->grouping.group_count();
    if (options.shard_hint > 0) {
      shard_count = std::min(shard_count, options.shard_hint);
    }
    shard_count = std::max(shard_count, 1);
  }
  epoch->shards.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    epoch->shards.push_back(std::make_shared<Shard>());
  }
  return epoch;
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::Create(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options) {
  return CreateOwned(licenses, nullptr, options, LogStore());
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::CreateWithHistory(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
    const LogStore& history) {
  return CreateOwned(licenses, nullptr, options, history);
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::CreateOwned(
    const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
    const OnlineValidatorOptions& options, const LogStore& history) {
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "issuance service needs at least one redistribution license");
  }
  GEOLIC_ASSIGN_OR_RETURN(
      std::shared_ptr<CatalogEpoch> epoch0,
      BuildEpoch(options, 0, licenses, std::move(owned),
                 LicenseGrouping::FromLicenses(*licenses)));
  // Not make_unique: the constructor is private.
  std::unique_ptr<IssuanceService> service(
      new IssuanceService(licenses, options, epoch0));
  // Pre-load the history through the same routing the admission path uses
  // (records of already-validated issuances — they are not re-checked).
  for (const LogRecord& record : history.records()) {
    GEOLIC_RETURN_IF_ERROR(service->ApplyRecordToEpoch(epoch0.get(), record));
    service->issue_sequence_.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < epoch0->shards.size(); ++s) {
    LayOutTables(*epoch0, s);
  }
  return service;
}

Status IssuanceService::ApplyRecordToEpoch(
    CatalogEpoch* epoch, const LogRecord& record,
    const std::vector<bool>* carried) const {
  if (!record.set.IsSubsetOf(epoch->catalog->AllMask())) {
    return Status::InvalidArgument(
        "history record references unknown license indexes");
  }
  size_t shard_index = 0;
  const int scope = RouteSet(*epoch, record.set, &shard_index);
  if (!record.set.IsSubsetOf(epoch->scopes().components().components[
          static_cast<size_t>(scope)])) {
    // Satisfying sets always lie within one overlap group (every member
    // contains the issued rectangle, so they pairwise overlap); a record
    // spanning groups cannot have come from a valid issuance.
    return Status::InvalidArgument("history record spans overlap groups");
  }
  if (carried != nullptr && (*carried)[shard_index]) {
    // A carried shard is shared with the live previous epoch; a record
    // routed here means the carry rule misjudged it.
    return Status::Internal("migrated record routed into a carried shard");
  }
  Shard* shard = epoch->shards[shard_index].get();
  if (!shard->tables.empty()) {
    // Laid out already: keep the tables in step with the log.
    Charge(&shard->tables[static_cast<size_t>(scope) / epoch->shards.size()]
                .slack,
           LocalWord(epoch->scopes(), record.set), record.count);
  }
  return shard->log.Append(record);
}

void IssuanceService::LayOutTables(const CatalogEpoch& epoch,
                                   size_t shard_index) {
  Shard* shard = epoch.shards[shard_index].get();
  const size_t stride = epoch.shards.size();
  const LicenseGrouping& scopes = epoch.scopes();
  std::vector<SlackTable> tables;
  std::vector<bool> built;
  for (int g = static_cast<int>(shard_index); g < scopes.group_count();
       g += static_cast<int>(stride)) {
    const LicenseSet& scope =
        scopes.components().components[static_cast<size_t>(g)];
    const auto kept = std::find_if(
        shard->tables.begin(), shard->tables.end(),
        [&](const SlackTable& table) { return table.scope == scope; });
    if (kept != shard->tables.end()) {
      tables.push_back(std::move(*kept));
      built.push_back(false);
      continue;
    }
    // slack = ζ(a_i on the singletons − C[T] per record set): the
    // transform sums both into A[T] − C⟨T⟩ in one pass.
    SlackTable table{scope,
                     std::vector<int64_t>(size_t{1} << scopes.GroupSize(g))};
    for (int p = 0; p < scopes.GroupSize(g); ++p) {
      table.slack[size_t{1} << p] =
          epoch.catalog->at(scopes.OriginalIndexOf(g, p)).aggregate_count();
    }
    tables.push_back(std::move(table));
    built.push_back(true);
  }
  if (std::find(built.begin(), built.end(), true) != built.end()) {
    for (const LogRecord& record : shard->log.records()) {
      const size_t slot =
          static_cast<size_t>(scopes.GroupOf(record.set.Lowest())) / stride;
      if (built[slot]) {
        tables[slot].slack[LocalWord(scopes, record.set)] -= record.count;
      }
    }
  }
  for (size_t slot = 0; slot < tables.size(); ++slot) {
    if (built[slot]) {
      ZetaTransform(tables[slot].slack);
    }
  }
  shard->tables = std::move(tables);
}

int IssuanceService::RouteSet(const CatalogEpoch& epoch, const LicenseSet& s,
                              size_t* shard) {
  const int scope = epoch.scopes().GroupOf(s.Lowest());
  *shard = static_cast<size_t>(scope) % epoch.shards.size();
  return scope;
}

Status IssuanceService::AdmitLocked(const CatalogEpoch& epoch, Shard* shard,
                                    const License& issued, int scope,
                                    OnlineDecision* decision,
                                    RequestTrace* trace) {
  const LicenseSet& s = decision->satisfying_set;
  const int64_t count = issued.aggregate_count();
  SlackTable& table =
      shard->tables[static_cast<size_t>(scope) / epoch.shards.size()];
  GEOLIC_DCHECK(s.IsSubsetOf(table.scope));
  const uint64_t local_s = LocalWord(epoch.scopes(), s);
  const uint64_t full = table.slack.size() - 1;

  // Check every equation T with S ⊆ T ⊆ scope, ascending: its LHS gains
  // `count`, so it holds iff count ≤ slack[T].
  decision->aggregate_valid = true;
  {
    ScopedStageTimer stage(trace, TraceStage::kEquationScan);
    ForEachSuperset(local_s, full, [&](uint64_t t, bool last) {
      if (last && options_.sim_skip_last_equation) {
        // Planted bug for the simulation harness's mutation smoke mode:
        // the full-scope equation T = scope goes unchecked, so an
        // issuance that only that equation would reject slips through.
        return false;
      }
      ++decision->equations_checked;
      if (table.slack[t] >= count) {
        return true;
      }
      const LicenseSet set =
          epoch.scopes().LocalToOriginalMask(scope, LicenseSet::FromWord(t));
      const int64_t av = epoch.catalog->AggregateSum(set);
      decision->aggregate_valid = false;
      decision->limiting = EquationResult{set, av - table.slack[t] + count, av};
      return false;
    });
  }
  if (!decision->aggregate_valid) {
    return Status::Ok();
  }

  // Accepted. Write-ahead order: the framed record reaches the journal
  // before any in-memory state changes, so a crash can never leave the
  // table/log knowing an issuance the journal does not. A journal failure
  // rejects the admission with all state unchanged.
  LogRecord record;
  record.issued_license_id =
      issued.id().empty()
          ? "LU" + std::to_string(
                issue_sequence_.fetch_add(1, std::memory_order_relaxed) + 1)
          : issued.id();
  record.set = s;
  record.count = count;
  if (has_journal_.load(std::memory_order_acquire)) {
    ScopedStageTimer stage(trace, TraceStage::kJournalAppend);
    std::lock_guard<std::mutex> lock(journal_mutex_);
    GEOLIC_RETURN_IF_ERROR(journal_->Append(journal_seq_ + 1, record));
    ++journal_seq_;
  }
  Charge(&table.slack, local_s, count);
  return shard->log.Append(std::move(record));
}

Result<OnlineDecision> IssuanceService::TryIssue(const License& issued) {
  RequestTimer timer(options_.sim_hooks);
  if (issued.aggregate_count() <= 0) {
    return Status::InvalidArgument(
        "issued license must carry a positive count");
  }
  OnlineDecision decision;
  RequestTrace trace(options_.tracer);
  for (;;) {
    // Pin the current epoch: the shared_ptr refcount is the reader count a
    // retiring reconfiguration waits out. The pinned geometry is
    // immutable, so the satisfying-set lookup (the fast-reject) needs no
    // shard lock.
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    decision = OnlineDecision();
    decision.catalog_epoch = epoch->epoch;
    {
      ScopedStageTimer stage(&trace, TraceStage::kInstanceSoaScan);
      decision.satisfying_set = epoch->instance.SatisfyingSet(issued);
    }
    if (decision.satisfying_set.Empty()) {
      metrics_->RecordRejectedInstance(timer.ElapsedNanos());
      trace.Finish(TraceOutcome::kRejectedInstance);
      return decision;  // Fails instance-based validation; nothing recorded.
    }
    decision.instance_valid = true;
    SimYield(options_, "instance_checked");

    size_t shard_index = 0;
    const int scope = RouteSet(*epoch, decision.satisfying_set, &shard_index);
    Shard* shard = epoch->shards[shard_index].get();
    SimYield(options_, "pre_shard_lock");
    std::unique_lock<std::mutex> lock(shard->mutex, std::defer_lock);
    {
      ScopedStageTimer stage(&trace, TraceStage::kShardLockWait);
      lock.lock();
    }
    if (epoch->retired.load(std::memory_order_acquire)) {
      // A reconfiguration replaced this epoch between pin and lock: the
      // satisfying set and routing are stale. The publish order (new state
      // first, retired flag second) guarantees the re-pin sees the new
      // epoch — retry against it.
      continue;
    }
    const Status admitted = AdmitLocked(*epoch, shard, issued, scope,
                                        &decision, &trace);
    if (!admitted.ok()) {
      trace.Finish(TraceOutcome::kError);
      return admitted;
    }
    break;
  }
  if (decision.aggregate_valid) {
    metrics_->RecordAccepted(decision.equations_checked, timer.ElapsedNanos());
    trace.Finish(TraceOutcome::kAccepted);
  } else {
    metrics_->RecordRejectedAggregate(decision.equations_checked,
                                      timer.ElapsedNanos());
    trace.Finish(TraceOutcome::kRejectedAggregate);
  }
  return decision;
}

Result<std::vector<OnlineDecision>> IssuanceService::TryIssueBatch(
    const std::vector<License>& batch) {
  std::vector<OnlineDecision> decisions(batch.size());
  GEOLIC_RETURN_IF_ERROR(TryIssueBatch(std::span<const License>(batch),
                                       std::span<OnlineDecision>(decisions)));
  return decisions;
}

Status IssuanceService::TryIssueBatch(std::span<const License> batch,
                                      std::span<OnlineDecision> decisions) {
  // Thin shim over the pointer form: the pointer array is arena scratch,
  // so this stays allocation-free after warmup.
  RequestArena& arena = ThreadLocalRequestArena();
  const ArenaScope scratch(&arena);
  const License** pointers =
      arena.AllocateArray<const License*>(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    pointers[i] = &batch[i];
  }
  return TryIssueBatch(
      std::span<const License* const>(pointers, batch.size()), decisions);
}

Status IssuanceService::TryIssueBatch(std::span<const License* const> batch,
                                      std::span<OnlineDecision> decisions) {
  GEOLIC_DCHECK(decisions.size() >= batch.size());
  RequestTimer timer(options_.sim_hooks);
  metrics_->RecordBatch(batch.size());
  for (const License* issued : batch) {
    if (issued->aggregate_count() <= 0) {
      return Status::InvalidArgument(
          "issued license must carry a positive count");
    }
  }

  // Batch scratch lives in the calling thread's request arena and is
  // released wholesale when the call returns — zero heap traffic after the
  // arena's first-use warmup.
  RequestArena& arena = ThreadLocalRequestArena();
  const ArenaScope scratch(&arena);

  // Requests still awaiting a decision. A round processes all of them
  // against one pinned epoch; if a reconfiguration retires that epoch
  // mid-round, the unadmitted remainder re-routes against the new one.
  size_t* todo = arena.AllocateArray<size_t>(batch.size());
  size_t todo_count = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    todo[i] = i;
  }

  struct Pending {
    size_t shard;
    size_t index;
    int scope;
  };
  while (todo_count > 0) {
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();

    // Pass 1, lock-free: satisfying sets, instance rejects, shard routing.
    // A pending entry is a trivially-destructible POD the arena can drop
    // without running destructors.
    Pending* pending = arena.AllocateArray<Pending>(todo_count);
    size_t pending_count = 0;
    {
      // One standalone span for the whole lock-free pass (request_id 0):
      // the per-request work here is too fine to time individually.
      ScopedTracerSpan pass1(options_.tracer, TraceStage::kInstanceSoaScan);
      for (size_t k = 0; k < todo_count; ++k) {
        const size_t i = todo[k];
        decisions[i] = OnlineDecision();
        decisions[i].catalog_epoch = epoch->epoch;
        decisions[i].satisfying_set =
            epoch->instance.SatisfyingSet(*batch[i]);
        if (decisions[i].satisfying_set.Empty()) {
          metrics_->RecordRejectedInstance(timer.ElapsedNanos());
          continue;
        }
        decisions[i].instance_valid = true;
        size_t shard_index = 0;
        const int scope =
            RouteSet(*epoch, decisions[i].satisfying_set, &shard_index);
        pending[pending_count++] = Pending{shard_index, i, scope};
      }
    }

    // Pass 2: group by shard so each touched shard is locked once per
    // round. Sorting by (shard, index) keeps the batch's relative order
    // within a shard — the same order a stable shard-only sort would give,
    // without stable_sort's temporary buffer — so the decisions match a
    // sequential TryIssue loop (cross-shard order cannot matter: different
    // shards share no equations).
    std::sort(pending, pending + pending_count,
              [](const Pending& a, const Pending& b) {
                return a.shard != b.shard ? a.shard < b.shard
                                          : a.index < b.index;
              });
    SimYield(options_, "batch_routed");
    size_t at = 0;
    bool epoch_retired = false;
    while (at < pending_count) {
      const size_t shard_index = pending[at].shard;
      Shard* shard = epoch->shards[shard_index].get();
      SimYield(options_, "pre_shard_lock");
      std::unique_lock<std::mutex> lock(shard->mutex, std::defer_lock);
      {
        ScopedTracerSpan wait(options_.tracer, TraceStage::kShardLockWait);
        lock.lock();
      }
      if (epoch->retired.load(std::memory_order_acquire)) {
        epoch_retired = true;
        break;
      }
      for (; at < pending_count && pending[at].shard == shard_index; ++at) {
        const Pending& p = pending[at];
        RequestTrace trace(options_.tracer);
        const Status admitted = AdmitLocked(*epoch, shard, *batch[p.index],
                                            p.scope, &decisions[p.index],
                                            &trace);
        if (!admitted.ok()) {
          trace.Finish(TraceOutcome::kError);
          return admitted;
        }
        if (decisions[p.index].aggregate_valid) {
          metrics_->RecordAccepted(decisions[p.index].equations_checked,
                                   timer.ElapsedNanos());
          trace.Finish(TraceOutcome::kAccepted);
        } else {
          metrics_->RecordRejectedAggregate(
              decisions[p.index].equations_checked, timer.ElapsedNanos());
          trace.Finish(TraceOutcome::kRejectedAggregate);
        }
      }
    }
    if (!epoch_retired) {
      return Status::Ok();
    }
    // A reconfiguration landed mid-round. Decisions already finalized
    // stand (they linearized before the swap); the remainder retries
    // against the new epoch.
    size_t remaining = 0;
    for (size_t k = at; k < pending_count; ++k) {
      todo[remaining++] = pending[k].index;
    }
    todo_count = remaining;
  }
  return Status::Ok();
}

// --- Live license lifecycle ---

Result<int> IssuanceService::ReconfigureLocked(const ReconfigPlan& plan) {
  ScopedTracerSpan span(options_.tracer, TraceStage::kShardSwap);
  const std::shared_ptr<const CatalogEpoch> cur = Pin();

  // Phase 1: next catalog + incremental grouping, fully off to the side —
  // admissions keep running against `cur` throughout.
  const int old_size = cur->catalog->size();
  auto next_catalog = std::make_unique<LicenseCatalog>(&cur->catalog->schema());
  std::vector<int> old_to_new;
  old_to_new.reserve(static_cast<size_t>(old_size));
  int next_index = 0;
  for (int i = 0; i < old_size; ++i) {
    if (plan.removed.Contains(i)) {
      old_to_new.push_back(-1);
      continue;
    }
    old_to_new.push_back(next_index++);
    GEOLIC_ASSIGN_OR_RETURN(const int added,
                            next_catalog->Add(cur->catalog->at(i)));
    GEOLIC_DCHECK(added == old_to_new[static_cast<size_t>(i)]);
    (void)added;
  }
  // The grouping updates on a scratch copy, committed only on success —
  // a failed reconfiguration leaves no trace.
  DynamicGrouping next_grouping = dyn_grouping_;
  int result = 0;
  if (plan.acquire != nullptr) {
    GEOLIC_ASSIGN_OR_RETURN(result, next_catalog->Add(*plan.acquire));
    GEOLIC_ASSIGN_OR_RETURN(const int grouped,
                            next_grouping.AddLicense(plan.acquire->rect()));
    if (grouped != result) {
      return Status::Internal(
          "grouping and catalog disagree on the acquired index");
    }
  } else {
    const std::vector<int> removing = plan.removed.ToIndexes();
    result = static_cast<int>(removing.size());
    // Descending, so earlier removals don't shift the later indexes.
    for (auto it = removing.rbegin(); it != removing.rend(); ++it) {
      GEOLIC_RETURN_IF_ERROR(next_grouping.RemoveLicense(*it));
    }
  }
  const LicenseCatalog* next_catalog_ptr = next_catalog.get();
  GEOLIC_ASSIGN_OR_RETURN(
      std::shared_ptr<CatalogEpoch> next,
      BuildEpoch(options_, cur->epoch + 1, next_catalog_ptr,
                 std::move(next_catalog),
                 LicenseGrouping::FromComponents(next_grouping.Components())));

  // Shards whose scopes the reconfiguration leaves alone move into the
  // next epoch as the same object — mutex, tables and log — instead of
  // being rebuilt; `carried_into` marks their slots, which must never
  // receive a migrated record.
  std::vector<ShardCarry> carries = PlanCarries(
      cur->scopes(), cur->shards.size(), next->scopes(), next->shards.size(),
      plan.removed, plan.acquire != nullptr ? result : -1, old_to_new);
  std::vector<bool> carried_into(next->shards.size(), false);
  for (size_t s = 0; s < carries.size(); ++s) {
    if (carries[s].to >= 0) {
      next->shards[static_cast<size_t>(carries[s].to)] = cur->shards[s];
      carried_into[static_cast<size_t>(carries[s].to)] = true;
    }
  }
  // Whether old shard `s` is still carried; demotes it to a rebuild when
  // one of its removed groups holds records (C⟨g⟩ = A[g] − slack[g] > 0:
  // a record's set lies inside its group and counts are positive). Caller
  // holds the shard's lock.
  const auto keep_carry = [&](size_t s) {
    ShardCarry& carry = carries[s];
    if (carry.to < 0) {
      return false;
    }
    const bool holds_records = std::any_of(
        cur->shards[s]->tables.begin(), cur->shards[s]->tables.end(),
        [&](const SlackTable& table) {
          return std::find(carry.must_stay_empty.begin(),
                           carry.must_stay_empty.end(),
                           table.scope) != carry.must_stay_empty.end() &&
                 cur->catalog->AggregateSum(table.scope) >
                     table.slack.back();
        });
    if (!holds_records) {
      return true;
    }
    const size_t to = static_cast<size_t>(carry.to);
    next->shards[to] = std::make_shared<Shard>();
    carried_into[to] = false;
    carry.to = -1;
    return false;
  };
  uint64_t migrated = 0;
  const bool renumber = !plan.removed.Empty() && !options_.sim_skip_renumbering;
  // Copies one surviving record into the next epoch: dropped when its set
  // touches a removed license, renumbered densely otherwise (the
  // `sim_skip_renumbering` planted bug keeps stale bit positions).
  const auto migrate = [&](const LogRecord& old) {
    if (old.set.Intersects(plan.removed)) {
      return Status::Ok();
    }
    LogRecord record = old;
    if (renumber) {
      record.set = Renumber(record.set, old_to_new);
    }
    ++migrated;
    return ApplyRecordToEpoch(next.get(), record, &carried_into);
  };

  // Phase 2: snapshot each rebuilt shard's log (one lock at a time —
  // issuance on the other shards never stalls) and seed the new shards
  // with the remapped survivors, re-dividing the logs into the new
  // overlap groups (paper Algorithms 4–5). Admissions that land after a
  // shard's snapshot are caught up in phase 3. A carried shard is only
  // locked to check its removed groups, if it has any.
  std::vector<size_t> snapshotted(cur->shards.size(), 0);
  for (size_t s = 0; s < cur->shards.size(); ++s) {
    if (carries[s].to >= 0 && carries[s].must_stay_empty.empty()) {
      continue;
    }
    Shard* shard = cur->shards[s].get();
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (keep_carry(s)) {
      continue;
    }
    snapshotted[s] = shard->log.size();
    for (size_t r = 0; r < snapshotted[s]; ++r) {
      GEOLIC_RETURN_IF_ERROR(migrate(shard->log.records()[r]));
    }
  }
  // The rebuilt shards are private to this reconfiguration, so their
  // tables are built here, off every lock; catch-up records charge them.
  for (size_t n = 0; n < next->shards.size(); ++n) {
    if (!carried_into[n]) {
      LayOutTables(*next, n);
    }
  }

  // Phase 3: catch-up, journal, publish — under every current shard lock
  // (index order) and then the journal lock, the same order the admission
  // path uses, so no admission is in flight half-applied while we cut
  // over and none can start against the old epoch after we publish.
  // Carried shards need no catch-up: the next epoch holds the very object
  // the admissions wrote to. Their removed groups are re-checked, since an
  // admission may have landed in one after phase 2; a shard demoted here
  // has snapshotted == 0 and is copied whole.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(cur->shards.size());
  for (const std::shared_ptr<Shard>& shard : cur->shards) {
    shard_locks.emplace_back(shard->mutex);
  }
  for (size_t s = 0; s < cur->shards.size(); ++s) {
    if (keep_carry(s)) {
      continue;
    }
    const std::vector<LogRecord>& records = cur->shards[s]->log.records();
    for (size_t r = snapshotted[s]; r < records.size(); ++r) {
      GEOLIC_RETURN_IF_ERROR(migrate(records[r]));
    }
  }
  if (has_journal_.load(std::memory_order_acquire)) {
    // Write-ahead: the reconfiguration frame reaches the journal before
    // the new epoch publishes; a journal failure aborts the whole
    // reconfiguration with the old epoch untouched.
    std::lock_guard<std::mutex> journal_lock(journal_mutex_);
    if (plan.acquire != nullptr) {
      GEOLIC_RETURN_IF_ERROR(
          journal_->AppendAcquire(journal_seq_ + 1, *plan.acquire));
    } else if (plan.expire_dim >= 0) {
      GEOLIC_RETURN_IF_ERROR(
          journal_->AppendExpire(journal_seq_ + 1, plan.expire_dim,
                                 plan.expire_cutoff, plan.removed.ToIndexes()));
    } else {
      GEOLIC_RETURN_IF_ERROR(journal_->AppendRevoke(
          journal_seq_ + 1, plan.revoke_index, plan.revoke_id));
    }
    ++journal_seq_;
  }
  // Nothing fails past the journal frame. Carried shards keep their
  // tables, re-laid out for the next epoch's striping (which only ever
  // adds an acquired singleton's); a shard demoted at the cut (still
  // without tables) builds its own. Shards rebuilt in phase 2 are final.
  for (size_t n = 0; n < next->shards.size(); ++n) {
    if (carried_into[n] || next->shards[n]->tables.empty()) {
      LayOutTables(*next, n);
    }
  }
  // Publish, then retire — in this order: a reader that finds its pinned
  // epoch retired is guaranteed to observe the new state on re-pin. The
  // old epoch's memory is reclaimed when its last in-flight reader drops
  // its pin (the shared_ptr count).
  Publish(std::move(next));
  cur->retired.store(true, std::memory_order_release);
  dyn_grouping_ = std::move(next_grouping);
  metrics_->RecordReconfiguration(
      migrated, static_cast<uint64_t>(std::count(
                    carried_into.begin(), carried_into.end(), true)));
  return result;
}

Result<int> IssuanceService::AcquireLicense(const License& license) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  ReconfigPlan plan;
  plan.acquire = &license;
  return ReconfigureLocked(plan);
}

Status IssuanceService::RevokeLicense(int index) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  return RevokeIndexLocked(index);
}

Status IssuanceService::RevokeLicenseById(const std::string& id) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  const Result<int> index = Pin()->catalog->IndexOfId(id);
  if (!index.ok()) {
    return index.status();
  }
  return RevokeIndexLocked(*index);
}

Status IssuanceService::RevokeIndexLocked(int index) {
  const std::shared_ptr<const CatalogEpoch> cur = Pin();
  if (index < 0 || index >= cur->catalog->size()) {
    return Status::OutOfRange("revoke index out of range");
  }
  if (cur->catalog->size() == 1) {
    // An empty catalog has nothing to route or validate against.
    return Status::FailedPrecondition("cannot revoke the last license");
  }
  ReconfigPlan plan;
  plan.removed.Add(index);
  plan.revoke_index = index;
  plan.revoke_id = cur->catalog->at(index).id();
  return ReconfigureLocked(plan).status();
}

Result<int> IssuanceService::ExpireDimensionBelow(int dim, int64_t cutoff) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  const std::shared_ptr<const CatalogEpoch> cur = Pin();
  GEOLIC_ASSIGN_OR_RETURN(const std::vector<int> expired,
                          ComputeExpired(cur->catalog->licenses(), dim,
                                         cutoff));
  if (expired.empty()) {
    return 0;  // Nothing expires: no epoch change, no journal frame.
  }
  if (static_cast<int>(expired.size()) == cur->catalog->size()) {
    return Status::FailedPrecondition("expiry would remove every license");
  }
  ReconfigPlan plan;
  for (int i : expired) {
    plan.removed.Add(i);
  }
  plan.expire_dim = dim;
  plan.expire_cutoff = cutoff;
  return ReconfigureLocked(plan);
}

Result<int> IssuanceService::ExpireBefore(Date cutoff) {
  // The schema is shared by every epoch, so reading it unpinned is safe.
  const ConstraintSchema& schema = Pin()->catalog->schema();
  for (int dim = 0; dim < schema.dimensions(); ++dim) {
    if (schema.kind(dim) == DimensionKind::kInterval &&
        schema.format(dim) == IntervalFormat::kDate) {
      return ExpireDimensionBelow(dim, cutoff.day_number());
    }
  }
  return Status::InvalidArgument(
      "schema has no date dimension to expire against");
}

uint64_t IssuanceService::catalog_epoch() const { return Pin()->epoch; }

const LicenseCatalog& IssuanceService::licenses() const {
  return *Pin()->catalog;
}

const LicenseGrouping& IssuanceService::grouping() const {
  return Pin()->grouping;
}

int IssuanceService::shard_count() const {
  return static_cast<int>(Pin()->shards.size());
}

void IssuanceService::ReserveLogCapacity(size_t records_per_shard) {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  for (const std::shared_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->log.Reserve(records_per_shard);
  }
}

LogStore IssuanceService::CollectLog() const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  LogStore merged;
  for (const std::shared_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const LogRecord& record : shard->log.records()) {
      // Append only fails on empty sets / nonpositive counts, which the
      // admission path already rejected.
      Status append_status = merged.Append(record);
      (void)append_status;
    }
  }
  return merged;
}

Result<ValidationTree> IssuanceService::CollectTree() const {
  return ValidationTree::BuildFromLog(CollectLog());
}

Status IssuanceService::CheckTables(const ValidationTree& replay) const {
  for (;;) {
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(epoch->shards.size());
    for (const std::shared_ptr<Shard>& shard : epoch->shards) {
      shard_locks.emplace_back(shard->mutex);
    }
    if (epoch->retired.load(std::memory_order_acquire)) {
      continue;  // A reconfiguration won the race; audit its epoch.
    }
    const LicenseGrouping& scopes = epoch->scopes();
    for (const std::shared_ptr<Shard>& shard : epoch->shards) {
      for (const SlackTable& table : shard->tables) {
        const int scope = scopes.GroupOf(table.scope.Lowest());
        for (size_t t = 1; t < table.slack.size(); ++t) {
          const LicenseSet set =
              scopes.LocalToOriginalMask(scope, LicenseSet::FromWord(t));
          if (table.slack[t] !=
              epoch->catalog->AggregateSum(set) - replay.SumSubsets(set)) {
            return Status::Internal("slack table of scope " +
                                    table.scope.ToString() +
                                    " diverges from the replay at " +
                                    set.ToString());
          }
        }
      }
    }
    return Status::Ok();
  }
}

size_t IssuanceService::record_count() const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  size_t records = 0;
  for (const std::shared_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    records += shard->log.size();
  }
  return records;
}

size_t IssuanceService::slack_table_bytes() const {
  const LicenseGrouping& scopes = Pin()->scopes();
  size_t bytes = 0;
  for (int g = 0; g < scopes.group_count(); ++g) {
    bytes += sizeof(int64_t) << scopes.GroupSize(g);
  }
  return bytes;
}

Result<CapacityQuote> IssuanceService::Headroom(const LicenseSet& s) const {
  for (;;) {
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    if (s.Empty() || !s.IsSubsetOf(epoch->catalog->AllMask())) {
      return Status::InvalidArgument(
          "headroom needs a non-empty set of known licenses");
    }
    size_t shard_index = 0;
    const int scope = RouteSet(*epoch, s, &shard_index);
    Shard* shard = epoch->shards[shard_index].get();
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (epoch->retired.load(std::memory_order_acquire)) {
      continue;  // Tables are re-laid out at a reconfiguration; re-pin.
    }
    const SlackTable& table =
        shard->tables[static_cast<size_t>(scope) / epoch->shards.size()];
    if (!s.IsSubsetOf(table.scope)) {
      return Status::InvalidArgument("set spans overlap groups: " +
                                     s.ToString());
    }
    // First least slack, ascending (S itself is never the empty word).
    const uint64_t local_s = LocalWord(epoch->scopes(), s);
    uint64_t binding = local_s;
    ForEachSuperset(local_s, table.slack.size() - 1, [&](uint64_t t, bool) {
      if (table.slack[t] < table.slack[binding]) {
        binding = t;
      }
      return true;
    });
    CapacityQuote quote;
    quote.binding_set = epoch->scopes().LocalToOriginalMask(
        scope, LicenseSet::FromWord(binding));
    quote.binding_slack = table.slack[binding];
    quote.remaining = std::max<int64_t>(0, quote.binding_slack);
    return quote;
  }
}

Status IssuanceService::AttachJournal(std::unique_ptr<JournalWriter> journal) {
  if (journal == nullptr) {
    return Status::InvalidArgument("cannot attach a null journal");
  }
  if (journal->frames_appended() != 0) {
    return Status::InvalidArgument(
        "journal already carries frames; attach a fresh journal file");
  }
  if (Pin()->epoch != 0) {
    // Replay needs the journal to cover every reconfiguration since the
    // construction-time catalog; attaching after one would leave a gap no
    // recovery could bridge.
    return Status::FailedPrecondition(
        "attach the journal before any catalog reconfiguration");
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("a journal is already attached");
  }
  journal_ = std::move(journal);
  journal_->set_tracer(options_.tracer);
  journal_seq_ = 0;
  has_journal_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status IssuanceService::SyncJournal() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  return journal_->Sync();
}

uint64_t IssuanceService::journal_sequence() const {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_seq_;
}

ExpositionInput IssuanceService::Snap() const {
  ExpositionInput input;
  input.metrics = metrics_->Snap();
  if (options_.tracer != nullptr) {
    input.has_stages = true;
    input.stages = options_.tracer->ProfileSnapshot();
  }
  if (has_journal()) {
    input.has_journal = true;
    input.journal_sequence = journal_sequence();
  }
  return input;
}

Status IssuanceService::WriteCheckpoint(const std::string& path) const {
  ScopedTracerSpan span(options_.tracer, TraceStage::kCheckpointWrite);
  SimYield(options_, "pre_checkpoint");
  for (;;) {
    // Exact cut: every shard lock in index order, then the journal lock —
    // the same order AdmitLocked and ReconfigureLocked use, so no
    // admission can be half-applied (journaled but not yet in its shard)
    // while we read. A reconfiguration that won the race retires our
    // pinned epoch before we got the locks; detect that and retry against
    // the published epoch, whose shards hold the carried-over records.
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(epoch->shards.size());
    for (const std::shared_ptr<Shard>& shard : epoch->shards) {
      shard_locks.emplace_back(shard->mutex);
    }
    if (epoch->retired.load(std::memory_order_acquire)) {
      continue;
    }
    std::lock_guard<std::mutex> journal_lock(journal_mutex_);

    LogStore merged;
    for (const std::shared_ptr<Shard>& shard : epoch->shards) {
      for (const LogRecord& record : shard->log.records()) {
        GEOLIC_RETURN_IF_ERROR(merged.Append(record));
      }
    }
    // v3 payload: sentinel, version, the catalog epoch the records are
    // numbered in, the journal sequence this snapshot covers, then the
    // record table. Recovery replays only journal frames with seq >
    // covered — and checks the epoch tag against the journal's
    // reconfiguration history up to that point.
    std::ostringstream body;
    const uint64_t sentinel = kCheckpointV3Sentinel;
    body.write(reinterpret_cast<const char*>(&sentinel), sizeof(sentinel));
    const uint32_t version = kCheckpointV3Version;
    body.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t epoch_number = epoch->epoch;
    body.write(reinterpret_cast<const char*>(&epoch_number),
               sizeof(epoch_number));
    const uint64_t covered_seq = journal_seq_;
    body.write(reinterpret_cast<const char*>(&covered_seq),
               sizeof(covered_seq));
    merged.SerializeRecords(&body);
    return WriteCheckpointFile(CheckpointKind::kServiceSnapshot, body.str(),
                               path);
  }
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::Recover(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
    const std::string& checkpoint_path, const std::string& journal_path,
    RecoveryStats* stats) {
  if (checkpoint_path.empty() && journal_path.empty()) {
    return Status::InvalidArgument(
        "recovery needs a checkpoint path, a journal path, or both");
  }
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "recovery needs the catalog the journal started from");
  }
  ScopedTracerSpan span(options.tracer, TraceStage::kRecoveryReplay);
  RecoveryStats local;
  uint64_t covered_seq = 0;
  uint64_t ckpt_epoch = 0;
  bool have_checkpoint = false;
  LogStore checkpoint_records;
  if (!checkpoint_path.empty()) {
    GEOLIC_ASSIGN_OR_RETURN(
        const std::string payload,
        ReadCheckpointFile(CheckpointKind::kServiceSnapshot,
                           checkpoint_path));
    std::istringstream body(payload);
    uint64_t sentinel = 0;
    uint32_t version = 0;
    body.read(reinterpret_cast<char*>(&sentinel), sizeof(sentinel));
    body.read(reinterpret_cast<char*>(&version), sizeof(version));
    body.read(reinterpret_cast<char*>(&ckpt_epoch), sizeof(ckpt_epoch));
    body.read(reinterpret_cast<char*>(&covered_seq), sizeof(covered_seq));
    if (!body) {
      return Status::ParseError("service checkpoint payload truncated: " +
                                checkpoint_path);
    }
    if (sentinel != kCheckpointV3Sentinel || version != kCheckpointV3Version) {
      return Status::ParseError(
          "unsupported service checkpoint payload version");
    }
    GEOLIC_ASSIGN_OR_RETURN(LogStore records,
                            LogStore::DeserializeRecords(&body));
    if (body.peek() != std::istringstream::traits_type::eof()) {
      return Status::ParseError("trailing bytes after checkpoint records: " +
                                checkpoint_path);
    }
    local.checkpoint_records = records.size();
    checkpoint_records = std::move(records);
    have_checkpoint = true;
  }
  JournalReplay replay;
  if (!journal_path.empty()) {
    GEOLIC_ASSIGN_OR_RETURN(replay, JournalReader::ReadFile(journal_path));
    local.journal_torn_tail = replay.torn_tail;
  }

  // Stage 1 — frames the checkpoint covers. Admissions are already inside
  // the checkpoint's record table; reconfigurations must still evolve the
  // catalog, because the checkpoint's records are numbered in the evolved
  // index space.
  std::vector<License> active = licenses->licenses();
  uint64_t epoch = 0;
  CatalogEvolution evolution;
  size_t at = 0;
  for (; at < replay.entries.size() && replay.entries[at].seq <= covered_seq;
       ++at) {
    const JournalEntry& entry = replay.entries[at];
    if (entry.kind == JournalEntryKind::kAdmission) {
      // The reader guarantees seqs are contiguous from 1, so the frames
      // past the checkpoint's covered seq are exactly the uncovered tail.
      ++local.journal_records_skipped;
      continue;
    }
    GEOLIC_RETURN_IF_ERROR(EvolveCatalog(entry, &active, &evolution));
    ++epoch;
    ++local.reconfig_records_replayed;
  }
  if (have_checkpoint && epoch != ckpt_epoch) {
    return Status::ParseError(
        "checkpoint catalog epoch disagrees with the journal's "
        "reconfiguration history");
  }
  const auto in_range = [](const LicenseSet& set, size_t catalog_size) {
    return set.IsSubsetOf(LicenseSet::Full(static_cast<int>(catalog_size)));
  };
  std::vector<LogRecord> combined;
  combined.reserve(checkpoint_records.size());
  for (const LogRecord& record : checkpoint_records.records()) {
    if (!in_range(record.set, active.size())) {
      return Status::ParseError(
          "checkpoint record references unknown license indexes");
    }
    combined.push_back(record);
  }

  // Stage 2 — the uncovered tail: admissions append; reconfigurations
  // evolve the catalog and remap everything accumulated so far, exactly
  // as the live service did. An acquisition drops and renumbers nothing,
  // so only removals touch the accumulated records.
  for (; at < replay.entries.size(); ++at) {
    const JournalEntry& entry = replay.entries[at];
    ++local.journal_records_replayed;
    if (entry.kind == JournalEntryKind::kAdmission) {
      if (!in_range(entry.record.set, active.size())) {
        return Status::ParseError(
            "journal record references unknown license indexes");
      }
      combined.push_back(entry.record);
      continue;
    }
    GEOLIC_RETURN_IF_ERROR(EvolveCatalog(entry, &active, &evolution));
    ++epoch;
    ++local.reconfig_records_replayed;
    if (evolution.removed.Empty()) {
      continue;
    }
    std::erase_if(combined, [&](const LogRecord& record) {
      return record.set.Intersects(evolution.removed);
    });
    for (LogRecord& record : combined) {
      record.set = Renumber(record.set, evolution.old_to_new);
    }
  }
  local.recovered_catalog_epoch = epoch;

  // Final catalog: unevolved recovery borrows the caller's; an evolved one
  // is rebuilt and owned by the recovered service (which restarts at epoch
  // 0 — the recovered catalog is the new baseline).
  std::unique_ptr<LicenseCatalog> owned;
  const LicenseCatalog* final_catalog = licenses;
  if (epoch != 0) {
    owned = std::make_unique<LicenseCatalog>(&licenses->schema());
    for (License& license : active) {
      GEOLIC_ASSIGN_OR_RETURN(const int added, owned->Add(std::move(license)));
      (void)added;
    }
    final_catalog = owned.get();
  }
  LogStore combined_store;
  for (LogRecord& record : combined) {
    GEOLIC_RETURN_IF_ERROR(combined_store.Append(std::move(record)));
  }
  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<IssuanceService> service,
      CreateOwned(final_catalog, std::move(owned), options, combined_store));
  // Cross-check every rebuilt slack table against A[T] − C⟨T⟩ from an
  // independent serial replay of the same records: recovery must
  // reproduce the exact pre-crash accepted set or fail — never return
  // silently wrong state.
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree serial,
                          ValidationTree::BuildFromLog(combined_store));
  const Status replayed = service->CheckTables(serial);
  if (!replayed.ok()) {
    return Status::Internal(
        "recovered state diverges from a serial replay of the records: " +
        replayed.message());
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return service;
}

}  // namespace geolic
