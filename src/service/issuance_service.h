#ifndef GEOLIC_SERVICE_ISSUANCE_SERVICE_H_
#define GEOLIC_SERVICE_ISSUANCE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "validation/log_store.h"
#include "validation/validation_report.h"
#include "validation/validation_tree.h"
#include "util/date.h"
#include "util/license_set.h"
#include "util/metrics.h"
#include "util/sim_hooks.h"
#include "util/status.h"

namespace geolic {

// Decision for one attempted license issuance.
struct OnlineDecision {
  // Whether the issued license lies inside at least one redistribution
  // license (S ≠ ∅).
  bool instance_valid = false;
  // Whether every affected validation equation still holds with the new
  // counts added.
  bool aggregate_valid = false;
  // S — the satisfying set (original license indexes).
  LicenseSet satisfying_set;
  // When aggregate validation fails: the first violated equation, with the
  // candidate's count already included in lhs.
  EquationResult limiting;
  // Equations checked for this issuance: 2^(N−k) in baseline mode,
  // 2^(N_g−k) with grouping (paper Section 2.1's complexity discussion).
  uint64_t equations_checked = 0;
  // Which catalog epoch this decision was made against
  // (IssuanceService::catalog_epoch). A concurrent acquire/revoke/expire
  // advances the epoch, so `satisfying_set` indexes are only meaningful in
  // this epoch's index space.
  uint64_t catalog_epoch = 0;

  bool accepted() const { return instance_valid && aggregate_valid; }
};

// IssuanceService::Headroom's answer for a satisfying set S: how many more
// counts one issuance against S could still be granted.
struct CapacityQuote {
  // The largest count admission would accept for S right now (0 when an
  // equation is tight or violated; never negative).
  int64_t remaining = 0;
  // The binding equation: the first T ⊇ S (ascending) of least slack
  // A[T] − C⟨T⟩, and that slack (negative if history over-issued it).
  LicenseSet binding_set;
  int64_t binding_slack = 0;
};

// Largest equation scope (overlap group, or the whole catalog without
// grouping) a service admits against: its slack table holds 2^N entries
// (128 MiB at 24). Create, CreateWithHistory, Recover and an acquisition
// that would grow a scope past it fail with kCapacityExceeded.
inline constexpr int kMaxScopeLicenses = 24;

// Knobs of the online admission engine (IssuanceService below, and every
// layer built on it).
struct OnlineValidatorOptions {
  // Scope per-issuance equation checks to S's overlap group (paper
  // Theorem 2), shrinking 2^(N−k) checks to 2^(N_g−k). This is also the
  // sharding theorem: off means one global shard.
  bool use_grouping = true;
  // Optional sink for decision counters and latency; must outlive the
  // service, which uses it as its metrics block when set (and owns a
  // private one otherwise).
  IssuanceMetrics* metrics = nullptr;
  // Cap on the number of lock shards (groups are striped over
  // min(shard_hint, group_count) mutexes). <= 0 means one shard per
  // overlap group; 1 gives a single shard whose CollectLog() is in
  // admission order.
  int shard_hint = 0;
  // Optional span sink for per-stage request tracing (obs/trace.h); must
  // outlive the service. Null = tracing off: the scoped timers reduce to
  // one branch and no clock reads.
  Tracer* tracer = nullptr;
  // Simulation-only (src/sim/): cooperative yield points and virtual clock
  // threaded through the service request path. Null (the production value)
  // = one branch per hook point, nothing else. Must outlive the service.
  SimHooks* sim_hooks = nullptr;
  // Test-only accounting mutation for the simulation harness's mutation
  // smoke mode: the service skips the final equation of every aggregate
  // scan (the full-scope set T = scope), a deliberately planted
  // over-issuance bug that sim_runner must catch. Never set outside
  // tests/sim — it breaks the paper's eq. 1 guarantee by construction.
  bool sim_skip_last_equation = false;
  // Second planted bug, for the lifecycle mutation smoke: on revoke /
  // expire the service drops cascaded records but skips the Algorithm 5
  // index renumbering, leaving surviving records' sets at their stale bit
  // positions. sim_runner --lifecycle must catch the resulting divergence.
  bool sim_skip_renumbering = false;
};

// What IssuanceService::Recover reconstructed the state from.
struct RecoveryStats {
  size_t checkpoint_records = 0;         // Records loaded from the checkpoint.
  size_t journal_records_replayed = 0;   // Journal frames past the checkpoint.
  size_t journal_records_skipped = 0;    // Frames the checkpoint already covers.
  size_t reconfig_records_replayed = 0;  // Acquire/revoke/expire frames applied
                                         // to the catalog evolution (covered or
                                         // not — all are needed for indexes).
  uint64_t recovered_catalog_epoch = 0;  // Final epoch in the journal's
                                         // numbering (the recovered service
                                         // itself restarts at epoch 0).
  bool journal_torn_tail = false;        // Journal ended in a torn write.
};

// Thread-safe online admission for one (content, permission) domain: the
// paper's online rule. When a license with satisfying set S (|S| = k)
// arrives, only equations whose set contains S gain counts, so only those
// are checked: all T with S ⊆ T ⊆ scope, where the scope is S's overlap
// group (licenses containing the same rectangle pairwise overlap, so S
// always lies in one group) or, with use_grouping off, the whole catalog.
// Each scope keeps eq. 1 in one online form, a slack table
// slack[T] = A[T] − C⟨T⟩ over its 2^N_g subsets: admitting count c scans
// those T ascending for slack[T] < c and, on acceptance, subtracts c over
// the same range. Tables are derived (the zeta transform of a scope's
// log); the log stays the source of truth for journal and checkpoints.
//
// The paper's grouping result doubles as a sharding theorem: licenses in
// different overlap groups share no validation equations (Theorem 2), so
// issuances whose satisfying sets fall in different groups can admit fully
// in parallel with no coordination. The service therefore splits the
// slack tables and log into per-overlap-group shards, each
// guarded by its own mutex; a request only ever locks the one shard its
// satisfying set lives in.
//
// Live license lifecycle (paper Figure 6 + Algorithms 4–5): the catalog,
// grouping, instance geometry and shard map together form one immutable
// `CatalogEpoch`, published through one shared_ptr. AcquireLicense /
// RevokeLicense / ExpireBefore build the next epoch off to the side —
// re-dividing the shard logs into the new overlap groups and renumbering
// license indexes densely past a removal — then publish it with a single
// pointer swap and mark the old epoch retired. Only the shards whose
// groups change are rebuilt (log migrated, tables rebuilt from it): a
// shard whose groups keep their masks (and whose removed groups, if any,
// hold no records) moves into the next epoch as the same object, tables
// included, so a reconfiguration costs O(changed shards), not O(log
// records) — acquiring a disjoint license migrates no record at all.
// Issuance never stops: readers pin the current epoch (a shared_ptr copy
// under a leaf mutex held for the copy alone) for the instance
// fast-reject, and an admission that finds its pinned epoch
// retired after taking the shard lock simply re-pins and retries against
// the new shard map. The retired epoch is freed when its last in-flight
// reader drains (the shared_ptr count).
//
// Concurrency contract:
//  * TryIssue / TryIssueBatch are safe to call from any number of threads,
//    including concurrently with the lifecycle calls.
//  * The instance-based fast-reject path takes no shard lock: the
//    satisfying-set lookup reads only the pinned epoch's immutable
//    geometry.
//  * Lifecycle calls serialize against each other (one reconfiguration at
//    a time) but never against the admission fast path.
//  * CollectLog / CollectTree / Headroom lock shards one at a time and
//    return snapshots; they can run concurrently with issuance (the
//    snapshot is a consistent prefix per shard, not a cross-shard instant).
//  * Accessors (licenses, grouping, shard_count) read the current epoch;
//    the references they return are valid until the next reconfiguration.
//
// Admissions are linearized per shard, so for any interleaving the final
// tables/log equal a serial replay of the accepted set (order within a
// shard is the shard's admission order; cross-shard order is immaterial
// because the shards share no equations). A reconfiguration linearizes at its
// publish point: admissions before it are carried into the new epoch
// (renumbered, with records touching a removed license cascade-dropped),
// admissions after it run against the new catalog.
class IssuanceService {
 public:
  // `licenses` must be non-empty and outlive the service; so must
  // `options.metrics` when set. options.use_grouping=false degrades to a
  // single shard covering all licenses (every admission serializes — the
  // baseline the concurrency ablation measures against);
  // options.shard_hint caps the number of lock shards (groups are striped
  // over min(hint, group_count) mutexes). Fails with kCapacityExceeded
  // when a scope exceeds kMaxScopeLicenses.
  static Result<std::unique_ptr<IssuanceService>> Create(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options = {});

  // Pre-loads already-validated issuances (not re-checked) into the
  // shards. Used when the license set grows and admission must be rebuilt
  // around the new grouping without losing past issuances. Fails when a
  // record references an index outside `licenses` or spans overlap groups.
  static Result<std::unique_ptr<IssuanceService>> CreateWithHistory(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const LogStore& history);

  // Rebuilds a service from a crash: the newest checkpoint (may be empty —
  // journal-only recovery) plus the journal tail past it (may be empty —
  // checkpoint-only). Frames the checkpoint already covers are skipped; a
  // torn final frame (crash mid-append, never acknowledged as synced) is
  // dropped; any other journal or checkpoint corruption fails loudly with
  // the bad frame's byte offset.
  //
  // Reconfiguration frames replay in sequence with admissions: `licenses`
  // must be the catalog the journal started from (epoch 0), and each
  // acquire/revoke/expire frame evolves it — renumbering and cascade-
  // dropping the accumulated records exactly as the live service did — so
  // recovery lands on the post-reconfiguration catalog. A v3 checkpoint
  // carries the epoch it covers, which must match the journal's
  // reconfiguration history up to the covered sequence. The recovered
  // service owns its evolved catalog and restarts at epoch 0 (its catalog
  // is the new baseline; RecoveryStats reports the journal-space epoch).
  //
  // The rebuilt state is verified against a serial replay of the combined
  // record sequence before returning — the result is the exact pre-crash
  // accepted set or an error, never silently wrong. The recovered service
  // has no journal attached; call AttachJournal with a fresh journal file
  // to resume durable admission.
  static Result<std::unique_ptr<IssuanceService>> Recover(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const std::string& checkpoint_path, const std::string& journal_path,
      RecoveryStats* stats = nullptr);

  IssuanceService(const IssuanceService&) = delete;
  IssuanceService& operator=(const IssuanceService&) = delete;

  // Instance- and aggregate-validates `issued`; on acceptance records it
  // in its shard's slack table and log. An invalid license is a decision,
  // not an error; a non-positive count is an error. The decision carries
  // the catalog epoch it was made against.
  Result<OnlineDecision> TryIssue(const License& issued);

  // Admits a batch, returning decisions in input order. Requests are
  // processed shard-by-shard (one lock acquisition per shard touched, not
  // per request); within a shard the batch's relative order is preserved,
  // so the decisions equal a sequential TryIssue loop over the batch. If a
  // reconfiguration lands mid-batch, the not-yet-admitted remainder
  // retries against the new epoch — decisions then carry mixed epochs.
  Result<std::vector<OnlineDecision>> TryIssueBatch(
      const std::vector<License>& batch);

  // Allocation-free variant: identical decision semantics, but the caller
  // owns the decision storage (`decisions.size() >= batch.size()`; entries
  // are overwritten) and all batch scratch comes from the calling thread's
  // RequestArena — after warmup the steady state performs no heap
  // allocation (see docs/DESIGN.md, "Arena lifetime rules").
  Status TryIssueBatch(std::span<const License> batch,
                       std::span<OnlineDecision> decisions);

  // Pointer-batch intake for callers whose requests are not contiguous —
  // the network front-end (net/server.h) batches requests popped from its
  // admission queue without copying the licenses into a dense array.
  // Same semantics and arena discipline as the span form above.
  Status TryIssueBatch(std::span<const License* const> batch,
                       std::span<OnlineDecision> decisions);

  // --- Live license lifecycle (one reconfiguration at a time) ---

  // Adds `license` to the running catalog; returns its index in the new
  // epoch (always the highest — existing indexes are unchanged by an
  // acquisition). The license must match the catalog's content key,
  // permission, type and dimensionality, and carry a unique id. The
  // overlap grouping updates incrementally (DynamicGrouping); if the
  // newcomer bridges groups, their shards merge in the new epoch. Fails
  // with kCapacityExceeded, changing nothing, when the newcomer's scope
  // would exceed kMaxScopeLicenses.
  Result<int> AcquireLicense(const License& license);

  // Removes the license at `index` (current-epoch index). Cascade
  // semantics: every recorded issuance whose satisfying set contains the
  // revoked license is dropped from the validation state — usage granted
  // under a revoked right is revoked with it. Surviving records renumber
  // densely (indexes above `index` shift down, paper Algorithm 5).
  // Rejects removing the last license.
  Status RevokeLicense(int index);

  // Id-addressed form: resolves `id` to its current-epoch index under the
  // reconfiguration lock, so the caller cannot race a concurrent
  // reconfiguration that renumbers indexes between lookup and revoke.
  // Fails with NotFound when no license carries `id`.
  Status RevokeLicenseById(const std::string& id);

  // Revokes every license whose validity-period dimension ends strictly
  // before `cutoff` — the schema's first date-formatted interval dimension
  // — and returns how many were removed (0 = no-op, no epoch change).
  // Fails if the schema has no date dimension or if every license would
  // expire.
  Result<int> ExpireBefore(Date cutoff);

  // Generalized form: expires licenses whose interval in dimension `dim`
  // ends strictly below `cutoff` (any ordered dimension, e.g. an integer
  // version range).
  Result<int> ExpireDimensionBelow(int dim, int64_t cutoff);

  // Reconfigurations applied over this service's lifetime. 0 at
  // construction; each successful acquire/revoke/expire increments it.
  uint64_t catalog_epoch() const;

  // Snapshot of all accepted issuances, shard by shard (within a shard:
  // admission order). Feedable to the offline validators; equal as a
  // multiset to any serial replay of the accepted set.
  LogStore CollectLog() const;

  // Validation tree of CollectLog()'s records.
  Result<ValidationTree> CollectTree() const;

  // Consistency audit of the state admission decides on: compares every
  // slack-table entry with A[T] − C⟨T⟩, C taken from `replay` — a
  // validation tree of the accepted records (current-epoch indexes) built
  // independently of this service, e.g. from a serial replay. Fails with
  // kInternal at the first mismatch. Holds every shard lock for the
  // comparison (one cut) and costs a tree sum per table entry: a recovery
  // and test check, not a request-path call.
  Status CheckTables(const ValidationTree& replay) const;

  // Resident size of the slack tables: 8 bytes per subset of every scope,
  // Σ_g 8·2^N_g over the current epoch.
  size_t slack_table_bytes() const;

  // Number of log records, CollectLog().size() without the copy: one
  // shard-lock hop per shard.
  size_t record_count() const;

  // Admission headroom for satisfying set `s` (current-epoch indexes):
  // the least slack A[T] − C⟨T⟩ over S ⊆ T ⊆ scope — exactly the largest
  // count TryIssue would still accept for S. Fails when `s` is empty,
  // names an unknown license, or spans overlap groups.
  Result<CapacityQuote> Headroom(const LicenseSet& s) const;

  // Turns on write-ahead journaling: every subsequently accepted issuance
  // is framed and appended to `journal` before the shard's in-memory state
  // changes or the decision returns, so a crash can never have accepted an
  // issuance the journal does not know. Reconfigurations journal the same
  // way (frame first, publish second). A journal append failure rejects
  // the admission or reconfiguration with all state unchanged.
  // Must be called before issuance traffic starts (it is not synchronized
  // against in-flight TryIssue calls) and before any reconfiguration (the
  // journal must cover the catalog's evolution from epoch 0); fails if a
  // journal is already attached or frames were already written to this
  // journal.
  Status AttachJournal(std::unique_ptr<JournalWriter> journal);

  // Forces every journaled frame to stable storage (for fsync_interval
  // batching); no-op without a journal.
  Status SyncJournal();

  bool has_journal() const {
    return has_journal_.load(std::memory_order_acquire);
  }

  // Sequence number of the last journaled frame (0 = none yet).
  uint64_t journal_sequence() const;

  // Atomically snapshots the full accepted set plus the journal sequence
  // and catalog epoch it covers into a v2 checkpoint file
  // (persist/checkpoint.h, kind = service-snapshot, v3 payload). Takes
  // every shard lock (in index order) and the journal lock, so the cut is
  // exact: recovery from this checkpoint plus the same journal's tail
  // reproduces the state byte-for-byte. Safe to call while issuance
  // traffic and reconfigurations are running.
  Status WriteCheckpoint(const std::string& path) const;

  // Current-epoch views; the references stay valid until the next
  // reconfiguration retires the epoch (plus reader drain).
  const LicenseCatalog& licenses() const;
  const LicenseGrouping& grouping() const;
  const OnlineValidatorOptions& options() const { return options_; }
  int shard_count() const;

  // Pre-sizes every current shard's log record table for
  // `records_per_shard` appends, so steady-state admission never regrows
  // it. Call before issuance traffic starts (not synchronized against
  // in-flight requests). A later reconfiguration keeps the reservation on
  // every shard it carries into the next epoch; the shards it rebuilds
  // size themselves from the records they inherit.
  void ReserveLogCapacity(size_t records_per_shard);

  // Decision counters and latency histogram. Points at options.metrics
  // when that was set, else at a service-owned block.
  const IssuanceMetrics& metrics() const { return *metrics_; }

  // Point-in-time observability snapshot, ready for the obs exposition
  // renderers: decision counters + request latency, the per-stage profile
  // when a tracer is attached (options.tracer), and the journal sequence
  // when a journal is. Safe to call concurrently with issuance traffic.
  // Recovery counters are per-Recover-call (RecoveryStats); callers merge
  // them into the returned input themselves.
  ExpositionInput Snap() const;

 private:
  // Eq. 1 for one scope: slack[T] = A[T] − C⟨T⟩ for every subset T of
  // `scope`, indexed by T's scope-local word (bit p = the scope's p-th
  // license in ascending index order, LicenseGrouping's positions — so
  // ascending local words are ascending sets).
  struct SlackTable {
    LicenseSet scope;
    std::vector<int64_t> slack;
  };

  // One lock shard: the slack tables and log of the scopes striped onto
  // it (scope g at tables[g / shard_count] in the live epoch). A
  // reconfiguration that leaves those scopes' masks alone hands the same
  // Shard to the next epoch, so one Shard may be shared by consecutive
  // epochs; its masks are in the license indexes those epochs agree on.
  struct Shard {
    std::mutex mutex;
    std::vector<SlackTable> tables;
    LogStore log;
  };

  // One immutable generation of the catalog + derived admission state.
  // Everything here is fixed at build time except the shard contents
  // (guarded by the shard mutexes) and the retirement flag.
  struct CatalogEpoch {
    CatalogEpoch(const LicenseCatalog* catalog_in,
                 std::unique_ptr<LicenseCatalog> owned,
                 LicenseGrouping grouping_in,
                 std::optional<LicenseGrouping> whole_catalog_in)
        : owned_catalog(std::move(owned)),
          catalog(catalog_in),
          grouping(std::move(grouping_in)),
          whole_catalog(std::move(whole_catalog_in)),
          instance(catalog_in) {}

    // Equation scopes: the overlap groups, or with use_grouping off the
    // one scope of every license.
    const LicenseGrouping& scopes() const {
      return whole_catalog.has_value() ? *whole_catalog : grouping;
    }

    uint64_t epoch = 0;
    // Epoch 0 borrows the caller's catalog (owned_catalog null); every
    // later epoch owns the catalog it was built from.
    std::unique_ptr<LicenseCatalog> owned_catalog;
    const LicenseCatalog* catalog;
    LicenseGrouping grouping;
    // Set only with use_grouping off (see scopes()).
    std::optional<LicenseGrouping> whole_catalog;
    SoaInstanceValidator instance;  // Immutable ⇒ lock-free.
    // Shared with the neighbouring epochs for every shard a
    // reconfiguration carried instead of rebuilding.
    std::vector<std::shared_ptr<Shard>> shards;
    // Set (under every shard lock) when a newer epoch replaces this one.
    // An admission that observes it after locking re-pins and retries;
    // the publish order (state_ first, retired second) guarantees the
    // retry sees the new epoch.
    mutable std::atomic<bool> retired{false};
  };

  // What one reconfiguration does, in current-epoch index space.
  struct ReconfigPlan {
    const License* acquire = nullptr;  // Non-null: acquisition.
    LicenseSet removed;                // Revoke/expire: indexes to drop.
    // Journal frame fields.
    int revoke_index = -1;
    std::string revoke_id;
    int expire_dim = -1;
    int64_t expire_cutoff = 0;
  };

  IssuanceService(const LicenseCatalog* licenses,
                  const OnlineValidatorOptions& options,
                  std::shared_ptr<CatalogEpoch> epoch0);

  static Result<std::unique_ptr<IssuanceService>> CreateOwned(
      const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
      const OnlineValidatorOptions& options, const LogStore& history);

  // Assembles a fully-derived epoch (shards, scopes, instance geometry)
  // around `catalog` — the publish step is the caller's. Shards start
  // without tables (LayOutTables). Fails with kCapacityExceeded when a
  // scope exceeds kMaxScopeLicenses.
  static Result<std::shared_ptr<CatalogEpoch>> BuildEpoch(
      const OnlineValidatorOptions& options, uint64_t epoch_number,
      const LicenseCatalog* catalog, std::unique_ptr<LicenseCatalog> owned,
      LicenseGrouping grouping);

  // Routes one record into `epoch`'s shards: a scope-checked log append
  // that also charges the shard's tables once they are laid out. Caller
  // owns exclusivity: history preload at construction, off-side epoch
  // build, or the catch-up under every old shard lock.
  // `carried`, when set, flags (by shard index) the shards a
  // reconfiguration carried over from the live epoch; routing a record
  // into one fails with kInternal instead of writing to it.
  Status ApplyRecordToEpoch(CatalogEpoch* epoch, const LogRecord& record,
                            const std::vector<bool>* carried = nullptr) const;

  // Gives shard `shard_index` of `epoch` one table per scope the epoch
  // stripes onto it: a table whose scope survives (a carried shard) moves
  // over as is, every other one is built from the shard's log through the
  // zeta transform. Caller owns exclusivity, as for ApplyRecordToEpoch.
  static void LayOutTables(const CatalogEpoch& epoch, size_t shard_index);

  // The shared reconfiguration path (caller holds reconfig_mutex_): builds
  // the next epoch from `plan`, journals it, publishes, retires. Returns
  // the acquired index or the removed count.
  Result<int> ReconfigureLocked(const ReconfigPlan& plan);

  // Validates and executes a single-index revocation. Caller holds
  // reconfig_mutex_, so `index` is stable in the current epoch.
  Status RevokeIndexLocked(int index);

  std::shared_ptr<const CatalogEpoch> Pin() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_;
  }
  // Makes `next` the current epoch. Callers then mark the old one retired.
  void Publish(std::shared_ptr<const CatalogEpoch> next) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_.swap(next);
  }

  // Equation scope of satisfying set `s` within `epoch` (its overlap
  // group, or the whole catalog without grouping), plus the owning shard
  // index.
  static int RouteSet(const CatalogEpoch& epoch, const LicenseSet& s,
                      size_t* shard);
  // Equation check + table/log update for one request in scope `scope`.
  // Caller holds `shard.mutex` on a shard of `epoch`. `decision` already
  // carries the satisfying set; `trace` collects the equation-scan and
  // journal-append spans (never null — pass a RequestTrace built from a
  // null tracer to run untraced).
  Status AdmitLocked(const CatalogEpoch& epoch, Shard* shard,
                     const License& issued, int scope,
                     OnlineDecision* decision, RequestTrace* trace);

  OnlineValidatorOptions options_;
  // The current epoch. A pin copies the shared_ptr under `state_mutex_`
  // (a leaf lock held for the copy alone; the refcount = reader count);
  // Reconfigure is the only writer. Not std::atomic<std::shared_ptr>:
  // libstdc++ 12's load releases its internal lock bit with relaxed order
  // after reading the pointer, a data race with the next store that
  // ThreadSanitizer reports whenever issuance overlaps a reconfiguration.
  mutable std::mutex state_mutex_;
  std::shared_ptr<const CatalogEpoch> state_;  // Guarded by state_mutex_.
  // Serializes reconfigurations and guards dyn_grouping_. Lock order:
  // reconfig_mutex_ → shard mutexes (index order) → journal_mutex_.
  mutable std::mutex reconfig_mutex_;
  // Incremental overlap components, mirrored into each epoch's grouping.
  DynamicGrouping dyn_grouping_;
  IssuanceMetrics owned_metrics_;
  IssuanceMetrics* metrics_;  // == options_.metrics or &owned_metrics_.
  std::atomic<int64_t> issue_sequence_{0};

  // Write-ahead journal. `has_journal_` gates the accept path so services
  // without a journal never touch `journal_mutex_` (the sharded fast path
  // stays lock-disjoint across groups). Lock order: shard mutex(es), then
  // journal_mutex_ — AdmitLocked, Reconfigure and WriteCheckpoint all
  // follow it.
  std::atomic<bool> has_journal_{false};
  mutable std::mutex journal_mutex_;
  std::unique_ptr<JournalWriter> journal_;  // Guarded by journal_mutex_.
  uint64_t journal_seq_ = 0;                // Guarded by journal_mutex_.
};

}  // namespace geolic

#endif  // GEOLIC_SERVICE_ISSUANCE_SERVICE_H_
