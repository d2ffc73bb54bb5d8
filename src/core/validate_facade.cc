// Implements the LicenseCatalog overloads of the Validate facade
// (validation/validate.h). They live in geolic_core because the grouped
// modes dispatch into grouping and tree division; the tree/log overloads
// are in validation/validate.cc.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/grouping.h"
#include "core/tree_division.h"
#include "validation/validate.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace geolic {
namespace {

// The grouped pipeline: grouping + division (D_T), then per-group equation
// evaluation (V_T) — serially or with one task per group. With
// `zeta_per_group`, groups up to max_dense_n use the dense engine. Each
// phase is one span on `tracer`; the per-group engine calls run untraced
// so no stage is recorded twice.
Result<ValidationOutcome> RunGrouped(const LicenseCatalog& licenses,
                                     ValidationTree tree, bool zeta_per_group,
                                     int max_dense_n, int num_threads,
                                     Tracer* tracer) {
  ValidationOutcome outcome;

  // D_T: grouping, division and reindexing, under one kTreeDivision span.
  struct Division {
    LicenseGrouping grouping;
    DividedTrees divided;
  };
  Stopwatch division_timer;
  Result<Division> division = [&]() -> Result<Division> {
    ScopedTracerSpan span(tracer, TraceStage::kTreeDivision);
    LicenseGrouping grouping = LicenseGrouping::FromLicenses(licenses);
    GEOLIC_ASSIGN_OR_RETURN(
        DividedTrees divided,
        DivideAndReindex(std::move(tree), grouping,
                         licenses.AggregateCounts()));
    return Division{std::move(grouping), std::move(divided)};
  }();
  outcome.division_micros = division_timer.ElapsedMicros();
  GEOLIC_RETURN_IF_ERROR(division.status());
  const LicenseGrouping& grouping = division->grouping;
  const DividedTrees& divided = division->divided;
  outcome.group_count = grouping.group_count();
  for (int k = 0; k < grouping.group_count(); ++k) {
    outcome.group_sizes.push_back(grouping.GroupSize(k));
  }

  const int g = grouping.group_count();
  const auto validate_group = [&](int k) -> Result<ValidationReport> {
    const ValidationTree& group_tree = divided.trees[static_cast<size_t>(k)];
    const std::vector<int64_t>& group_aggregates =
        divided.aggregates[static_cast<size_t>(k)];
    ValidateOptions engine;
    engine.mode = (zeta_per_group && grouping.GroupSize(k) <= max_dense_n)
                      ? ValidationMode::kZeta
                      : ValidationMode::kExhaustive;
    engine.max_dense_n = max_dense_n;
    Result<ValidationOutcome> group_outcome =
        Validate(group_tree, group_aggregates, engine);
    if (!group_outcome.ok()) return group_outcome.status();
    return std::move(group_outcome->report);
  };

  Stopwatch validation_timer;
  ScopedTracerSpan validation_span(tracer, TraceStage::kOfflineValidation);
  std::vector<Result<ValidationReport>> group_reports(
      static_cast<size_t>(g), Status::Internal("not run"));
  if (num_threads > 1 && g > 1) {
    ThreadPool pool(std::min(num_threads, g));
    for (int k = 0; k < g; ++k) {
      pool.Schedule([&validate_group, &group_reports, k] {
        group_reports[static_cast<size_t>(k)] = validate_group(k);
      });
    }
    pool.Wait();
  } else {
    for (int k = 0; k < g; ++k) {
      group_reports[static_cast<size_t>(k)] = validate_group(k);
    }
  }

  // Merge in ascending group order so the report is deterministic and
  // byte-identical to the serial run.
  for (int k = 0; k < g; ++k) {
    Result<ValidationReport>& group_report =
        group_reports[static_cast<size_t>(k)];
    if (!group_report.ok()) {
      return group_report.status();
    }
    outcome.report.equations_evaluated += group_report->equations_evaluated;
    outcome.report.nodes_visited += group_report->nodes_visited;
    for (const EquationResult& violation : group_report->violations) {
      EquationResult translated = violation;
      translated.set = grouping.LocalToOriginalMask(k, violation.set);
      outcome.report.violations.push_back(translated);
    }
  }
  outcome.validation_micros = validation_timer.ElapsedMicros();
  return outcome;
}

}  // namespace

Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   ValidationTree tree,
                                   const ValidateOptions& options) {
  ValidationMode mode = options.mode == ValidationMode::kAuto
                            ? ValidationMode::kGrouped
                            : options.mode;
  if (mode == ValidationMode::kExhaustive || mode == ValidationMode::kZeta) {
    ValidateOptions ungrouped = options;
    ungrouped.mode = mode;
    return Validate(tree, licenses.AggregateCounts(), ungrouped);
  }
  const int threads = options.num_threads == 0
                          ? ThreadPool::DefaultThreadCount()
                          : options.num_threads;
  return RunGrouped(licenses, std::move(tree),
                    mode == ValidationMode::kGroupedZeta,
                    options.max_dense_n, threads, options.tracer);
}

Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   const LogStore& log,
                                   const ValidateOptions& options) {
  ValidationMode mode = options.mode == ValidationMode::kAuto
                            ? ValidationMode::kGrouped
                            : options.mode;
  if (mode == ValidationMode::kExhaustive || mode == ValidationMode::kZeta) {
    ValidateOptions ungrouped = options;
    ungrouped.mode = mode;
    return Validate(log, licenses.AggregateCounts(), ungrouped);
  }
  if (options.order != TreeOrder::kIndex) {
    return Status::InvalidArgument(
        "frequency relabeling is not supported for grouped modes (grouping "
        "already renumbers per group)");
  }
  GEOLIC_ASSIGN_OR_RETURN(ValidationTree tree,
                          ValidationTree::BuildFromLog(log));
  ValidateOptions resolved = options;
  resolved.mode = mode;
  return Validate(licenses, std::move(tree), resolved);
}

}  // namespace geolic
