#ifndef GEOLIC_VALIDATION_EXHAUSTIVE_VALIDATOR_H_
#define GEOLIC_VALIDATION_EXHAUSTIVE_VALIDATOR_H_

#include <cstdint>
#include <unordered_map>

#include "util/license_set.h"

namespace geolic {

// The baseline offline validators that used to live here
// (ValidateExhaustive, ValidateExhaustiveLimited, and ValidateZeta from
// the former zeta_validator.h) are folded into the Validate facade:
//
//   Validate(tree, aggregates, {.mode = ValidationMode::kExhaustive})
//   Validate(tree, aggregates, {.mode = ValidationMode::kZeta})
//
// with options.max_equations / options.max_dense_n replacing the extra
// parameters. See validation/validate.h. Only the reference LHS evaluator
// below remains.

// Reference implementation of a single equation's LHS, straight from merged
// log counts: Σ counts over keys that are subsets of `set`. O(#distinct
// sets) per call; used by tests to pin down the tree traversal.
int64_t LhsFromMergedCounts(
    const std::unordered_map<LicenseSet, int64_t>& merged_counts,
    const LicenseSet& set);

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_EXHAUSTIVE_VALIDATOR_H_
