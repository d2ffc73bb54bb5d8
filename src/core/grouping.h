#ifndef GEOLIC_CORE_GROUPING_H_
#define GEOLIC_CORE_GROUPING_H_

#include <vector>

#include "graph/connected_components.h"
#include "licensing/license_catalog.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// The grouping of N redistribution licenses into g mutually non-overlapping
// groups (connected components of the overlap graph), plus the index
// machinery of the paper's Algorithm 5: each license's position inside its
// group (`position_k`), used to renumber divided validation trees so group
// k's indexes run 0..N_k−1.
class LicenseGrouping {
 public:
  // Groups `licenses` by geometric overlap (builds the overlap graph and
  // runs Algorithm 3's DFS).
  static LicenseGrouping FromLicenses(const LicenseCatalog& licenses);

  // Groups raw hyper-rectangles.
  static LicenseGrouping FromRects(const std::vector<HyperRect>& rects);

  // Groups from a pre-built component set (n = components.component_of
  // size). Used by tests.
  static LicenseGrouping FromComponents(ComponentSet components);

  int num_licenses() const {
    return static_cast<int>(group_of_.size());
  }
  // g — the number of groups.
  int group_count() const {
    return static_cast<int>(components_.components.size());
  }
  // N_k — licenses in group k.
  int GroupSize(int group) const { return components_.SizeOf(group); }
  // Mask of the licenses in group k (original indexes).
  LicenseSet GroupMask(int group) const {
    return components_.components[static_cast<size_t>(group)];
  }
  // Group of license `index`.
  int GroupOf(int index) const {
    return group_of_[static_cast<size_t>(index)];
  }
  // Position of license `index` inside its group (0-based; ascending with
  // the original index, as Algorithm 5 assigns positions in index order).
  int PositionOf(int index) const {
    return position_[static_cast<size_t>(index)];
  }
  // Original license index of position `position` in group `group`.
  int OriginalIndexOf(int group, int position) const {
    return members_[static_cast<size_t>(group)][static_cast<size_t>(position)];
  }

  // Translates a mask over group `group`'s local positions back to original
  // license indexes.
  LicenseSet LocalToOriginalMask(int group, LicenseSet local) const;

  // Algorithm 5's A_k: per-group aggregate array in local position order,
  // derived from the full array A (A[j] = aggregate of license j).
  Result<std::vector<int64_t>> GroupAggregates(
      int group, const std::vector<int64_t>& aggregates) const;

  const ComponentSet& components() const { return components_; }

 private:
  explicit LicenseGrouping(ComponentSet components);

  ComponentSet components_;
  std::vector<int> group_of_;                 // Per original index.
  std::vector<int> position_;                 // Per original index.
  std::vector<std::vector<int>> members_;     // Per group, ascending.
};

}  // namespace geolic

#endif  // GEOLIC_CORE_GROUPING_H_
