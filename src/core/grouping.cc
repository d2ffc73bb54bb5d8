#include "core/grouping.h"

#include <utility>

#include "core/overlap_graph.h"

namespace geolic {

LicenseGrouping LicenseGrouping::FromLicenses(const LicenseCatalog& licenses) {
  return LicenseGrouping(FindComponentsDfs(BuildOverlapGraph(licenses)));
}

LicenseGrouping LicenseGrouping::FromRects(
    const std::vector<HyperRect>& rects) {
  return LicenseGrouping(FindComponentsDfs(BuildOverlapGraphFromRects(rects)));
}

LicenseGrouping LicenseGrouping::FromComponents(ComponentSet components) {
  return LicenseGrouping(std::move(components));
}

LicenseGrouping::LicenseGrouping(ComponentSet components)
    : components_(std::move(components)),
      group_of_(components_.component_of),
      position_(components_.component_of.size(), -1),
      members_(components_.components.size()) {
  for (size_t k = 0; k < components_.components.size(); ++k) {
    // Algorithm 5 walks j = 1..N and assigns positions p = 1, 2, ... to the
    // group's members in ascending original-index order; MaskToIndexes
    // yields exactly that order.
    members_[k] = (components_.components[k]).ToIndexes();
    for (size_t p = 0; p < members_[k].size(); ++p) {
      position_[static_cast<size_t>(members_[k][p])] = static_cast<int>(p);
    }
  }
}

LicenseSet LicenseGrouping::LocalToOriginalMask(int group,
                                                 LicenseSet local) const {
  const std::vector<int>& members = members_[static_cast<size_t>(group)];
  LicenseSet original;
  for (int position : local.Indexes()) {
    GEOLIC_DCHECK(position < static_cast<int>(members.size()));
    original |= LicenseSet::Singleton(members[static_cast<size_t>(position)]);
  }
  return original;
}

Result<std::vector<int64_t>> LicenseGrouping::GroupAggregates(
    int group, const std::vector<int64_t>& aggregates) const {
  if (group < 0 || group >= group_count()) {
    return Status::OutOfRange("group index out of range: " +
                              std::to_string(group));
  }
  if (aggregates.size() < static_cast<size_t>(num_licenses())) {
    return Status::InvalidArgument(
        "aggregate array smaller than the number of licenses");
  }
  const std::vector<int>& members = members_[static_cast<size_t>(group)];
  std::vector<int64_t> out;
  out.reserve(members.size());
  for (int original : members) {
    out.push_back(aggregates[static_cast<size_t>(original)]);
  }
  return out;
}

}  // namespace geolic
