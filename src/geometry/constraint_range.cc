#include "geometry/constraint_range.h"

#include <cinttypes>
#include <cstdio>

#include "util/check.h"

namespace geolic {

MultiInterval ConstraintRange::AsMultiInterval() const {
  GEOLIC_DCHECK(is_ordered());
  if (is_interval()) {
    return MultiInterval::Of(interval());
  }
  return multi_interval();
}

bool ConstraintRange::empty() const {
  if (is_interval()) {
    return interval().empty();
  }
  if (is_multi_interval()) {
    return multi_interval().empty();
  }
  return categories().empty();
}

bool ConstraintRange::Contains(const ConstraintRange& other) const {
  if (is_categories() || other.is_categories()) {
    if (is_categories() && other.is_categories()) {
      return categories().Contains(other.categories());
    }
    return false;
  }
  // Both ordered; the common single-interval case avoids promotion.
  if (is_interval() && other.is_interval()) {
    return interval().Contains(other.interval());
  }
  return AsMultiInterval().Contains(other.AsMultiInterval());
}

bool ConstraintRange::Overlaps(const ConstraintRange& other) const {
  if (is_categories() || other.is_categories()) {
    if (is_categories() && other.is_categories()) {
      return categories().Overlaps(other.categories());
    }
    return false;
  }
  if (is_interval() && other.is_interval()) {
    return interval().Overlaps(other.interval());
  }
  return AsMultiInterval().Overlaps(other.AsMultiInterval());
}

ConstraintRange ConstraintRange::Intersect(const ConstraintRange& other) const {
  if (is_categories() || other.is_categories()) {
    if (is_categories() && other.is_categories()) {
      return ConstraintRange(categories().Intersect(other.categories()));
    }
    return ConstraintRange(Interval::Empty());
  }
  if (is_interval() && other.is_interval()) {
    return ConstraintRange(interval().Intersect(other.interval()));
  }
  return ConstraintRange(
      AsMultiInterval().Intersect(other.AsMultiInterval()));
}

Interval ConstraintRange::BoundingInterval() const {
  GEOLIC_DCHECK(is_ordered());
  if (is_interval()) {
    return interval();
  }
  return multi_interval().BoundingInterval();
}

std::string ConstraintRange::ToString() const {
  if (is_interval()) {
    return interval().ToString();
  }
  if (is_multi_interval()) {
    return multi_interval().ToString();
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "<cats:0x%" PRIx64 ">",
                categories().mask());
  return buffer;
}

}  // namespace geolic
