#ifndef GEOLIC_GEOMETRY_CONSTRAINT_RANGE_H_
#define GEOLIC_GEOMETRY_CONSTRAINT_RANGE_H_

#include <string>
#include <variant>

#include "geometry/category_set.h"
#include "geometry/interval.h"
#include "geometry/multi_interval.h"
#include "util/check.h"

namespace geolic {

// The value of one instance-based constraint dimension: an ordered interval
// (validity period, resolution, ...), a union of intervals (a window with
// blackout gaps), or a category set (region, device class, ...). All kinds
// support the same per-dimension algebra — emptiness, containment, overlap,
// intersection — which is all the paper's geometric arguments use, so
// hyper-rectangles may freely mix them.
//
// Interval and multi-interval are mutually comparable (an interval is a
// one-piece union); category sets never relate to ordered kinds.
class ConstraintRange {
 public:
  // Default-constructs an empty interval range.
  ConstraintRange() : value_(Interval::Empty()) {}
  explicit ConstraintRange(Interval interval) : value_(interval) {}
  explicit ConstraintRange(MultiInterval multi) : value_(std::move(multi)) {}
  explicit ConstraintRange(CategorySet categories) : value_(categories) {}

  bool is_interval() const {
    return std::holds_alternative<Interval>(value_);
  }
  bool is_multi_interval() const {
    return std::holds_alternative<MultiInterval>(value_);
  }
  // True for both single intervals and multi-intervals.
  bool is_ordered() const { return is_interval() || is_multi_interval(); }
  bool is_categories() const {
    return std::holds_alternative<CategorySet>(value_);
  }

  const Interval& interval() const {
    GEOLIC_DCHECK(is_interval());
    return std::get<Interval>(value_);
  }
  const MultiInterval& multi_interval() const {
    GEOLIC_DCHECK(is_multi_interval());
    return std::get<MultiInterval>(value_);
  }
  const CategorySet& categories() const {
    GEOLIC_DCHECK(is_categories());
    return std::get<CategorySet>(value_);
  }

  // View of any ordered kind as a multi-interval (single intervals promote
  // to a one-piece union). Must not be called on category ranges.
  MultiInterval AsMultiInterval() const;

  bool empty() const;

  // True iff `other` ⊆ this. Ordered kinds compare with each other;
  // category sets only with category sets.
  bool Contains(const ConstraintRange& other) const;

  // True iff the ranges intersect. Same kind-mixing rules as Contains.
  bool Overlaps(const ConstraintRange& other) const;

  // Set intersection. Incompatible kinds yield an empty range.
  ConstraintRange Intersect(const ConstraintRange& other) const;

  // Interval over-approximation of an ordered range (the SoA column
  // value, geometry/soa_rects.h): its bounding interval. Lossy for
  // multi-piece unions, so exact tests must confirm any answer derived
  // from it. Precondition: not a category set.
  Interval BoundingInterval() const;

  // "[10, 20]" / "[1, 3]|[7, 9]" for ordered kinds, "<cats:0x5>" for
  // category sets (the licensing layer renders category names via its
  // universe; this form is for logs and debugging only).
  std::string ToString() const;

  friend bool operator==(const ConstraintRange& a, const ConstraintRange& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<Interval, MultiInterval, CategorySet> value_;
};

}  // namespace geolic

#endif  // GEOLIC_GEOMETRY_CONSTRAINT_RANGE_H_
