#include "licensing/license_serialization.h"

#include <algorithm>
#include <vector>

#include "persist/framing.h"

namespace geolic {
namespace {

using framing::GetScalar;
using framing::PutScalar;

constexpr uint32_t kMaxStringSize = 1u << 16;
constexpr uint32_t kMaxDimensions = 1u << 10;

Result<std::string> ReadString(std::string_view bytes, size_t* pos) {
  uint32_t size = 0;
  if (!GetScalar(bytes, pos, &size) || size > kMaxStringSize) {
    return Status::ParseError("bad string in license blob");
  }
  if (bytes.size() - *pos < size) {
    return Status::ParseError("truncated string in license blob");
  }
  std::string text(bytes.substr(*pos, size));
  *pos += size;
  return text;
}

}  // namespace

void AppendLicenseBinary(const License& license, std::string* out) {
  const HyperRect& rect = license.rect();
  framing::PutString(out, license.id());
  framing::PutString(out, license.content_key());
  PutScalar(out, static_cast<int32_t>(license.type()));
  PutScalar(out, static_cast<int32_t>(license.permission()));
  PutScalar(out, license.aggregate_count());
  PutScalar(out, static_cast<uint32_t>(rect.dimensions()));
  for (const ConstraintRange& range : rect.dims()) {
    if (range.is_interval()) {
      // Serialise empty intervals canonically as [0, -1].
      const Interval& interval = range.interval();
      PutScalar(out, uint8_t{0});
      PutScalar(out, interval.empty() ? int64_t{0} : interval.lo());
      PutScalar(out, interval.empty() ? int64_t{-1} : interval.hi());
    } else if (range.is_multi_interval()) {
      const MultiInterval& multi = range.multi_interval();
      PutScalar(out, uint8_t{2});
      PutScalar(out, static_cast<uint32_t>(multi.piece_count()));
      for (const Interval& piece : multi.pieces()) {
        PutScalar(out, piece.lo());
        PutScalar(out, piece.hi());
      }
    } else {
      PutScalar(out, uint8_t{1});
      PutScalar(out, range.categories().mask());
    }
  }
}

Result<License> ReadLicenseBinary(std::string_view bytes, size_t* pos) {
  GEOLIC_ASSIGN_OR_RETURN(std::string id, ReadString(bytes, pos));
  GEOLIC_ASSIGN_OR_RETURN(std::string content_key, ReadString(bytes, pos));
  int32_t type = 0;
  int32_t permission = 0;
  int64_t aggregate = 0;
  uint32_t dim_count = 0;
  if (!GetScalar(bytes, pos, &type) || !GetScalar(bytes, pos, &permission) ||
      !GetScalar(bytes, pos, &aggregate) ||
      !GetScalar(bytes, pos, &dim_count)) {
    return Status::ParseError("truncated license header");
  }
  if (type < 0 || type > 1) {
    return Status::ParseError("bad license type in blob");
  }
  if (permission < 0 || permission >= kNumPermissions) {
    return Status::ParseError("bad permission in blob");
  }
  if (dim_count > kMaxDimensions) {
    return Status::ParseError("implausible dimension count in blob");
  }
  // Every dimension takes at least 9 bytes, so corrupt counts cannot make
  // the reservation outgrow the input.
  std::vector<ConstraintRange> dims;
  dims.reserve(std::min<size_t>(dim_count, (bytes.size() - *pos) / 9));
  for (uint32_t d = 0; d < dim_count; ++d) {
    uint8_t kind = 0;
    if (!GetScalar(bytes, pos, &kind) || kind > 2) {
      return Status::ParseError("bad dimension kind in blob");
    }
    if (kind == 0) {
      int64_t lo = 0;
      int64_t hi = 0;
      if (!GetScalar(bytes, pos, &lo) || !GetScalar(bytes, pos, &hi)) {
        return Status::ParseError("truncated interval dimension");
      }
      dims.emplace_back(Interval(lo, hi));
    } else if (kind == 2) {
      uint32_t piece_count = 0;
      if (!GetScalar(bytes, pos, &piece_count) ||
          piece_count > kMaxDimensions) {
        return Status::ParseError("bad piece count in blob");
      }
      std::vector<Interval> pieces;
      pieces.reserve(
          std::min<size_t>(piece_count, (bytes.size() - *pos) / 16));
      for (uint32_t p = 0; p < piece_count; ++p) {
        int64_t lo = 0;
        int64_t hi = 0;
        if (!GetScalar(bytes, pos, &lo) || !GetScalar(bytes, pos, &hi)) {
          return Status::ParseError("truncated multi-interval dimension");
        }
        pieces.emplace_back(lo, hi);
      }
      dims.emplace_back(MultiInterval::FromIntervals(std::move(pieces)));
    } else {
      uint64_t mask = 0;
      if (!GetScalar(bytes, pos, &mask)) {
        return Status::ParseError("truncated category dimension");
      }
      dims.emplace_back(CategorySet(mask));
    }
  }
  return License(std::move(id), std::move(content_key),
                 static_cast<LicenseType>(type),
                 static_cast<Permission>(permission),
                 HyperRect(std::move(dims)), aggregate);
}

}  // namespace geolic
