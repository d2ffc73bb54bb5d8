#ifndef GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_
#define GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "licensing/license.h"
#include "util/status.h"

namespace geolic {

// Binary (de)serialization of individual licenses, schema-independent:
// constraint ranges are stored raw (interval endpoints / category bitmask),
// so the reader needs no ConstraintSchema. The one codec behind the wire
// issue payloads, journal acquire/tenant-op frames, catalog spills and
// authority checkpoints; the textual form in license_parser.h remains the
// human-facing format.
//
// Layout (little-endian): id, content key (both u32-length-prefixed), type
// i32, permission i32, aggregate count i64, dimension count u32, then per
// dimension a kind byte and its payload: 0 = interval (two i64 endpoints,
// empty as [0, -1]), 1 = categories (one u64 mask), 2 = multi-interval
// (u32 piece count, then two i64 endpoints per piece).

// Appends one license's bytes to `out`.
void AppendLicenseBinary(const License& license, std::string* out);

// Decodes one license starting at `*pos` in `bytes` and advances `*pos`
// past it. Truncated or corrupt bytes are a ParseError (with `*pos` left
// somewhere inside the license); bytes after the license are the caller's.
Result<License> ReadLicenseBinary(std::string_view bytes, size_t* pos);

}  // namespace geolic

#endif  // GEOLIC_LICENSING_LICENSE_SERIALIZATION_H_
