#ifndef GEOLIC_CORE_INSTANCE_VALIDATOR_H_
#define GEOLIC_CORE_INSTANCE_VALIDATOR_H_

#include "geometry/soa_rects.h"
#include "licensing/license_catalog.h"
#include "util/license_set.h"

namespace geolic {

// Finds, for a newly generated license, the set S of redistribution
// licenses whose instance-based constraints it satisfies — geometrically,
// the licenses whose hyper-rectangle completely contains the new license's
// (paper Section 3.1). S is what gets appended to the log; an empty S means
// the license fails instance-based validation outright (the paper's L_U^2
// in figure 2).
//
// The catalog's rects are compiled once into an SoA column layout
// (geometry/soa_rects.h), so a lookup is contiguous per-dimension sweeps
// through the runtime-dispatched SIMD kernels plus one scalar
// content/permission compare covering the whole catalog (uniform by
// construction). The result is bit-identical to a per-license
// License::InstanceContains loop on every input. The compile is a snapshot:
// licenses added to the catalog afterwards are not seen.
class SoaInstanceValidator {
 public:
  // `licenses` must outlive the validator.
  explicit SoaInstanceValidator(const LicenseCatalog* licenses);

  // Mask of redistribution licenses containing `issued`.
  LicenseSet SatisfyingSet(const License& issued) const;

 private:
  const LicenseCatalog* licenses_;
  SoaRects rects_;
};

}  // namespace geolic

#endif  // GEOLIC_CORE_INSTANCE_VALIDATOR_H_
