// The three benchmark workloads and the inputs generated for them from a
// seed: the program's construction inputs (license geometry) and the
// request stream the client sends. Generation happens before anything is
// timed and is outside set-up time.
#ifndef GEOBENCH_INPUTS_H_
#define GEOBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/tenant_source.h"
#include "licensing/license.h"
#include "net/wire.h"
#include "workload/multi_tenant.h"
#include "workload/workload.h"

namespace geobench {

enum class Kind { kPaperIssue, kCatalogHot, kCatalogEvict };

// Fixed shape of one workload. The open-loop rates are part of the
// benchmark's definition: each was set once, at about half of the
// closed-loop throughput measured when the benchmark was written, and is
// never re-derived from a later run.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  double open_rate;         // Offered load of the open-loop phase, req/s.
  uint64_t warmup_requests;  // Stream requests sent during set-up.
  int fsync_interval;       // Journal (paper) or pool writers (catalog).
  uint64_t tenants;         // Catalog workloads only.
  size_t budget_bytes;      // Catalog memory budget.
  size_t replay_chunk;      // Requests per on/off chunk of the traced replay.
};

// Nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

// The paper_issue license set: PaperSweepConfig(32) geometry. One license
// in eight gets a thousand times its paper budget, so accepts go on
// through a run; the others keep theirs and are soon used up, so requests
// that only they satisfy are refused by the aggregate check.
geolic::Workload MakePaperWorkload();

// Serves tenant 0 = the paper content, and tenant 1 = a copy of it that
// only the reconfiguration calls touch (traced replay of paper_issue).
class PaperTenantSource : public geolic::TenantSource {
 public:
  geolic::Result<geolic::Workload> MakeTenant(uint64_t tenant_id) override;
};

// The multi-tenant source plus one extra tenant, id == num_tenants, that no
// request addresses: the reconfiguration thread acquires and revokes a
// license there.
class BenchTenantSource : public geolic::TenantSource {
 public:
  explicit BenchTenantSource(const geolic::MultiTenantWorkload* workload)
      : workload_(workload) {}
  geolic::Result<geolic::Workload> MakeTenant(uint64_t tenant_id) override;

 private:
  const geolic::MultiTenantWorkload* workload_;
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;

  // paper_issue: the content's schema and licenses.
  std::unique_ptr<geolic::Workload> paper;
  // Catalog workloads: the tenants' generator.
  std::unique_ptr<geolic::MultiTenantWorkload> tenants;

  // The license the reconfiguration thread acquires and revokes. It lies
  // apart from every request, so a revoke never drops an accepted record.
  geolic::License reconfig_license;
  uint64_t reconfig_tenant = 0;

  // Request stream. Sequence index i addresses touch[i] for the first
  // touch.size() indexes (catalog_hot: one request per tenant), then the
  // stream pool, cycled.
  geolic::net::FrameKind frame_kind = geolic::net::FrameKind::kIssueRequest;
  std::vector<std::string> touch;
  std::vector<uint64_t> touch_tenant;
  std::vector<std::string> stream;
  std::vector<uint64_t> stream_tenant;

  uint64_t warmup_count() const { return touch.size() + spec->warmup_requests; }
  std::string_view Payload(uint64_t index) const;
  uint64_t Tenant(uint64_t index) const;
  // Appends the wire frame of request `index`, whose request id is
  // index + 1.
  void AppendFrame(uint64_t index, std::string* out) const;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

}  // namespace geobench

#endif  // GEOBENCH_INPUTS_H_
