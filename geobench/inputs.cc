#include "inputs.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "licensing/constraint_schema.h"
#include "licensing/license_catalog.h"
#include "util/check.h"
#include "util/random.h"

namespace geobench {

using geolic::License;
using geolic::LicenseBuilder;
using geolic::Workload;

namespace {

// Requests in the cycled stream pool.
constexpr size_t kStreamPool = size_t{1} << 16;
// paper_issue: every 50th request lies outside every license.
constexpr uint64_t kOutsideEvery = 50;
// paper_issue: licenses whose index is a multiple of this get an ample
// budget; the rest keep the paper's.
constexpr int kAmpleEvery = 8;
constexpr int64_t kAmpleScale = 1000;
constexpr int kPaperLicenses = 32;

constexpr WorkloadSpec kWorkloads[] = {
    // name, kind, open_rate, warmup, fsync_interval, tenants, budget, chunk
    {"paper_issue", Kind::kPaperIssue, 10000.0, 30000, 1024, 0, 0, 1024},
    {"catalog_hot", Kind::kCatalogHot, 10000.0, 20000, 0, 1000, 512ull << 20,
     1024},
    {"catalog_evict", Kind::kCatalogEvict, 1000.0, 3000, 0, 100000,
     8ull << 20, 256},
};

int64_t DomainSize() { return geolic::WorkloadConfig().domain_size; }

License MustBuild(const LicenseBuilder& builder) {
  geolic::Result<License> built = builder.Build();
  GEOLIC_CHECK(built.ok());
  return *std::move(built);
}

// A redistribution license far outside every generated slab: acquiring it
// opens a new overlap group that no request falls in.
License MakeReconfigLicense(const geolic::ConstraintSchema& schema) {
  const int64_t lo = 3 * DomainSize();
  LicenseBuilder builder(&schema);
  builder.SetId("BENCH-RECONFIG")
      .SetContentKey("K")
      .SetType(geolic::LicenseType::kRedistribution)
      .SetPermission(geolic::Permission::kPlay)
      .SetAggregateCount(1000);
  for (int d = 0; d < schema.dimensions(); ++d) {
    builder.SetInterval(schema.name(d), lo, lo + 100);
  }
  return MustBuild(builder);
}

// A usage license that no redistribution license contains.
License MakeOutsideRequest(const geolic::ConstraintSchema& schema,
                           geolic::Rng* rng, uint64_t sequence) {
  LicenseBuilder builder(&schema);
  builder.SetId("LU" + std::to_string(sequence))
      .SetContentKey("K")
      .SetType(geolic::LicenseType::kUsage)
      .SetPermission(geolic::Permission::kPlay)
      .SetAggregateCount(rng->UniformInt(10, 30));
  for (int d = 0; d < schema.dimensions(); ++d) {
    const int64_t lo = 2 * DomainSize() + rng->UniformInt(0, 1000);
    builder.SetInterval(schema.name(d), lo, lo + rng->UniformInt(0, 100));
  }
  return MustBuild(builder);
}

std::string EncodePaperRequest(const License& license) {
  std::string payload;
  GEOLIC_CHECK(geolic::net::EncodeIssueRequest(license, &payload).ok());
  return payload;
}

std::string EncodeTenantRequest(uint64_t tenant, const License& license) {
  std::string payload;
  GEOLIC_CHECK(
      geolic::net::EncodeTenantIssueRequest(tenant, license, &payload).ok());
  return payload;
}

// Tenant baselines materialized for request generation, behind a bounded
// cache (the Zipf head absorbs most draws).
class BaselineCache {
 public:
  explicit BaselineCache(const geolic::MultiTenantWorkload* workload)
      : workload_(workload) {}

  const Workload& Get(uint64_t tenant) {
    auto it = cache_.find(tenant);
    if (it == cache_.end()) {
      if (cache_.size() >= kCapacity) {
        cache_.clear();
      }
      geolic::Result<Workload> made = workload_->MakeTenant(tenant);
      GEOLIC_CHECK(made.ok());
      it = cache_.emplace(tenant, *std::move(made)).first;
    }
    return it->second;
  }

 private:
  static constexpr size_t kCapacity = 8192;
  const geolic::MultiTenantWorkload* workload_;
  std::unordered_map<uint64_t, Workload> cache_;
};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Workload MakePaperWorkload() {
  geolic::WorkloadGenerator generator(geolic::PaperSweepConfig(kPaperLicenses));
  geolic::Result<Workload> generated = generator.GenerateLicensesOnly();
  GEOLIC_CHECK(generated.ok());
  Workload paper;
  paper.schema = std::move(generated->schema);
  paper.licenses = std::make_unique<geolic::LicenseCatalog>(paper.schema.get());
  const geolic::LicenseCatalog& original = *generated->licenses;
  for (int i = 0; i < original.size(); ++i) {
    const License& license = original.at(i);
    const int64_t budget = i % kAmpleEvery == 0
                               ? license.aggregate_count() * kAmpleScale
                               : license.aggregate_count();
    LicenseBuilder builder(paper.schema.get());
    builder.SetId(license.id())
        .SetContentKey(license.content_key())
        .SetType(license.type())
        .SetPermission(license.permission())
        .SetAggregateCount(budget);
    for (int d = 0; d < paper.schema->dimensions(); ++d) {
      const geolic::Interval& range = license.rect().dim(d).interval();
      builder.SetInterval(paper.schema->name(d), range.lo(), range.hi());
    }
    GEOLIC_CHECK(paper.licenses->Add(MustBuild(builder)).ok());
  }
  return paper;
}

geolic::Result<Workload> PaperTenantSource::MakeTenant(uint64_t tenant_id) {
  if (tenant_id > 1) {
    return geolic::Status::InvalidArgument("no such tenant");
  }
  return MakePaperWorkload();
}

geolic::Result<Workload> BenchTenantSource::MakeTenant(uint64_t tenant_id) {
  const uint64_t n = workload_->config().num_tenants;
  return workload_->MakeTenant(tenant_id == n ? n - 1 : tenant_id);
}

std::string_view Inputs::Payload(uint64_t index) const {
  if (index < touch.size()) {
    return touch[index];
  }
  return stream[(index - touch.size()) % stream.size()];
}

uint64_t Inputs::Tenant(uint64_t index) const {
  if (index < touch_tenant.size()) {
    return touch_tenant[index];
  }
  return stream_tenant[(index - touch.size()) % stream_tenant.size()];
}

void Inputs::AppendFrame(uint64_t index, std::string* out) const {
  geolic::net::EncodeFrame(frame_kind, index + 1, Payload(index), out);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.spec = &spec;
  inputs.seed = seed;
  geolic::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  inputs.stream.reserve(kStreamPool);

  if (spec.kind == Kind::kPaperIssue) {
    inputs.paper = std::make_unique<Workload>(MakePaperWorkload());
    const Workload& paper = *inputs.paper;
    inputs.reconfig_license = MakeReconfigLicense(*paper.schema);
    inputs.frame_kind = geolic::net::FrameKind::kIssueRequest;
    geolic::WorkloadGenerator generator(
        geolic::PaperSweepConfig(kPaperLicenses));
    for (uint64_t i = 0; i < kStreamPool; ++i) {
      const uint64_t sequence = i + 1;
      if (sequence % kOutsideEvery == 0) {
        inputs.stream.push_back(EncodePaperRequest(
            MakeOutsideRequest(*paper.schema, &rng, sequence)));
        continue;
      }
      const int parent = static_cast<int>(
          rng.UniformInt(0, paper.licenses->size() - 1));
      inputs.stream.push_back(EncodePaperRequest(generator.DrawUsageLicense(
          paper, parent, &rng, static_cast<int64_t>(sequence))));
    }
    return inputs;
  }

  geolic::MultiTenantConfig config;
  config.num_tenants = spec.tenants;
  config.zipf_s = 1.1;
  inputs.tenants = std::make_unique<geolic::MultiTenantWorkload>(config);
  inputs.reconfig_tenant = spec.tenants;
  inputs.frame_kind = geolic::net::FrameKind::kTenantIssueRequest;
  {
    geolic::Result<Workload> probe = inputs.tenants->MakeTenant(0);
    GEOLIC_CHECK(probe.ok());
    inputs.reconfig_license = MakeReconfigLicense(*probe->schema);
  }
  BaselineCache baselines(inputs.tenants.get());
  if (spec.kind == Kind::kCatalogHot) {
    for (uint64_t tenant = 0; tenant < spec.tenants; ++tenant) {
      const License request = inputs.tenants->DrawRequest(
          baselines.Get(tenant), &rng, static_cast<int64_t>(tenant + 1));
      inputs.touch.push_back(EncodeTenantRequest(tenant, request));
      inputs.touch_tenant.push_back(tenant);
    }
  }
  inputs.stream_tenant.reserve(kStreamPool);
  for (uint64_t i = 0; i < kStreamPool; ++i) {
    const uint64_t tenant = inputs.tenants->DrawTenant(&rng);
    const License request = inputs.tenants->DrawRequest(
        baselines.Get(tenant), &rng, static_cast<int64_t>(i + 1));
    inputs.stream.push_back(EncodeTenantRequest(tenant, request));
    inputs.stream_tenant.push_back(tenant);
  }
  return inputs;
}

}  // namespace geobench
