#include "replay.h"

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bench_math.h"
#include "core/instance_validator.h"
#include "net/wire.h"
#include "program.h"
#include "service/issuance_service.h"

namespace geobench {

using geolic::License;
using geolic::OnlineDecision;
using geolic::net::FrameKind;

namespace {

// paper_issue admits in fixed batches of this size (the server's batches
// vary; the replay fixes one so that per-request times compare).
constexpr size_t kServiceBatch = 16;
// Catalog workloads: the service pass serves the hottest tenants only.
constexpr uint64_t kServiceTenants = 64;
// Requests a pass replays at most, which bounds the spans kept in memory
// and written at exit.
constexpr uint64_t kPassRequests = uint64_t{1} << 17;

struct Samples {
  std::vector<double> decode_ns, encode_ns, issue_ns, instance_ns;
  std::vector<double> reconfig_us, sync_us;
  std::vector<double> hit_ns, compile_us, load_us, evict_us;
  // Main pass only: (spans on, nanoseconds per request) per chunk.
  std::vector<std::pair<bool, double>> chunks;
};

double Took(const SpanLog& log, uint32_t handle) {
  return static_cast<double>(log.spans()[handle - 1].duration());
}

// Chunks run in pairs, one with spans on and one with spans off; the side
// that runs first alternates from pair to pair.
bool ChunkTraced(uint64_t chunk) {
  const bool on_first = (chunk / 2) % 2 == 0;
  return chunk % 2 == 0 ? on_first : !on_first;
}

// Decodes every frame in `bytes` into (tenant, license); tenant 0 for
// single-service frames. False on a malformed frame.
bool DecodeFrames(std::string_view bytes, std::vector<uint64_t>* tenants,
                  std::vector<License>* licenses) {
  tenants->clear();
  licenses->clear();
  geolic::net::Frame frame;
  while (!bytes.empty()) {
    size_t consumed = 0;
    std::string error;
    if (geolic::net::TryDecodeFrame(bytes, &frame, &consumed, &error) !=
        geolic::net::DecodeResult::kFrame) {
      return false;
    }
    bytes.remove_prefix(consumed);
    if (frame.kind == FrameKind::kTenantIssueRequest) {
      geolic::Result<geolic::net::TenantIssueRequest> request =
          geolic::net::DecodeTenantIssueRequest(frame.payload);
      if (!request.ok()) {
        return false;
      }
      tenants->push_back(request->tenant_id);
      licenses->push_back(std::move(request->license));
    } else {
      geolic::Result<License> license =
          geolic::net::DecodeIssueRequest(frame.payload);
      if (!license.ok()) {
        return false;
      }
      tenants->push_back(0);
      licenses->push_back(*std::move(license));
    }
  }
  return true;
}

void EncodeDecision(const OnlineDecision& decision, uint64_t request_id,
                    std::string* out) {
  geolic::net::IssueResult result;
  result.outcome =
      decision.accepted()
          ? geolic::net::IssueResult::Outcome::kAccepted
          : (decision.instance_valid
                 ? geolic::net::IssueResult::Outcome::kRejectedAggregate
                 : geolic::net::IssueResult::Outcome::kRejectedInstance);
  result.catalog_epoch = decision.catalog_epoch;
  result.equations_checked = decision.equations_checked;
  std::string payload;
  geolic::net::EncodeIssueResult(result, &payload);
  geolic::net::EncodeFrame(FrameKind::kIssueResult, request_id, payload, out);
}

CatalogCounters Counters(const geolic::CatalogStats& stats) {
  return {stats.hits, stats.misses, stats.compiles, stats.loads,
          stats.evictions};
}

// Between chunks, outside chunk timing and always traced: on the main
// pass a journal sync and one reconfiguration call (acquire on even
// chunks, revoke on odd ones); on a catalog, a spill probe of `tenant`,
// whose next request then reloads it.
geolic::Status Maintain(Program* program, SpanLog* spans, uint64_t chunk,
                        bool main_pass, uint64_t tenant, Samples* samples) {
  spans->set_enabled(true);
  if (main_pass) {
    uint32_t span = spans->Begin(SpanName::kPersistSync, 0, 0);
    GEOLIC_RETURN_IF_ERROR(program->Sync());
    spans->End(span);
    samples->sync_us.push_back(Took(*spans, span) / 1e3);
    span = spans->Begin(SpanName::kServiceReconfig, 0, 0);
    GEOLIC_RETURN_IF_ERROR(chunk % 2 == 0 ? program->Acquire()
                                          : program->Revoke());
    spans->End(span);
    samples->reconfig_us.push_back(Took(*spans, span) / 1e3);
  }
  if (geolic::CatalogService* catalog = program->catalog()) {
    const uint64_t spills = catalog->stats().spills;
    const uint32_t span = spans->Begin(SpanName::kCatalogSpill, 0, tenant);
    GEOLIC_RETURN_IF_ERROR(catalog->SpillTenant(tenant));
    spans->End(span);
    if (catalog->stats().spills > spills) {
      samples->evict_us.push_back(Took(*spans, span) / 1e3);
    }
  }
  return geolic::Status::Ok();
}

// paper_issue main pass: the stream in fixed batches through
// IssuanceService::TryIssueBatch, with the journal attached, plus the
// instance lookup alone on the same requests.
geolic::Result<uint64_t> PaperServicePass(const Inputs& inputs,
                                          const std::string& dir,
                                          uint64_t deadline, SpanLog* spans,
                                          Samples* samples) {
  GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                          Program::Start(inputs, dir, /*serve=*/false));
  const geolic::SoaInstanceValidator instance(inputs.paper->licenses.get());
  const size_t chunk_batches = inputs.spec->replay_chunk / kServiceBatch;
  std::string frames;
  std::string out;
  std::vector<uint64_t> tenants;
  std::vector<License> licenses;
  std::vector<OnlineDecision> decisions(kServiceBatch);
  uint64_t index = 0;
  uint64_t matched = 0;
  for (uint64_t chunk = 0;
       chunk % 2 == 1 || (NowNanos() < deadline && index < kPassRequests);
       ++chunk) {
    const bool traced = ChunkTraced(chunk);
    spans->set_enabled(traced);
    const uint64_t chunk_start = NowNanos();
    for (size_t b = 0; b < chunk_batches; ++b, index += kServiceBatch) {
      frames.clear();
      for (size_t k = 0; k < kServiceBatch; ++k) {
        inputs.AppendFrame(index + k, &frames);
      }
      const uint32_t root = spans->Begin(SpanName::kReplayStep, 0, index + 1);
      uint32_t span = spans->Begin(SpanName::kNetDecode, root, index + 1);
      if (!DecodeFrames(frames, &tenants, &licenses)) {
        return geolic::Status::Internal("replay: undecodable request frame");
      }
      spans->End(span);
      const uint32_t decode_span = span;
      span = spans->Begin(SpanName::kCoreInstance, root, index + 1);
      for (const License& license : licenses) {
        matched += instance.SatisfyingSet(license).Empty() ? 0 : 1;
      }
      spans->End(span);
      const uint32_t instance_span = span;
      span = spans->Begin(SpanName::kServiceIssue, root, index + 1);
      GEOLIC_RETURN_IF_ERROR(program->service()->TryIssueBatch(
          std::span<const License>(licenses), std::span<OnlineDecision>(decisions)));
      spans->End(span);
      const uint32_t issue_span = span;
      span = spans->Begin(SpanName::kNetEncode, root, index + 1);
      out.clear();
      for (size_t k = 0; k < kServiceBatch; ++k) {
        EncodeDecision(decisions[k], index + k + 1, &out);
      }
      spans->End(span);
      spans->End(root);
      if (traced) {
        const double batch = static_cast<double>(kServiceBatch);
        samples->decode_ns.push_back(Took(*spans, decode_span) / batch);
        samples->instance_ns.push_back(Took(*spans, instance_span) / batch);
        samples->issue_ns.push_back(Took(*spans, issue_span) / batch);
        samples->encode_ns.push_back(Took(*spans, span) / batch);
      }
    }
    samples->chunks.emplace_back(
        traced, static_cast<double>(NowNanos() - chunk_start) /
                    static_cast<double>(inputs.spec->replay_chunk));
    GEOLIC_RETURN_IF_ERROR(
        Maintain(program.get(), spans, chunk, /*main_pass=*/true, 0, samples));
  }
  if (matched == 0) {
    return geolic::Status::Internal("replay: no request matched a license");
  }
  GEOLIC_RETURN_IF_ERROR(program->Stop());
  return index;
}

// Catalog pass: one CatalogService::TryIssue per request, each call
// classified by the counter change across it. On the catalog workloads
// this is the main pass (spans on/off by chunk, sync and reconfiguration
// between chunks); for paper_issue it serves the paper content as a
// one-tenant catalog and only adds the catalog timings.
geolic::Result<uint64_t> CatalogPass(const Inputs& inputs,
                                     const std::string& dir, uint64_t deadline,
                                     bool main_pass, SpanLog* spans,
                                     Samples* samples) {
  PaperTenantSource paper_source;
  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<Program> program,
      Program::Start(inputs, dir, /*serve=*/false,
                     main_pass ? nullptr : &paper_source));
  geolic::CatalogService* catalog = program->catalog();
  const size_t chunk_requests = inputs.spec->replay_chunk;
  std::string frame;
  std::string out;
  std::vector<uint64_t> tenants;
  std::vector<License> licenses;
  uint64_t index = 0;
  uint64_t tenant = 0;
  for (uint64_t chunk = 0;
       chunk % 2 == 1 || (NowNanos() < deadline && index < kPassRequests);
       ++chunk) {
    const bool traced = !main_pass || ChunkTraced(chunk);
    spans->set_enabled(traced);
    const uint64_t chunk_start = NowNanos();
    for (size_t r = 0; r < chunk_requests; ++r, ++index) {
      frame.clear();
      inputs.AppendFrame(index, &frame);
      const uint32_t root = spans->Begin(SpanName::kReplayStep, 0, index + 1);
      uint32_t span = spans->Begin(SpanName::kNetDecode, root, index + 1);
      if (!DecodeFrames(frame, &tenants, &licenses)) {
        return geolic::Status::Internal("replay: undecodable request frame");
      }
      spans->End(span);
      const uint32_t decode_span = span;
      tenant = tenants[0];
      const CatalogCounters before = Counters(catalog->stats());
      span = spans->Begin(SpanName::kCatalogIssue, root, index + 1);
      geolic::Result<OnlineDecision> decision =
          catalog->TryIssue(tenant, licenses[0]);
      spans->End(span);
      const uint32_t issue_span = span;
      if (!decision.ok()) {
        return decision.status();
      }
      const CatalogCounters after = Counters(catalog->stats());
      span = spans->Begin(SpanName::kNetEncode, root, index + 1);
      out.clear();
      EncodeDecision(*decision, index + 1, &out);
      spans->End(span);
      spans->End(root);
      if (!traced) {
        continue;
      }
      if (main_pass) {
        samples->decode_ns.push_back(Took(*spans, decode_span));
        samples->encode_ns.push_back(Took(*spans, span));
      }
      for (const CallSample& call :
           ClassifyCall(before, after, Took(*spans, issue_span))) {
        switch (call.kind) {
          case CallKind::kHit:
            samples->hit_ns.push_back(call.nanos);
            break;
          case CallKind::kCompile:
            samples->compile_us.push_back(call.nanos / 1e3);
            break;
          case CallKind::kLoad:
            samples->load_us.push_back(call.nanos / 1e3);
            break;
          case CallKind::kEvict:
            samples->evict_us.push_back(call.nanos / 1e3);
            break;
        }
      }
    }
    if (main_pass) {
      samples->chunks.emplace_back(
          traced, static_cast<double>(NowNanos() - chunk_start) /
                      static_cast<double>(chunk_requests));
    }
    GEOLIC_RETURN_IF_ERROR(
        Maintain(program.get(), spans, chunk, main_pass, tenant, samples));
  }
  GEOLIC_RETURN_IF_ERROR(program->Stop());
  return index;
}

// Catalog workloads: the hottest tenants' requests admitted one at a time
// by stand-alone IssuanceServices (the service inside each catalog
// tenant), plus the instance lookup alone.
geolic::Status TenantServicePass(const Inputs& inputs, uint64_t deadline,
                                 SpanLog* spans, Samples* samples) {
  struct TenantService {
    geolic::Workload baseline;
    std::unique_ptr<geolic::IssuanceService> service;
    std::unique_ptr<geolic::SoaInstanceValidator> instance;
  };
  std::map<uint64_t, TenantService> services;
  spans->set_enabled(true);
  OnlineDecision decision;
  for (uint64_t index = 0; NowNanos() < deadline && index < kPassRequests;
       ++index) {
    geolic::Result<geolic::net::TenantIssueRequest> request =
        geolic::net::DecodeTenantIssueRequest(inputs.Payload(index));
    if (!request.ok()) {
      return request.status();
    }
    if (request->tenant_id >= kServiceTenants) {
      continue;
    }
    auto it = services.find(request->tenant_id);
    if (it == services.end()) {
      TenantService made;
      GEOLIC_ASSIGN_OR_RETURN(made.baseline,
                              inputs.tenants->MakeTenant(request->tenant_id));
      GEOLIC_ASSIGN_OR_RETURN(
          made.service,
          geolic::IssuanceService::Create(made.baseline.licenses.get()));
      made.instance = std::make_unique<geolic::SoaInstanceValidator>(
          made.baseline.licenses.get());
      it = services.emplace(request->tenant_id, std::move(made)).first;
    }
    uint32_t span = spans->Begin(SpanName::kCoreInstance, 0, index + 1);
    const bool matched =
        !it->second.instance->SatisfyingSet(request->license).Empty();
    spans->End(span);
    if (!matched) {
      return geolic::Status::Internal("replay: request outside its tenant");
    }
    samples->instance_ns.push_back(Took(*spans, span));
    span = spans->Begin(SpanName::kServiceIssue, 0, index + 1);
    GEOLIC_RETURN_IF_ERROR(it->second.service->TryIssueBatch(
        std::span<const License>(&request->license, 1),
        std::span<OnlineDecision>(&decision, 1)));
    spans->End(span);
    samples->issue_ns.push_back(Took(*spans, span));
  }
  return geolic::Status::Ok();
}

}  // namespace

geolic::Result<ReplayMetrics> RunReplay(const Inputs& inputs,
                                        const std::string& dir,
                                        double seconds, SpanLog* spans) {
  Samples samples;
  ReplayMetrics metrics;
  const uint64_t start = NowNanos();
  const auto at = [&](double share) {
    return start + static_cast<uint64_t>(seconds * share * 1e9);
  };
  if (inputs.spec->kind == Kind::kPaperIssue) {
    GEOLIC_ASSIGN_OR_RETURN(
        metrics.requests,
        PaperServicePass(inputs, dir + "/service", at(0.75), spans, &samples));
    GEOLIC_ASSIGN_OR_RETURN(
        uint64_t catalog_requests,
        CatalogPass(inputs, dir + "/catalog", at(1.0), /*main_pass=*/false,
                    spans, &samples));
    metrics.requests += catalog_requests;
  } else {
    GEOLIC_RETURN_IF_ERROR(
        TenantServicePass(inputs, at(0.25), spans, &samples));
    GEOLIC_ASSIGN_OR_RETURN(
        metrics.requests,
        CatalogPass(inputs, dir + "/catalog", at(1.0), /*main_pass=*/true,
                    spans, &samples));
  }
  spans->set_enabled(true);

  metrics.net_decode_ns = Median(samples.decode_ns);
  metrics.net_encode_ns = Median(samples.encode_ns);
  metrics.service_issue_ns = Median(samples.issue_ns);
  metrics.core_instance_ns = Median(samples.instance_ns);
  metrics.service_reconfig_us = Median(samples.reconfig_us);
  metrics.persist_sync_us = Median(samples.sync_us);
  metrics.catalog_hit_ns = Median(samples.hit_ns);
  metrics.catalog_compile_us = Median(samples.compile_us);
  metrics.catalog_load_us = Median(samples.load_us);
  metrics.catalog_evict_us = Median(samples.evict_us);

  std::vector<double> ratios;
  for (size_t i = 0; i + 1 < samples.chunks.size(); i += 2) {
    const auto& [first_traced, first_ns] = samples.chunks[i];
    const double second_ns = samples.chunks[i + 1].second;
    ratios.push_back(first_traced ? first_ns / second_ns
                                  : second_ns / first_ns);
  }
  metrics.overhead_pairs = ratios.size();
  if (ratios.size() >= 2) {
    const QuartileSet q = Quartiles(ratios);
    metrics.overhead_pct = (q.median - 1.0) * 100.0;
    metrics.overhead_iqr_pct = (q.q3 - q.q1) * 100.0;
  }
  return metrics;
}

}  // namespace geobench
