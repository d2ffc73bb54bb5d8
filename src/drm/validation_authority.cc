#include "drm/validation_authority.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "licensing/license_serialization.h"
#include "persist/framing.h"
#include "persist/sync_file.h"

namespace geolic {
namespace {

using framing::GetScalar;
using framing::PutScalar;

constexpr char kCheckpointMagic[8] = {'G', 'L', 'A', 'U', 'T', 'H', '1',
                                      '\0'};
constexpr char kFullCheckpointMagic[8] = {'G', 'L', 'A', 'U', 'T', 'H', '2',
                                          '\0'};

// The paper's offline audit: grouped validation of one domain's log.
Result<ValidationOutcome> AuditLog(const LicenseCatalog& licenses,
                                   const LogStore& log) {
  ValidateOptions options;
  options.mode = ValidationMode::kGrouped;
  return Validate(licenses, log, options);
}

Result<std::string> ReadString(std::string_view bytes, size_t* pos,
                               uint32_t max_size) {
  uint32_t size = 0;
  if (!GetScalar(bytes, pos, &size) || size > max_size) {
    return Status::ParseError("bad string in checkpoint");
  }
  if (bytes.size() - *pos < size) {
    return Status::ParseError("truncated string in checkpoint");
  }
  std::string text(bytes.substr(*pos, size));
  *pos += size;
  return text;
}

// One log record: the set as its word count, four zero bytes and its
// words (the layout of an inline LicenseSet in memory, which is what
// these files have always held for sets of up to 64 licenses), the count,
// then the length-prefixed issued-license id.
void PutRecord(const LogRecord& record, std::string* out) {
  PutScalar(out, static_cast<uint32_t>(record.set.WordCount()));
  PutScalar(out, uint32_t{0});
  for (int w = 0; w < record.set.WordCount(); ++w) {
    PutScalar(out, record.set.Word(w));
  }
  PutScalar(out, record.count);
  framing::PutString(out, record.issued_license_id);
}

Status ReadRecord(std::string_view bytes, size_t* pos, LogRecord* record) {
  uint32_t word_count = 0;
  uint32_t padding = 0;
  uint64_t words[kMaxLicenseWords];
  if (!GetScalar(bytes, pos, &word_count) ||
      !GetScalar(bytes, pos, &padding)) {
    return Status::ParseError("truncated record in checkpoint");
  }
  if (word_count < 1 || word_count > static_cast<uint32_t>(kMaxLicenseWords)) {
    return Status::ParseError("bad record set in checkpoint");
  }
  for (uint32_t w = 0; w < word_count; ++w) {
    if (!GetScalar(bytes, pos, &words[w])) {
      return Status::ParseError("truncated record in checkpoint");
    }
  }
  record->set = LicenseSet::FromWords({words, word_count});
  if (!GetScalar(bytes, pos, &record->count)) {
    return Status::ParseError("truncated record in checkpoint");
  }
  GEOLIC_ASSIGN_OR_RETURN(record->issued_license_id,
                          ReadString(bytes, pos, 1u << 12));
  return Status::Ok();
}

// Reads a checkpoint file whole and checks its magic; `*pos` lands after.
Result<std::string> ReadCheckpointBytes(const std::string& path,
                                        const char (&magic)[8],
                                        const char* what, size_t* pos) {
  GEOLIC_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  if (bytes.size() < sizeof(magic) ||
      std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    return Status::ParseError(std::string("not a geolic ") + what + ": " +
                              path);
  }
  *pos = sizeof(magic);
  return bytes;
}

Status WriteCheckpointBytes(const std::string& path,
                            const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::IoError("checkpoint write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status ValidationAuthority::RebuildService(Domain* domain,
                                           const LogStore& history) {
  GEOLIC_ASSIGN_OR_RETURN(
      domain->service,
      IssuanceService::CreateWithHistory(domain->licenses.get(),
                                         service_options_, history));
  return Status::Ok();
}

Status ValidationAuthority::RegisterRedistribution(License license) {
  if (license.type() != LicenseType::kRedistribution) {
    return Status::InvalidArgument(
        "only redistribution licenses can be registered: " + license.id());
  }
  if (license.rect().dimensions() != schema_->dimensions()) {
    return Status::InvalidArgument("schema dimensionality mismatch for " +
                                   license.id());
  }
  const ContentKey key = KeyOf(license);
  Domain& domain = domains_[key];
  if (domain.licenses == nullptr) {
    domain.licenses = std::make_unique<LicenseCatalog>(schema_);
  }
  const Result<int> added = domain.licenses->Add(std::move(license));
  if (!added.ok()) {
    if (domain.licenses->empty()) {
      domains_.erase(key);  // Don't leave an empty shell behind.
    }
    return added.status();
  }
  const LogStore history =
      domain.service == nullptr ? LogStore() : domain.service->CollectLog();
  return RebuildService(&domain, history);
}

Result<OnlineDecision> ValidationAuthority::ValidateIssue(
    const License& issued) {
  const auto it = domains_.find(KeyOf(issued));
  if (it == domains_.end()) {
    return Status::NotFound("no redistribution licenses registered for "
                            "content " +
                            issued.content_key());
  }
  return it->second.service->TryIssue(issued);
}

Result<std::vector<OnlineDecision>> ValidationAuthority::ValidateIssueBatch(
    const ContentKey& key, const std::vector<License>& batch) {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  for (const License& license : batch) {
    if (KeyOf(license) != key) {
      return Status::InvalidArgument(
          "batch license " + license.id() + " belongs to another domain");
    }
  }
  return it->second.service->TryIssueBatch(batch);
}

std::vector<ValidationAuthority::ContentKey> ValidationAuthority::Keys()
    const {
  std::vector<ContentKey> keys;
  keys.reserve(domains_.size());
  for (const auto& [key, domain] : domains_) {
    keys.push_back(key);
  }
  return keys;
}

Result<const LicenseCatalog*> ValidationAuthority::LicensesFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const LicenseCatalog*>(it->second.licenses.get());
}

Result<LogStore> ValidationAuthority::LogFor(const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return it->second.service->CollectLog();
}

Result<const IssuanceService*> ValidationAuthority::ServiceFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const IssuanceService*>(it->second.service.get());
}

Result<ValidationAuthority::ContentAudit> ValidationAuthority::Audit(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  ContentAudit audit;
  audit.key = key;
  GEOLIC_ASSIGN_OR_RETURN(
      audit.result,
      AuditLog(*it->second.licenses, it->second.service->CollectLog()));
  return audit;
}

Result<std::vector<ValidationAuthority::ContentAudit>>
ValidationAuthority::AuditAll() const {
  std::vector<ContentAudit> audits;
  audits.reserve(domains_.size());
  for (const auto& [key, domain] : domains_) {
    GEOLIC_ASSIGN_OR_RETURN(ContentAudit audit, Audit(key));
    audits.push_back(std::move(audit));
  }
  return audits;
}

Result<ValidationAuthority::PeriodClose> ValidationAuthority::ClosePeriod(
    const ContentKey& key) {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  Domain& domain = it->second;
  PeriodClose close;
  close.audit.key = key;
  close.archived_log = domain.service->CollectLog();
  GEOLIC_ASSIGN_OR_RETURN(
      close.audit.result,
      AuditLog(*domain.licenses, close.archived_log));
  if (close.audit.result.report.all_valid()) {
    GEOLIC_ASSIGN_OR_RETURN(
        close.settlement,
        ComputeSettlement(*domain.licenses, close.archived_log));
    close.settled = true;
  }
  // Fresh period: same licenses, empty history.
  GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, LogStore()));
  return close;
}

Status ValidationAuthority::CheckpointLogs(const std::string& path) const {
  std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutScalar(&out, static_cast<uint32_t>(domains_.size()));
  for (const auto& [key, domain] : domains_) {
    framing::PutString(&out, key.content);
    PutScalar(&out, static_cast<int32_t>(key.permission));
    const LogStore log = domain.service->CollectLog();
    PutScalar(&out, static_cast<uint64_t>(log.size()));
    for (const LogRecord& record : log.records()) {
      PutRecord(record, &out);
    }
  }
  return WriteCheckpointBytes(path, out);
}

Status ValidationAuthority::RestoreLogs(const std::string& path) {
  size_t pos = 0;
  GEOLIC_ASSIGN_OR_RETURN(
      const std::string bytes,
      ReadCheckpointBytes(path, kCheckpointMagic, "authority checkpoint",
                          &pos));
  uint32_t domain_count = 0;
  if (!GetScalar(bytes, &pos, &domain_count) || domain_count > 1u << 20) {
    return Status::ParseError("bad domain count in checkpoint");
  }

  // Stage everything first so a bad checkpoint leaves state untouched.
  std::vector<std::pair<ContentKey, LogStore>> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    GEOLIC_ASSIGN_OR_RETURN(std::string content,
                            ReadString(bytes, &pos, 1u << 16));
    int32_t permission = 0;
    uint64_t records = 0;
    if (!GetScalar(bytes, &pos, &permission) ||
        !GetScalar(bytes, &pos, &records) || permission < 0 ||
        permission >= kNumPermissions || records > uint64_t{1} << 32) {
      return Status::ParseError("bad domain header in checkpoint");
    }
    ContentKey key{std::move(content), static_cast<Permission>(permission)};
    LogStore log;
    for (uint64_t r = 0; r < records; ++r) {
      LogRecord record;
      GEOLIC_RETURN_IF_ERROR(ReadRecord(bytes, &pos, &record));
      GEOLIC_RETURN_IF_ERROR(log.Append(std::move(record)));
    }
    const auto it = domains_.find(key);
    if (it == domains_.end()) {
      return Status::FailedPrecondition(
          "checkpoint references unregistered content: " + key.content);
    }
    LicenseSet mentioned;
    for (const LogRecord& record : log.records()) {
      mentioned |= record.set;
    }
    if (!mentioned.IsSubsetOf(it->second.licenses->AllMask())) {
      return Status::FailedPrecondition(
          "checkpoint log references unknown license indexes for " +
          key.content);
    }
    staged.emplace_back(std::move(key), std::move(log));
  }

  for (auto& [key, log] : staged) {
    Domain& domain = domains_[key];
    GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, log));
  }
  return Status::Ok();
}

Status ValidationAuthority::CheckpointFull(const std::string& path) const {
  std::string out(kFullCheckpointMagic, sizeof(kFullCheckpointMagic));
  PutScalar(&out, static_cast<uint32_t>(domains_.size()));
  for (const auto& [key, domain] : domains_) {
    framing::PutString(&out, key.content);
    PutScalar(&out, static_cast<int32_t>(key.permission));
    PutScalar(&out, static_cast<uint32_t>(domain.licenses->size()));
    for (const License& license : domain.licenses->licenses()) {
      AppendLicenseBinary(license, &out);
    }
    const LogStore log = domain.service->CollectLog();
    PutScalar(&out, static_cast<uint64_t>(log.size()));
    for (const LogRecord& record : log.records()) {
      PutRecord(record, &out);
    }
  }
  return WriteCheckpointBytes(path, out);
}

Status ValidationAuthority::RestoreFull(const std::string& path) {
  if (!domains_.empty()) {
    return Status::FailedPrecondition(
        "RestoreFull requires an empty authority");
  }
  size_t pos = 0;
  GEOLIC_ASSIGN_OR_RETURN(
      const std::string bytes,
      ReadCheckpointBytes(path, kFullCheckpointMagic, "full checkpoint",
                          &pos));
  uint32_t domain_count = 0;
  if (!GetScalar(bytes, &pos, &domain_count) || domain_count > 1u << 20) {
    return Status::ParseError("bad domain count in checkpoint");
  }

  // Stage into a local map first; commit only on full success.
  std::map<ContentKey, Domain> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    GEOLIC_ASSIGN_OR_RETURN(std::string content,
                            ReadString(bytes, &pos, 1u << 16));
    int32_t permission = 0;
    uint32_t license_count = 0;
    if (!GetScalar(bytes, &pos, &permission) ||
        !GetScalar(bytes, &pos, &license_count) || permission < 0 ||
        permission >= kNumPermissions ||
        license_count > static_cast<uint32_t>(kMaxLicensesLarge)) {
      return Status::ParseError("bad domain header in checkpoint");
    }
    const ContentKey key{std::move(content),
                         static_cast<Permission>(permission)};
    Domain domain;
    domain.licenses = std::make_unique<LicenseCatalog>(schema_);
    for (uint32_t i = 0; i < license_count; ++i) {
      GEOLIC_ASSIGN_OR_RETURN(License license,
                              ReadLicenseBinary(bytes, &pos));
      if (license.rect().dimensions() != schema_->dimensions()) {
        return Status::ParseError(
            "checkpoint license dimensionality disagrees with schema");
      }
      const Result<int> added = domain.licenses->Add(std::move(license));
      if (!added.ok()) {
        return added.status();
      }
    }
    uint64_t records = 0;
    if (!GetScalar(bytes, &pos, &records) || records > uint64_t{1} << 32) {
      return Status::ParseError("bad record count in checkpoint");
    }
    LogStore log;
    for (uint64_t r = 0; r < records; ++r) {
      LogRecord record;
      GEOLIC_RETURN_IF_ERROR(ReadRecord(bytes, &pos, &record));
      if (!record.set.IsSubsetOf(domain.licenses->AllMask())) {
        return Status::ParseError(
            "checkpoint record references unknown license indexes");
      }
      GEOLIC_RETURN_IF_ERROR(log.Append(std::move(record)));
    }
    GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, log));
    if (!staged.emplace(key, std::move(domain)).second) {
      return Status::ParseError("duplicate domain in checkpoint");
    }
  }
  domains_ = std::move(staged);
  return Status::Ok();
}

}  // namespace geolic
