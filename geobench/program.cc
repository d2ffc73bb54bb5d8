#include "program.h"

#include <filesystem>
#include <utility>

#include "persist/journal.h"

namespace geobench {

// Admission queue of the server: deep enough that the open loop's backlog
// behind a reconfiguration stall waits instead of being shed.
constexpr size_t kQueueCapacity = 16384;

geolic::Result<std::unique_ptr<Program>> Program::Start(
    const Inputs& inputs, const std::string& dir, bool serve,
    geolic::TenantSource* source) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return geolic::Status::IoError("cannot create " + dir + ": " +
                                   ec.message());
  }
  std::unique_ptr<Program> program(new Program(inputs));
  geolic::OnlineValidatorOptions service_options;
  service_options.metrics = &program->metrics_;

  if (inputs.spec->kind == Kind::kPaperIssue && source == nullptr) {
    GEOLIC_ASSIGN_OR_RETURN(
        program->service_,
        geolic::IssuanceService::Create(inputs.paper->licenses.get(),
                                        service_options));
    geolic::JournalOptions journal_options;
    journal_options.fsync_interval = inputs.spec->fsync_interval;
    GEOLIC_ASSIGN_OR_RETURN(
        std::unique_ptr<geolic::JournalWriter> journal,
        geolic::JournalWriter::Open(dir + "/issuance.wal", journal_options));
    GEOLIC_RETURN_IF_ERROR(program->service_->AttachJournal(std::move(journal)));
  } else {
    if (source == nullptr) {
      program->owned_source_ =
          std::make_unique<BenchTenantSource>(inputs.tenants.get());
      source = program->owned_source_.get();
      program->reconfig_tenant_ = inputs.reconfig_tenant;
    } else {
      program->reconfig_tenant_ = 1;
    }
    geolic::CatalogOptions options;
    options.dir = dir;
    options.memory_budget_bytes =
        inputs.spec->kind == Kind::kPaperIssue ? (64ull << 20)
                                               : inputs.spec->budget_bytes;
    options.fsync_interval = inputs.spec->fsync_interval;
    options.service_options = service_options;
    GEOLIC_ASSIGN_OR_RETURN(program->catalog_,
                            geolic::CatalogService::Create(source, options));
  }

  if (serve) {
    geolic::net::ServerOptions server_options;
    server_options.queue_capacity = kQueueCapacity;
    if (program->catalog_) {
      GEOLIC_ASSIGN_OR_RETURN(program->server_,
                              geolic::net::Server::StartWithCatalog(
                                  program->catalog_.get(), server_options));
    } else {
      GEOLIC_ASSIGN_OR_RETURN(
          program->server_,
          geolic::net::Server::Start(program->service_.get(), server_options));
    }
  }
  return program;
}

Program::~Program() { (void)Stop(); }

geolic::Status Program::Acquire() {
  if (catalog_) {
    return catalog_->AcquireLicense(reconfig_tenant_, inputs_.reconfig_license)
        .status();
  }
  return service_->AcquireLicense(inputs_.reconfig_license).status();
}

geolic::Status Program::Revoke() {
  const std::string& id = inputs_.reconfig_license.id();
  if (catalog_) {
    return catalog_->RevokeLicenseById(reconfig_tenant_, id);
  }
  return service_->RevokeLicenseById(id);
}

geolic::Status Program::Sync() {
  return catalog_ ? catalog_->SyncJournals() : service_->SyncJournal();
}

geolic::Status Program::Stop() {
  if (server_) {
    server_->Drain();
  }
  if (catalog_) {
    return catalog_->Close();
  }
  return geolic::Status::Ok();
}

uint64_t Program::journal_frames() const {
  return catalog_ ? catalog_->stats().journal_frames
                  : service_->journal_sequence();
}

}  // namespace geobench
