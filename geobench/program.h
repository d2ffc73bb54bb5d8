// The program under test, assembled for one workload: an IssuanceService
// with its write-ahead journal (paper_issue) or a CatalogService with its
// journal pool and spills (catalog workloads), optionally fronted by the
// TCP server.
#ifndef GEOBENCH_PROGRAM_H_
#define GEOBENCH_PROGRAM_H_

#include <memory>
#include <string>

#include "catalog/catalog_service.h"
#include "inputs.h"
#include "net/server.h"
#include "service/issuance_service.h"
#include "util/metrics.h"
#include "util/status.h"

namespace geobench {

class Program {
 public:
  // Builds the program in `dir` (created fresh) and, when `serve` is set,
  // starts the server on an ephemeral loopback port. `source` overrides
  // the tenant source of a catalog (the traced replay's one-tenant paper
  // catalog); null means the workload's own.
  static geolic::Result<std::unique_ptr<Program>> Start(
      const Inputs& inputs, const std::string& dir, bool serve,
      geolic::TenantSource* source = nullptr);

  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  // Reconfiguration: acquires the benchmark's reconfiguration license, or
  // revokes it again (in the catalog: on the reconfiguration tenant).
  geolic::Status Acquire();
  geolic::Status Revoke();
  // Forces the journal(s) to stable storage.
  geolic::Status Sync();
  // Drains the server (if any) and closes the catalog's journal pool.
  geolic::Status Stop();

  geolic::IssuanceService* service() { return service_.get(); }
  geolic::CatalogService* catalog() { return catalog_.get(); }
  geolic::net::Server* server() { return server_.get(); }
  const geolic::IssuanceMetrics& metrics() const { return metrics_; }
  uint16_t port() const { return server_ ? server_->port() : 0; }
  // Journal frames appended so far.
  uint64_t journal_frames() const;

 private:
  explicit Program(const Inputs& inputs) : inputs_(inputs) {}

  const Inputs& inputs_;
  uint64_t reconfig_tenant_ = 0;
  geolic::IssuanceMetrics metrics_;
  std::unique_ptr<BenchTenantSource> owned_source_;
  std::unique_ptr<geolic::IssuanceService> service_;
  std::unique_ptr<geolic::CatalogService> catalog_;
  std::unique_ptr<geolic::net::Server> server_;
};

}  // namespace geobench

#endif  // GEOBENCH_PROGRAM_H_
