// GeoLic benchmark program: runs one workload through the real stack
// (net::Server -> CatalogService / IssuanceService -> persist journal and
// spills) from one process, checks the decisions, and prints every metric
// by name and unit. The last line of standard output is one JSON object.
//
//   geobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --data-dir <dir> [--spans-out <file>]
//
// Each run: generate inputs from the seed (untimed); set up and warm up
// (timed as setup_s, several times, median reported); an open loop at the
// workload's fixed rate; a closed loop at a fixed depth. Each loop runs as
// equal segments and reports medians over them.
// With --trace 1 the same run also replays the stream through each
// layer's functions with spans on, and prints the per-layer metrics.
#include <sys/prctl.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "client.h"
#include "env.h"
#include "inputs.h"
#include "licensing/license_catalog.h"
#include "program.h"
#include "replay.h"
#include "spans.h"
#include "util/random.h"
#include "validation/validate.h"

namespace geobench {
namespace {

constexpr int kConnections = 4;
// Closed-loop requests in flight, across all connections.
constexpr int kDepth = 64;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;
// The open loop and then the closed loop each run as this many equal
// segments; a metric is the median over its loop's segments, so a slow
// stretch of the host moves few of the samples it is taken from.
constexpr int kSegments = 10;
// Reconfiguration calls (acquire, then revoke, alternately) spread evenly
// over each open-loop segment.
constexpr int kReconfigCallsPerSegment = 13;
// Catalog correctness gate: the hottest tenants plus a seeded sample.
constexpr uint64_t kGateHottest = 100;
constexpr size_t kGateSample = 100;
// The process never runs more threads than this: the client, the
// server's I/O and batch threads, and the reconfiguration thread.
constexpr int kMaxThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string data_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc || flag.rfind("--", 0) != 0 || !seen.insert(flag).second) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->data_dir.empty();
}

// Calls Acquire and Revoke alternately, one per period from half a period
// after Start, on its own thread; records each call's start and wall time.
// Always ends on a revoke.
class Reconfigurer {
 public:
  struct Call {
    uint64_t start_ns;
    double micros;
  };

  Reconfigurer(Program* program, uint64_t period_ns)
      : program_(program), period_ns_(period_ns) {}
  ~Reconfigurer() { Stop(); }
  Reconfigurer(const Reconfigurer&) = delete;
  Reconfigurer& operator=(const Reconfigurer&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Valid after Stop().
  const std::vector<Call>& calls() const { return calls_; }
  const geolic::Status& status() const { return status_; }

 private:
  void Loop() {
    const auto origin = std::chrono::steady_clock::now();
    uint64_t k = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto due = origin + std::chrono::nanoseconds(
                                      period_ns_ / 2 + k * period_ns_);
        if (wake_.wait_until(lock, due, [this] { return stop_; })) {
          break;
        }
      }
      const uint64_t start = NowNanos();
      status_ = k % 2 == 0 ? program_->Acquire() : program_->Revoke();
      const uint64_t end = NowNanos();
      if (!status_.ok()) {
        return;
      }
      calls_.push_back({start, static_cast<double>(end - start) / 1e3});
      ++k;
    }
    if (k % 2 == 1) {
      status_ = program_->Revoke();
    }
  }

  Program* program_;
  const uint64_t period_ns_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Call> calls_;
  geolic::Status status_;
  std::thread thread_;
};

std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The correctness gate's log checks; empty when every check passes.
std::string CheckLogs(const Inputs& inputs, Program* program,
                      uint64_t accepted, uint64_t sent) {
  geolic::ValidateOptions options;
  options.mode = geolic::ValidationMode::kGrouped;
  if (geolic::IssuanceService* service = program->service()) {
    const geolic::LogStore log = service->CollectLog();
    if (log.size() != accepted) {
      return "log holds " + std::to_string(log.size()) + " records for " +
             std::to_string(accepted) + " accepted decisions";
    }
    geolic::Result<geolic::ValidationOutcome> outcome =
        geolic::Validate(service->licenses(), log, options);
    if (!outcome.ok() || !outcome->report.all_valid()) {
      return "grouped validation of the service log failed";
    }
    return "";
  }
  std::set<uint64_t> tenants;
  for (uint64_t t = 0; t < kGateHottest; ++t) {
    tenants.insert(t);
  }
  geolic::Rng rng(inputs.seed ^ 0x6a7e);
  for (size_t k = 0; k < kGateSample * 4 && tenants.size() < kGateHottest + kGateSample; ++k) {
    tenants.insert(inputs.Tenant(rng.UniformInt(0, static_cast<int64_t>(sent) - 1)));
  }
  for (const uint64_t tenant : tenants) {
    geolic::Result<geolic::CatalogService::TenantSnapshot> snapshot =
        program->catalog()->SnapshotTenant(tenant);
    geolic::Result<geolic::Workload> baseline =
        inputs.tenants->MakeTenant(tenant);
    if (!snapshot.ok() || !baseline.ok()) {
      return "cannot snapshot tenant " + std::to_string(tenant);
    }
    geolic::LicenseCatalog licenses(baseline->schema.get());
    for (const geolic::License& license : snapshot->licenses) {
      if (!licenses.Add(license).ok()) {
        return "tenant " + std::to_string(tenant) + " has an invalid license";
      }
    }
    geolic::Result<geolic::ValidationOutcome> outcome =
        geolic::Validate(licenses, snapshot->log, options);
    if (!outcome.ok() || !outcome->report.all_valid()) {
      return "grouped validation failed for tenant " + std::to_string(tenant);
    }
  }
  return "";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "geobench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  const EnvStamp env = StampEnvironment(args.data_dir);
  if (const std::string refusal = env.Refusal(); !refusal.empty()) {
    std::fprintf(stderr, "geobench: %s\n", refusal.c_str());
    return 3;
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const bool trace = args.trace == 1;
  std::printf("# geobench %s seed=%" PRIu64 " seconds=%s trace=%d\n",
              spec->name, args.seed, Number(args.seconds).c_str(), args.trace);

  uint64_t t0 = NowNanos();
  const Inputs inputs = MakeInputs(*spec, args.seed);
  std::printf("# inputs: %zu stream requests, %zu touch requests, made in %.2f s\n",
              inputs.stream.size(), inputs.touch.size(),
              static_cast<double>(NowNanos() - t0) / 1e9);
  const uint64_t heap_base = HeapBytes();
  const uint64_t rss_base_kib = RssKib();
  int threads_peak = LiveThreads();

  // Set-up plus warm-up, timed; all but the last are torn down again.
  std::vector<double> setup_s;
  std::unique_ptr<Program> program;
  std::unique_ptr<WireClient> client;
  Tally total;
  uint64_t warm_decisions = 0;
  std::string failure;
  const int setups = trace ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    const std::string dir = args.data_dir + "/setup-" + std::to_string(s);
    t0 = NowNanos();
    geolic::Result<std::unique_ptr<Program>> started =
        Program::Start(inputs, dir, /*serve=*/true);
    if (!started.ok()) {
      std::fprintf(stderr, "geobench: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    program = *std::move(started);
    client = WireClient::Connect(program->port(), kConnections);
    if (!client) {
      return 1;
    }
    const PhaseResult warm = client->RunClosed(
        inputs, inputs.warmup_count(), /*seconds=*/0, kDepth);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    threads_peak = std::max(threads_peak, LiveThreads());
    if (s + 1 < setups) {
      if (warm.tally.failed() != 0) {
        failure = "warm-up requests failed";
      }
      client.reset();
      if (!program->Stop().ok()) {
        failure = "program failed to stop";
      }
      program.reset();
      std::filesystem::remove_all(dir, ec);
    } else {
      total = warm.tally;
      warm_decisions = warm.tally.decisions();
    }
  }

  geolic::net::Server* server = program->server();
  const geolic::net::NetStats net_before = server->Stats();
  const geolic::IssuanceMetrics::Snapshot decisions_before =
      program->metrics().Snap();
  const geolic::CatalogStats catalog_before =
      program->catalog() ? program->catalog()->stats() : geolic::CatalogStats{};
  const uint64_t frames_before = program->journal_frames();
  const uint64_t write_before = WriteBytes();

  uint64_t queue_peak = 0;
  uint64_t samples_taken = 0;
  client->set_sampler([&] {
    queue_peak = std::max(queue_peak, server->Stats().queue_depth);
    if (++samples_taken % 64 == 0) {
      threads_peak = std::max(threads_peak, LiveThreads());
    }
  });

  // The open and the closed loop take half the run each.
  const double segment_seconds = args.seconds / 2 / kSegments;
  const uint64_t open_count =
      static_cast<uint64_t>(std::llround(spec->open_rate * segment_seconds));
  std::vector<std::vector<double>> open_latency, open_late;  // Per segment.
  std::vector<double> reconfig_us, closed_rps;
  uint64_t open_sent = 0, closed_decisions = 0;
  double open_time = 0, closed_time = 0;
  for (int k = 0; k < kSegments; ++k) {
    Reconfigurer reconfigurer(
        program.get(), static_cast<uint64_t>(segment_seconds * 1e9 /
                                              kReconfigCallsPerSegment));
    reconfigurer.Start();
    PhaseResult open = client->RunOpen(inputs, open_count, spec->open_rate);
    threads_peak = std::max(threads_peak, LiveThreads());
    reconfigurer.Stop();
    if (!reconfigurer.status().ok()) {
      std::fprintf(stderr, "geobench: reconfiguration failed: %s\n",
                   reconfigurer.status().ToString().c_str());
      return 1;
    }
    for (const Reconfigurer::Call& call : reconfigurer.calls()) {
      if (call.start_ns >= open.start_ns && call.start_ns <= open.end_ns) {
        reconfig_us.push_back(call.micros);
      }
    }
    open_latency.push_back(std::move(open.latency_us));
    open_late.push_back(std::move(open.late_us));
    open_sent += open.tally.sent;
    open_time += open.seconds();
    total.Add(open.tally);
  }
  // The program's heap, less this function's own latency samples.
  uint64_t sample_bytes = 0;
  for (const auto* samples : {&open_latency, &open_late}) {
    for (const std::vector<double>& segment : *samples) {
      sample_bytes += segment.capacity() * sizeof(double);
    }
  }
  const uint64_t heap_now = HeapBytes();
  const uint64_t open_heap = heap_now - std::min(heap_now, sample_bytes);
  const uint64_t peak_rss_kib = PeakRssKib();
  for (int k = 0; k < kSegments; ++k) {
    const PhaseResult closed =
        client->RunClosed(inputs, UINT64_MAX, segment_seconds, kDepth);
    closed_rps.push_back(Ratio(static_cast<double>(closed.tally.decisions()),
                               closed.seconds()));
    closed_decisions += closed.tally.decisions();
    closed_time += closed.seconds();
    total.Add(closed.tally);
  }
  client->set_sampler(nullptr);
  if (!program->Stop().ok()) {
    failure = "program failed to stop";
  }

  const geolic::net::NetStats net_after = server->Stats();
  const geolic::IssuanceMetrics::Snapshot decisions_after =
      program->metrics().Snap();
  const geolic::CatalogStats catalog_after =
      program->catalog() ? program->catalog()->stats() : geolic::CatalogStats{};
  const uint64_t frames_after = program->journal_frames();
  const uint64_t write_after = WriteBytes();

  // --- Correctness gate ---
  if (total.unknown_ids != 0) {
    failure = std::to_string(total.unknown_ids) +
              " responses matched no request that was sent";
  }
  if (total.accepted != decisions_after.accepted ||
      total.rejected_instance != decisions_after.rejected_instance ||
      total.rejected_aggregate != decisions_after.rejected_aggregate) {
    failure = "client decision counts differ from the program's counters";
  }
  if (failure.empty()) {
    failure = CheckLogs(inputs, program.get(), total.accepted,
                        client->next_index());
  }
  // A segment with ten samples beyond its p99 has them beyond its p50 too.
  bool reportable = false;
  const double p50_us = SegmentedPercentile(open_latency, 0.5, &reportable);
  const double p99_us = SegmentedPercentile(open_latency, 0.99, &reportable);
  if (!reportable) {
    failure = "too few open-loop samples for p99";
  }
  std::vector<double> latency, late;
  for (int k = 0; k < kSegments; ++k) {
    latency.insert(latency.end(), open_latency[k].begin(), open_latency[k].end());
    late.insert(late.end(), open_late[k].begin(), open_late[k].end());
  }
  latency = Sorted(std::move(latency));
  late = Sorted(std::move(late));
  reconfig_us = Sorted(std::move(reconfig_us));
  if (!Reportable(reconfig_us.size(), 0.90)) {
    failure = "too few reconfiguration samples for p90";
  }
  if (threads_peak > kMaxThreads) {
    failure = "process ran " + std::to_string(threads_peak) + " threads";
  }

  const double timed_decisions = static_cast<double>(
      total.decisions() - warm_decisions);
  const double heap_mb =
      static_cast<double>(open_heap - std::min(open_heap, heap_base)) /
      (1 << 20);
  const double peak_rss_mb =
      static_cast<double>(peak_rss_kib - std::min(peak_rss_kib, rss_base_kib)) /
      1024.0;
  const double failed_share = Ratio(static_cast<double>(total.failed()),
                                    static_cast<double>(total.sent));
  const double throughput = Median(closed_rps);

  std::printf("# env %s\n", env.ToJson(threads_peak, client->connections()).c_str());
  std::printf("# setup_s samples:");
  for (const double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n# open loop: %d segments of %" PRIu64 " requests at %.0f "
              "req/s, %" PRIu64 " sent in %.2f s; latency p50 %.1f us and p99 "
              "%.1f us as the medians of the segments' p50 and p99 (all "
              "segments, %zu samples: p50 %.1f us, p99 %.1f us, %zu beyond); "
              "generator late p99 %.1f us\n",
              kSegments, open_count, spec->open_rate, open_sent, open_time,
              p50_us, p99_us, latency.size(), Percentile(latency, 0.5),
              Percentile(latency, 0.99), SamplesBeyond(latency.size(), 0.99),
              Percentile(late, 0.99));
  std::printf("# closed loop: %d segments at depth %d, %" PRIu64 " decisions "
              "in %.2f s: %.0f req/s as the median of the segments' rates "
              "(all segments: %.0f req/s)\n",
              kSegments, kDepth, closed_decisions, closed_time, throughput,
              Ratio(static_cast<double>(closed_decisions), closed_time));
  std::printf("# memory above the base after the open loop: heap %.1f MB, "
              "peak resident set %.1f MB\n",
              heap_mb, peak_rss_mb);
  std::printf("# reconfig: %zu calls in the open loops, p50 %.1f us, p90 %.1f us\n",
              reconfig_us.size(), Percentile(reconfig_us, 0.5),
              Percentile(reconfig_us, 0.9));
  std::printf("# decisions (last set-up, all phases): %" PRIu64 " accepted, %"
              PRIu64 " rejected_aggregate, %" PRIu64 " rejected_instance; "
              "failed_share %s (%" PRIu64 " of %" PRIu64 ")\n",
              total.accepted, total.rejected_aggregate, total.rejected_instance,
              Number(failed_share).c_str(), total.failed(), total.sent);
  if (!failure.empty()) {
    std::printf("# correctness gate FAILED: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_rps", throughput, "req/s"},
        {"p50_us", p50_us, "us"},
        {"reconfig_p50_us", Percentile(reconfig_us, 0.5), "us"},
        {"reconfig_p90_us", Percentile(reconfig_us, 0.9), "us"},
        {"heap_mb", heap_mb, "MB"},
    };
  } else {
    const geolic::CatalogStats& cb = catalog_before;
    const geolic::CatalogStats& ca = catalog_after;
    const double decided = static_cast<double>(
        decisions_after.total_requests() - decisions_before.total_requests());
    const double per_kreq = 1000.0 / std::max(1.0, timed_decisions);
    const double modelled_mb = static_cast<double>(ca.resident_bytes) / (1 << 20);
    client.reset();
    program.reset();
    SpanLog spans;
    geolic::Result<ReplayMetrics> replayed =
        RunReplay(inputs, args.data_dir + "/replay", args.seconds / 2, &spans);
    if (!replayed.ok()) {
      std::fprintf(stderr, "geobench: replay failed: %s\n",
                   replayed.status().ToString().c_str());
      return 1;
    }
    const ReplayMetrics& r = *replayed;
    std::printf("# replay: %" PRIu64 " requests, %zu spans; span overhead %.2f%% "
                "(IQR %.2f%%, %zu on/off pairs)\n",
                r.requests, spans.spans().size(), r.overhead_pct,
                r.overhead_iqr_pct, r.overhead_pairs);
    if (!args.spans_out.empty() && !spans.WriteCsv(args.spans_out)) {
      std::fprintf(stderr, "geobench: cannot write %s\n", args.spans_out.c_str());
      return 1;
    }
    metrics = {
        {"p99_us", p99_us, "us"},
        {"net.batch_mean",
         Ratio(static_cast<double>(net_after.batch_requests_dispatched -
                                   net_before.batch_requests_dispatched),
               static_cast<double>(net_after.batches_dispatched -
                                   net_before.batches_dispatched)),
         "count"},
        {"net.queue_peak", static_cast<double>(queue_peak), "count"},
        {"net.bytes_per_req",
         Ratio(static_cast<double>(net_after.bytes_read + net_after.bytes_written -
                                   net_before.bytes_read - net_before.bytes_written),
               timed_decisions),
         "B"},
        {"net.decode_ns", r.net_decode_ns, "ns"},
        {"net.encode_ns", r.net_encode_ns, "ns"},
        {"service.issue_ns", r.service_issue_ns, "ns"},
        {"service.equations_per_req",
         Ratio(static_cast<double>(decisions_after.equations_checked -
                                   decisions_before.equations_checked),
               decided),
         "count"},
        {"service.accept_share",
         Ratio(static_cast<double>(decisions_after.accepted - decisions_before.accepted),
               decided),
         "ratio"},
        {"service.reject_aggregate_share",
         Ratio(static_cast<double>(decisions_after.rejected_aggregate -
                                   decisions_before.rejected_aggregate),
               decided),
         "ratio"},
        {"service.reject_instance_share",
         Ratio(static_cast<double>(decisions_after.rejected_instance -
                                   decisions_before.rejected_instance),
               decided),
         "ratio"},
        {"service.reconfig_us", r.service_reconfig_us, "us"},
        {"core.instance_ns", r.core_instance_ns, "ns"},
        {"catalog.hit_rate",
         Ratio(static_cast<double>(ca.hits - cb.hits),
               static_cast<double>(ca.hits + ca.misses - cb.hits - cb.misses)),
         "ratio"},
        {"catalog.hit_ns", r.catalog_hit_ns, "ns"},
        {"catalog.compile_us", r.catalog_compile_us, "us"},
        {"catalog.load_us", r.catalog_load_us, "us"},
        {"catalog.evict_us", r.catalog_evict_us, "us"},
        {"catalog.compiles_per_kreq",
         static_cast<double>(ca.compiles - cb.compiles) * per_kreq, "count"},
        {"catalog.loads_per_kreq",
         static_cast<double>(ca.loads - cb.loads) * per_kreq, "count"},
        {"catalog.evictions_per_kreq",
         static_cast<double>(ca.evictions - cb.evictions) * per_kreq, "count"},
        {"catalog.resident_tenants", static_cast<double>(ca.resident_tenants),
         "count"},
        {"catalog.modelled_mb", modelled_mb, "MB"},
        {"catalog.modelled_over_heap", Ratio(modelled_mb, heap_mb), "ratio"},
        {"persist.frames_per_req",
         Ratio(static_cast<double>(frames_after - frames_before), timed_decisions),
         "count"},
        {"persist.write_kb_per_req",
         Ratio(static_cast<double>(write_after - write_before) / 1024.0,
               timed_decisions),
         "KiB"},
        {"persist.sync_us", r.persist_sync_us, "us"},
        {"loadgen.late_p99_us", Percentile(late, 0.99), "us"},
        {"loadgen.failed_share", failed_share, "ratio"},
        {"trace.overhead_pct", r.overhead_pct, "%"},
        {"trace.overhead_iqr_pct", r.overhead_iqr_pct, "%"},
        {"env.threads_peak", static_cast<double>(threads_peak), "count"},
        {"env.peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
  PrintResult(failure.empty(), total.sent, total.failed(), metrics);
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace geobench

int main(int argc, char** argv) {
  geobench::Args args;
  if (!geobench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: geobench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --data-dir <dir> "
                 "[--spans-out <file>]\n");
    return 2;
  }
  return geobench::Run(args);
}
