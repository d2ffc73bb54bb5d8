// The traced replay: the same seed's request stream fed single-threaded
// through each layer's public functions, with benchmark-side spans around
// every call. It gives the per-layer timings; end-to-end metrics never
// come from it.
#ifndef GEOBENCH_REPLAY_H_
#define GEOBENCH_REPLAY_H_

#include <string>

#include "inputs.h"
#include "spans.h"
#include "util/status.h"

namespace geobench {

struct ReplayMetrics {
  // Medians, per request unless noted.
  double net_decode_ns = 0;
  double net_encode_ns = 0;
  double service_issue_ns = 0;
  double core_instance_ns = 0;
  double service_reconfig_us = 0;  // Per call.
  double persist_sync_us = 0;      // Per call.
  double catalog_hit_ns = 0;
  double catalog_compile_us = 0;
  double catalog_load_us = 0;
  double catalog_evict_us = 0;
  // Span overhead: median and interquartile range of the on/off time
  // ratio over interleaved chunk pairs, in percent.
  double overhead_pct = 0;
  double overhead_iqr_pct = 0;
  size_t overhead_pairs = 0;
  uint64_t requests = 0;
};

// Replays for about `seconds` with the program's files under `dir`.
geolic::Result<ReplayMetrics> RunReplay(const Inputs& inputs,
                                        const std::string& dir,
                                        double seconds, SpanLog* spans);

}  // namespace geobench

#endif  // GEOBENCH_REPLAY_H_
