// One client thread driving a fixed set of TCP connections through epoll,
// in open loop (requests sent on a schedule, latency timed from each due
// time) or closed loop (a fixed number of requests in flight).
#ifndef GEOBENCH_CLIENT_H_
#define GEOBENCH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "inputs.h"

namespace geobench {

// Response counts of one phase. Validation rejections are decisions;
// sheds, error frames, protocol errors, unknown ids and missing responses
// are failures.
struct Tally {
  uint64_t sent = 0;
  uint64_t accepted = 0;
  uint64_t rejected_instance = 0;
  uint64_t rejected_aggregate = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t protocol_errors = 0;
  uint64_t unknown_ids = 0;
  uint64_t missing = 0;

  uint64_t decisions() const {
    return accepted + rejected_instance + rejected_aggregate;
  }
  uint64_t failed() const {
    return shed + errors + protocol_errors + unknown_ids + missing;
  }
  void Add(const Tally& other);
};

struct PhaseResult {
  Tally tally;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // Last response (or give-up time).
  std::vector<double> latency_us;  // Open loop: due time to response.
  std::vector<double> late_us;     // Open loop: send time minus due time.
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class WireClient {
 public:
  // Connects `connections` sockets to 127.0.0.1:port and sends the
  // protocol preamble on each. Returns null (with a message on stderr) on
  // failure.
  static std::unique_ptr<WireClient> Connect(uint16_t port, int connections);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Called about once a millisecond while a phase runs.
  void set_sampler(std::function<void()> sampler) {
    sampler_ = std::move(sampler);
  }

  // Closed loop: keeps `depth` requests in flight until `count` requests
  // were sent or `seconds` elapsed, then waits for the outstanding ones.
  PhaseResult RunClosed(const Inputs& inputs, uint64_t count, double seconds,
                        int depth);

  // Open loop: sends `count` requests at `rate` per second, spread round-
  // robin over the connections, then waits for the outstanding ones.
  PhaseResult RunOpen(const Inputs& inputs, uint64_t count, double rate);

  // Sequence index of the next request to send.
  uint64_t next_index() const { return next_index_; }
  int connections() const { return static_cast<int>(conns_.size()); }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    bool want_write = false;
  };

  WireClient() = default;
  // Encodes request next_index_ on connection `c`, stamped with `ref_ns`.
  void Queue(size_t c, uint64_t ref_ns, const Inputs& inputs, Tally* tally);
  bool Flush(size_t c);
  // Reads what is available on connection `c` and handles each response;
  // `on_response(conn, ref_ns)` is called for every known request id.
  template <typename OnResponse>
  bool Receive(size_t c, Tally* tally, OnResponse&& on_response);
  // Waits for events up to `timeout_ms` (0 = poll) and services them.
  template <typename OnResponse>
  bool Poll(int timeout_ms, Tally* tally, OnResponse&& on_response);
  void MaybeSample(uint64_t now_ns);
  void UpdateInterest(size_t c);

  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  uint64_t next_index_ = 0;
  // Outstanding request ids → due time (open loop) or send time.
  std::unordered_map<uint64_t, uint64_t> pending_;
  std::function<void()> sampler_;
  uint64_t last_sample_ns_ = 0;
  bool broken_ = false;  // A socket failed; the phase gives up.
};

}  // namespace geobench

#endif  // GEOBENCH_CLIENT_H_
