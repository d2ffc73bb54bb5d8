#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench_math.h"
#include "net/wire.h"
#include "spans.h"

namespace geobench {

namespace {

constexpr uint64_t kTimerTag = std::numeric_limits<uint64_t>::max();
// How long a phase waits for outstanding responses after its last send.
constexpr uint64_t kDrainNanos = 30'000'000'000ull;
// Closer than this to the next due time, the open loop polls instead of
// arming the timer.
constexpr uint64_t kSpinNanos = 100'000;
constexpr uint64_t kSampleNanos = 1'000'000;

}  // namespace

void Tally::Add(const Tally& other) {
  sent += other.sent;
  accepted += other.accepted;
  rejected_instance += other.rejected_instance;
  rejected_aggregate += other.rejected_aggregate;
  shed += other.shed;
  errors += other.errors;
  protocol_errors += other.protocol_errors;
  unknown_ids += other.unknown_ids;
  missing += other.missing;
}

std::unique_ptr<WireClient> WireClient::Connect(uint16_t port,
                                                int connections) {
  std::unique_ptr<WireClient> client(new WireClient());
  client->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  client->timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (client->epoll_fd_ < 0 || client->timer_fd_ < 0) {
    std::perror("geobench: epoll/timerfd");
    return nullptr;
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = kTimerTag;
  epoll_ctl(client->epoll_fd_, EPOLL_CTL_ADD, client->timer_fd_, &timer_event);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  client->conns_.resize(static_cast<size_t>(connections));
  for (size_t c = 0; c < client->conns_.size(); ++c) {
    Conn& conn = client->conns_[c];
    conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0 ||
        connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      std::perror("geobench: connect");
      return nullptr;
    }
    const int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    epoll_ctl(client->epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event);
    conn.out.assign(geolic::net::kWireMagic, sizeof(geolic::net::kWireMagic));
    if (!client->Flush(c)) {
      return nullptr;
    }
  }
  return client;
}

WireClient::~WireClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) {
      close(conn.fd);
    }
  }
  if (timer_fd_ >= 0) {
    close(timer_fd_);
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

void WireClient::Queue(size_t c, uint64_t ref_ns, const Inputs& inputs,
                       Tally* tally) {
  inputs.AppendFrame(next_index_, &conns_[c].out);
  pending_.emplace(next_index_ + 1, ref_ns);
  ++next_index_;
  ++tally->sent;
}

void WireClient::UpdateInterest(size_t c) {
  Conn& conn = conns_[c];
  const bool want = conn.out_off < conn.out.size();
  if (want == conn.want_write) {
    return;
  }
  conn.want_write = want;
  epoll_event event{};
  event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  event.data.u64 = c;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

bool WireClient::Flush(size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      std::perror("geobench: send");
      broken_ = true;
      return false;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  UpdateInterest(c);
  return true;
}

template <typename OnResponse>
bool WireClient::Receive(size_t c, Tally* tally, OnResponse&& on_response) {
  Conn& conn = conns_[c];
  char chunk[65536];
  for (;;) {
    const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) {
        break;
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      std::fprintf(stderr, "geobench: connection %zu closed by the server\n",
                   c);
      broken_ = true;
      return false;
    }
  }
  // Acknowledge at once: the server does not set TCP_NODELAY, so with
  // delayed ACKs each small response would wait for the previous one's
  // acknowledgement (Nagle), adding milliseconds at low request rates.
  const int one = 1;
  setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  const uint64_t now = NowNanos();
  geolic::net::Frame frame;
  for (;;) {
    size_t consumed = 0;
    std::string error;
    const std::string_view rest =
        std::string_view(conn.in).substr(conn.in_off);
    const geolic::net::DecodeResult decoded =
        geolic::net::TryDecodeFrame(rest, &frame, &consumed, &error);
    if (decoded == geolic::net::DecodeResult::kNeedMore) {
      break;
    }
    if (decoded == geolic::net::DecodeResult::kBad) {
      std::fprintf(stderr, "geobench: bad frame: %s\n", error.c_str());
      ++tally->protocol_errors;
      broken_ = true;
      return false;
    }
    conn.in_off += consumed;
    const auto it = pending_.find(frame.request_id);
    if (it == pending_.end()) {
      ++tally->unknown_ids;
      continue;
    }
    const uint64_t ref_ns = it->second;
    pending_.erase(it);
    switch (frame.kind) {
      case geolic::net::FrameKind::kIssueResult: {
        geolic::net::IssueResult result;
        if (!geolic::net::DecodeIssueResult(frame.payload, &result).ok()) {
          ++tally->protocol_errors;
          break;
        }
        switch (result.outcome) {
          case geolic::net::IssueResult::Outcome::kAccepted:
            ++tally->accepted;
            break;
          case geolic::net::IssueResult::Outcome::kRejectedInstance:
            ++tally->rejected_instance;
            break;
          case geolic::net::IssueResult::Outcome::kRejectedAggregate:
            ++tally->rejected_aggregate;
            break;
        }
        on_response(c, ref_ns, now);
        break;
      }
      case geolic::net::FrameKind::kShed:
        ++tally->shed;
        break;
      case geolic::net::FrameKind::kError:
        ++tally->errors;
        break;
      default:
        ++tally->protocol_errors;
        break;
    }
  }
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.in_off > (size_t{1} << 20)) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return true;
}

template <typename OnResponse>
bool WireClient::Poll(int timeout_ms, Tally* tally, OnResponse&& on_response) {
  epoll_event events[16];
  const int n = epoll_wait(epoll_fd_, events, 16, timeout_ms);
  if (n < 0) {
    return errno == EINTR;
  }
  for (int i = 0; i < n; ++i) {
    const uint64_t tag = events[i].data.u64;
    if (tag == kTimerTag) {
      uint64_t expirations = 0;
      (void)!read(timer_fd_, &expirations, sizeof(expirations));
      continue;
    }
    const size_t c = static_cast<size_t>(tag);
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      if (!Receive(c, tally, on_response)) {
        return false;
      }
    }
    if (events[i].events & EPOLLOUT) {
      if (!Flush(c)) {
        return false;
      }
    }
  }
  return true;
}

void WireClient::MaybeSample(uint64_t now_ns) {
  if (sampler_ && now_ns - last_sample_ns_ >= kSampleNanos) {
    last_sample_ns_ = now_ns;
    sampler_();
  }
}

PhaseResult WireClient::RunOpen(const Inputs& inputs, uint64_t count,
                                double rate) {
  PhaseResult result;
  result.latency_us.reserve(count);
  result.late_us.reserve(count);
  const size_t n = conns_.size();
  std::vector<char> dirty(n, 0);
  const uint64_t start = NowNanos() + 1'000'000;
  result.start_ns = start;
  uint64_t sent = 0;
  uint64_t sending_done_ns = 0;
  const auto on_response = [&](size_t, uint64_t due_ns, uint64_t now_ns) {
    result.latency_us.push_back(
        static_cast<double>(LatencyFromDue(due_ns, now_ns)) / 1e3);
    result.end_ns = now_ns;
  };
  while (!broken_) {
    uint64_t now = NowNanos();
    while (sent < count) {
      const uint64_t due = DueNanos(start, sent, rate);
      if (due > now) {
        break;
      }
      const size_t c = static_cast<size_t>(sent % n);
      Queue(c, due, inputs, &result.tally);
      result.late_us.push_back(static_cast<double>(Lateness(due, now)) / 1e3);
      dirty[c] = 1;
      ++sent;
      if (sent == count) {
        sending_done_ns = now;
      }
    }
    for (size_t c = 0; c < n; ++c) {
      if (dirty[c]) {
        dirty[c] = 0;
        Flush(c);
      }
    }
    if (sent == count && pending_.empty()) {
      break;
    }
    int timeout_ms = 10;
    if (sent < count) {
      const uint64_t next_due = DueNanos(start, sent, rate);
      now = NowNanos();
      if (next_due <= now + kSpinNanos) {
        timeout_ms = 0;
      } else {
        itimerspec when{};
        when.it_value.tv_sec = static_cast<time_t>(next_due / 1'000'000'000);
        when.it_value.tv_nsec = static_cast<long>(next_due % 1'000'000'000);
        timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &when, nullptr);
        timeout_ms = 100;
      }
    } else if (NowNanos() - sending_done_ns > kDrainNanos) {
      break;
    }
    if (!Poll(timeout_ms, &result.tally, on_response)) {
      break;
    }
    MaybeSample(NowNanos());
  }
  result.tally.missing += pending_.size();
  pending_.clear();
  if (result.end_ns < start) {
    result.end_ns = NowNanos();
  }
  return result;
}

PhaseResult WireClient::RunClosed(const Inputs& inputs, uint64_t count,
                                  double seconds, int depth) {
  PhaseResult result;
  const size_t n = conns_.size();
  std::vector<char> dirty(n, 0);
  const uint64_t start = NowNanos();
  result.start_ns = start;
  result.end_ns = start;
  const uint64_t stop_at =
      seconds > 0 ? start + static_cast<uint64_t>(seconds * 1e9)
                  : std::numeric_limits<uint64_t>::max();
  const auto may_send = [&](uint64_t now) {
    return now < stop_at && result.tally.sent < count;
  };
  for (int k = 0; k < depth && may_send(start); ++k) {
    const size_t c = static_cast<size_t>(k) % n;
    Queue(c, start, inputs, &result.tally);
    dirty[c] = 1;
  }
  const auto on_response = [&](size_t c, uint64_t, uint64_t now_ns) {
    result.end_ns = now_ns;
    if (may_send(now_ns)) {
      Queue(c, now_ns, inputs, &result.tally);
      dirty[c] = 1;
    }
  };
  uint64_t last_send_ns = start;
  while (!broken_) {
    for (size_t c = 0; c < n; ++c) {
      if (dirty[c]) {
        dirty[c] = 0;
        Flush(c);
      }
    }
    const uint64_t now = NowNanos();
    if (may_send(now)) {
      last_send_ns = now;
    }
    if (pending_.empty()) {
      break;
    }
    if (!may_send(now) && now - last_send_ns > kDrainNanos) {
      break;
    }
    if (!Poll(1, &result.tally, on_response)) {
      break;
    }
    MaybeSample(NowNanos());
  }
  result.tally.missing += pending_.size();
  pending_.clear();
  return result;
}

}  // namespace geobench
