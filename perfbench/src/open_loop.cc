#include "perfbench/src/open_loop.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "perfbench/src/util.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

using namespace ifls;

namespace {

// Replies still missing this long after the last send count as lost.
constexpr double kDrainTimeoutSeconds = 5.0;

struct InFlight {
  std::size_t pool_index = 0;
  double scheduled = 0.0;
  double write_end = 0.0;
  std::uint64_t root_span = 0;
};

bool FlushOut(int fd, std::string* out) {
  while (!out->empty()) {
    const ssize_t n = ::write(fd, out->data(), out->size());
    if (n > 0) {
      out->erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

double PhaseResult::QuantileWithFailures(double q) const {
  std::vector<double> all = latency_ms;
  all.insert(all.end(), static_cast<std::size_t>(failed()),
             std::numeric_limits<double>::infinity());
  if (all.empty()) return std::numeric_limits<double>::infinity();
  std::sort(all.begin(), all.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(all.size()))) ;
  return all[std::min(all.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Result<OpenLoopClient> OpenLoopClient::Connect(std::uint16_t port,
                                               int connections) {
  OpenLoopClient client;
  for (int i = 0; i < connections; ++i) {
    Result<OwnedFd> fd = ConnectTcp(port);
    if (!fd.ok()) return fd.status();
    Status st = SetNoDelay(fd->get());
    if (st.ok()) st = SetNonBlocking(fd->get());
    if (!st.ok()) return st;
    Conn conn;
    conn.fd = std::move(*fd);
    client.conns_.push_back(std::move(conn));
  }
  return client;
}

PhaseResult OpenLoopClient::Run(const std::vector<PooledQuery>& pool,
                                std::size_t first, double rate,
                                double seconds, bool trace) {
  const GeneratorPriority priority;
  PhaseResult result;
  const auto total = static_cast<std::int64_t>(std::llround(rate * seconds));
  result.scheduled = total;
  std::unordered_map<std::uint64_t, InFlight> inflight;
  Tracer& tracer = Tracer::Get();
  const double start = NowSeconds() + 0.005;
  std::int64_t next = 0;
  double last_scheduled = start;
  std::vector<pollfd> fds(conns_.size());

  auto fail_all = [&] {
    result.lost += static_cast<std::int64_t>(inflight.size());
    inflight.clear();
  };

  while (next < total || !inflight.empty()) {
    double now = NowSeconds();
    // Send everything that is due.
    while (next < total && start + static_cast<double>(next) / rate <= now) {
      const double scheduled = start + static_cast<double>(next) / rate;
      last_scheduled = scheduled;
      const std::size_t index = (first + static_cast<std::size_t>(next)) % pool.size();
      Conn& conn = conns_[static_cast<std::size_t>(next) % conns_.size()];
      const std::uint64_t id = next_request_id_++;
      const double send_start = NowSeconds();
      const std::string frame =
          EncodeQueryFrame(id, pool[index].objective, pool[index].request);
      const double encoded = NowSeconds();
      conn.out += frame;
      if (!FlushOut(conn.fd.get(), &conn.out)) {
        ++result.errors;
        ++next;
        continue;
      }
      const double written = NowSeconds();
      result.lag_ms.push_back((send_start - scheduled) * 1e3);
      InFlight f{index, scheduled, written, 0};
      if (trace) {
        f.root_span = tracer.NextId();
        tracer.Record("loadgen.lag", f.root_span, f.root_span, scheduled, send_start);
        tracer.Record("net.encode", f.root_span, f.root_span, send_start, encoded);
        tracer.Record("net.write", f.root_span, f.root_span, encoded, written);
      }
      inflight.emplace(id, f);
      result.backlog_max = std::max(result.backlog_max, inflight.size());
      ++next;
      now = NowSeconds();
    }
    if (next >= total && now > last_scheduled + kDrainTimeoutSeconds) {
      fail_all();
      break;
    }

    // Wait for replies, writability, or the next send time. The poll
    // always blocks until one of them: the generator never spins (see
    // SleepUntil).
    double wait = next < total
                      ? start + static_cast<double>(next) / rate - NowSeconds()
                      : 0.005;
    wait = std::max(0.0, std::min(wait, 0.005));
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd.get();
      fds[c].events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
      fds[c].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(wait * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (fds[c].revents & POLLOUT) {
        if (!FlushOut(conn.fd.get(), &conn.out)) ++result.errors;
      }
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
        if (n > 0) {
          conn.in.Append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      const double arrived = NowSeconds();
      for (;;) {
        const double decode_start = NowSeconds();
        Result<std::optional<WireFrame>> frame = TryDecodeFrame(&conn.in);
        if (!frame.ok()) {
          // The stream is unsynchronized: everything outstanding is lost.
          ++result.errors;
          conn.in.Clear();
          break;
        }
        if (!frame->has_value()) break;
        WireFrame& f = **frame;
        const auto it = inflight.find(f.request_id);
        if (it == inflight.end()) {
          ++result.errors;
          continue;
        }
        const InFlight req = it->second;
        inflight.erase(it);
        if (f.opcode == WireOpcode::kError) {
          const Status st = DecodeErrorPayload(f.payload);
          if (st.code() == StatusCode::kUnavailable) {
            ++result.refused;
          } else {
            ++result.errors;
          }
          continue;
        }
        Result<WireQueryResponse> response = DecodeQueryResponse(f.payload);
        const double done = NowSeconds();
        if (f.opcode != WireOpcode::kQueryResult || !response.ok()) {
          ++result.errors;
          continue;
        }
        IflsResult got;
        got.found = response->found;
        got.answer = response->answer;
        got.objective = response->objective;
        if (!SameAnswer(got, pool[req.pool_index].truth)) {
          ++result.mismatches;
          continue;
        }
        ++result.answered;
        result.latency_ms.push_back((done - req.scheduled) * 1e3);
        if (trace) {
          tracer.Record("net.server", req.root_span, req.root_span,
                        req.write_end, arrived);
          tracer.Record("net.decode", req.root_span, req.root_span,
                        decode_start, done);
          SpanRecord root;
          root.id = req.root_span;
          root.op = req.root_span;
          root.name = "e2e.rpc";
          root.start = req.scheduled;
          root.end = done;
          tracer.Add(std::move(root));
        }
      }
    }
  }
  const double span = last_scheduled - start;
  result.offered_qps =
      span > 0 ? static_cast<double>(total - 1) / span : rate;
  return result;
}

}  // namespace perfbench
