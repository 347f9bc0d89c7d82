// Open-loop query generator for the networked workload: one thread, a few
// non-blocking loopback connections, requests sent on a fixed schedule
// whatever the server's state, and every latency taken from the time the
// request was due, so a stall is charged to every request it delays.
#ifndef PERFBENCH_SRC_OPEN_LOOP_H_
#define PERFBENCH_SRC_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/query.h"
#include "src/core/solve_dispatch.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace perfbench {

/// One distinct query of the workload with its in-process ground truth.
struct PooledQuery {
  ifls::IflsObjective objective = ifls::IflsObjective::kMinMax;
  ifls::WireQueryRequest request;
  ifls::IflsResult truth;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // answered correctly, from scheduled time
  std::vector<double> lag_ms;      // send start minus scheduled time
  std::int64_t scheduled = 0;
  std::int64_t answered = 0;
  std::int64_t refused = 0;     // kError(kUnavailable)
  std::int64_t errors = 0;      // other kError frames, undecodable replies
  std::int64_t mismatches = 0;  // answered, but not bit-identical to truth
  std::int64_t lost = 0;        // no reply before the drain timeout
  std::size_t backlog_max = 0;  // most requests outstanding at once
  double offered_qps = 0.0;

  std::int64_t failed() const { return refused + errors + mismatches + lost; }
  /// Latency quantile with every failed request counted as missing any
  /// limit (+infinity).
  double QuantileWithFailures(double q) const;
};

class OpenLoopClient {
 public:
  static ifls::Result<OpenLoopClient> Connect(std::uint16_t port,
                                              int connections);

  /// Sends round(rate * seconds) requests at `rate` per second, cycling
  /// through `pool` from `first`, and collects the replies. With `trace`,
  /// each request records an e2e.rpc root span and its layer children.
  PhaseResult Run(const std::vector<PooledQuery>& pool, std::size_t first,
                  double rate, double seconds, bool trace);

 private:
  struct Conn {
    ifls::OwnedFd fd;
    ifls::ByteRing in;
    std::string out;
  };
  std::vector<Conn> conns_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPEN_LOOP_H_
