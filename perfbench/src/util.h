// Shared plumbing of the repo benchmark: clocks, sample statistics, the
// in-memory span recorder used by traced runs, the per-run report, and the
// host envelope. Nothing here calls into the ifls library's layers; the
// workload files do that.
#ifndef PERFBENCH_SRC_UTIL_H_
#define PERFBENCH_SRC_UTIL_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (arbitrary epoch).
double NowSeconds();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
/// Process peak resident set size (ru_maxrss) in MiB.
double PeakRssMib();
/// Sleeps until NowSeconds() reaches `deadline` (no-op when it passed).
/// It never spins: a generator shares its CPU with the program under test
/// (PinnedCpu), so spinning would take CPU from the program.
void SleepUntil(double deadline);

/// While alive, the calling thread runs at real-time priority (SCHED_FIFO 1)
/// or, where that is not allowed, at nice kGeneratorNice, so an open-loop
/// generator wakes on schedule even when the program under test keeps the
/// CPU busy; otherwise the program's own threads delay the generator and
/// open-loop latency charges that lateness to the program. The thread must
/// sleep between sends and create no thread of the program while it holds
/// the priority (threads inherit it). Where neither is allowed, nothing
/// changes. name() says which applies: "fifo", "nice" or "default".
class GeneratorPriority {
 public:
  static constexpr int kGeneratorNice = -10;
  GeneratorPriority();
  ~GeneratorPriority();
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;

  const char* name() const;

 private:
  enum class Kind { kDefault, kFifo, kNice };
  Kind kind_ = Kind::kDefault;
  int previous_nice_ = 0;
  int previous_policy_ = SCHED_OTHER;
  sched_param previous_param_{};
};

/// While alive, the process runs on one CPU (the highest-numbered one it may
/// use) and a SCHED_IDLE thread keeps that CPU busy whenever no other thread
/// wants it. The vCPUs of a shared host may share fewer physical cores than
/// nproc says, so a run spread over them measures how many cores the host
/// lends at the moment; and an idle vCPU wakes late (a 5 ms timer on an idle
/// 4-vCPU VM woke 4-5 ms late at p99, 0.5-0.7 ms when its vCPU was kept
/// busy), which open-loop latency would charge to the program. Create it
/// before the workload starts any thread. Where the process may not pin
/// itself, nothing changes and cpu() is -1. paper_mc and serve_mc run
/// pinned; churn_mzb does not.
class PinnedCpu {
 public:
  PinnedCpu();
  ~PinnedCpu();
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

  int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  std::atomic<bool> stop_{false};
  std::thread keep_awake_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
/// Tail quantile of a run cut into blocks: the median over the non-empty
/// blocks of each block's `q` quantile. A stall of the host lifts the tail
/// of the blocks it falls in, not the whole run's, so the figure follows the
/// program rather than the worst moment of the host.
double MedianOfBlockQuantiles(const std::vector<std::vector<double>>& blocks,
                              double q);
/// All samples of `blocks` in one vector.
std::vector<double> Flatten(const std::vector<std::vector<double>>& blocks);
double Mean(const std::vector<double>& values);

/// Spans recorded by traced runs: one per call the benchmark makes into a
/// layer, named "<layer>.<call>". Spans of one end-to-end operation share
/// `op`; `parent` links a span to the span that was open around it on the
/// same thread. Kept in memory and written once at exit.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  double start = 0.0;  // NowSeconds()
  double end = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  /// Stops recording (spans already recorded stay).
  void Disable() { enabled_ = false; }

  /// Records a finished span with explicit bounds (used where the start is a
  /// scheduled time rather than "now"). Returns its id.
  std::uint64_t Record(const std::string& name, std::uint64_t parent,
                       std::uint64_t op, double start, double end);
  std::uint64_t NextId();
  void Add(SpanRecord span);

  std::vector<SpanRecord> Spans() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span around one call. Nests through a thread-local stack, so a
/// span opened inside another on the same thread becomes its child and
/// inherits its op id; an outermost span starts a new op. Records nothing
/// while the tracer is disabled or when `name` is null (how a caller leaves
/// one operation untraced).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t op_ = 0;
  double start_ = 0.0;
};

/// Self time of every span (its duration minus the durations of its direct
/// children), summed per layer (the name's prefix before the first '.') and
/// divided by the number of root spans named `root_name`. The root's own
/// self time is reported as the residual: end-to-end time no layer span
/// accounts for. `residual_p50_ms` is the median over root spans.
struct SelfTimes {
  std::map<std::string, double> layer_ms_per_op;
  double residual_p50_ms = 0.0;
  std::size_t roots = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans,
                           const std::string& root_name);

/// Writes the recorded spans as a JSON array to `path`.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

/// What one run reports. Metric names are the BENCHMARK.json names; the
/// runner (perfbench/run.py) attaches units from there.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Diagnostics that are not benchmark metrics (sample counts, rates).
  std::map<std::string, double> info;
  std::map<std::string, std::string> envelope;
  std::vector<std::string> errors;

  /// Counts one checked operation; a failed one also flips `correct`.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void Count(std::int64_t n, std::int64_t bad, const std::string& what);
};

/// One JSON object on one line: correct/attempted/failed/metrics/info/
/// envelope/errors. Doubles print with 17 significant digits.
std::string ReportToJson(const Report& report);

/// Host calibration: iterations per second of a fixed integer spin loop on
/// one thread, and the parallel efficiency of the same loop on 4 threads
/// (aggregate rate / (4 x single rate)).
struct Calibration {
  double spin_mops_1t = 0.0;
  double parallel_efficiency_4t = 0.0;
};
Calibration CalibrateHost();


}  // namespace perfbench

#endif  // PERFBENCH_SRC_UTIL_H_
