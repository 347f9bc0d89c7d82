#include "perfbench/src/util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntil(double deadline) {
  const Clock::time_point wake(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(deadline)));
  std::this_thread::sleep_until(wake);
}

namespace {
id_t ThisThread() { return static_cast<id_t>(::syscall(SYS_gettid)); }
}  // namespace

// On Linux the scheduling policy and the nice value belong to a thread:
// pthread_setschedparam and PRIO_PROCESS with a thread id set this thread's
// alone.
GeneratorPriority::GeneratorPriority() {
  if (::pthread_getschedparam(::pthread_self(), &previous_policy_,
                              &previous_param_) == 0) {
    sched_param fifo{};
    fifo.sched_priority = 1;
    if (::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &fifo) == 0) {
      kind_ = Kind::kFifo;
      return;
    }
  }
  errno = 0;
  previous_nice_ = ::getpriority(PRIO_PROCESS, ThisThread());
  if (errno != 0) return;
  if (::setpriority(PRIO_PROCESS, ThisThread(), kGeneratorNice) == 0) {
    kind_ = Kind::kNice;
  }
}

GeneratorPriority::~GeneratorPriority() {
  if (kind_ == Kind::kFifo) {
    ::pthread_setschedparam(::pthread_self(), previous_policy_, &previous_param_);
  } else if (kind_ == Kind::kNice) {
    ::setpriority(PRIO_PROCESS, ThisThread(), previous_nice_);
  }
}

const char* GeneratorPriority::name() const {
  switch (kind_) {
    case Kind::kFifo: return "fifo";
    case Kind::kNice: return "nice";
    default: return "default";
  }
}

PinnedCpu::PinnedCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Affinity belongs to a thread and new threads inherit it: set it on
  // every thread the process has now, and all later ones follow.
  auto set_all = [](const cpu_set_t& set) {
    std::error_code error;
    std::filesystem::directory_iterator tasks("/proc/self/task", error);
    bool ok = !error;
    for (; ok && tasks != std::filesystem::directory_iterator(); tasks.increment(error)) {
      const auto tid = static_cast<pid_t>(
          std::strtol(tasks->path().filename().c_str(), nullptr, 10));
      ok = !error && ::sched_setaffinity(tid, sizeof(set), &set) == 0;
    }
    return ok && !error;
  };
  if (!set_all(one)) {
    set_all(allowed);
    return;
  }
  cpu_ = cpu;
  keep_awake_ = std::thread([this] {
    sched_param param{};
    ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  });
}

PinnedCpu::~PinnedCpu() {
  stop_.store(true, std::memory_order_relaxed);
  if (keep_awake_.joinable()) keep_awake_.join();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MedianOfBlockQuantiles(const std::vector<std::vector<double>>& blocks,
                              double q) {
  std::vector<double> tails;
  for (const std::vector<double>& block : blocks) {
    if (!block.empty()) tails.push_back(Quantile(block, q));
  }
  return Quantile(std::move(tails), 0.5);
}

std::vector<double> Flatten(const std::vector<std::vector<double>>& blocks) {
  std::vector<double> all;
  for (const std::vector<double>& block : blocks) {
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::Record(const std::string& name, std::uint64_t parent,
                             std::uint64_t op, double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent;
  span.op = op;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {
struct OpenSpan {
  std::uint64_t id;
  std::uint64_t op;
};
thread_local std::vector<OpenSpan> open_spans;
}  // namespace

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (name == nullptr || !tracer.enabled()) return;
  id_ = tracer.NextId();
  if (!open_spans.empty()) {
    parent_ = open_spans.back().id;
    op_ = open_spans.back().op;
  } else {
    op_ = id_;
  }
  open_spans.push_back({id_, op_});
  start_ = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const double end = NowSeconds();
  open_spans.pop_back();
  SpanRecord span;
  span.id = id_;
  span.parent = parent_;
  span.op = op_;
  span.name = name_;
  span.start = start_;
  span.end = end;
  Tracer::Get().Add(std::move(span));
}

SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans,
                           const std::string& root_name) {
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_seconds[s.parent] += s.end - s.start;
  }
  // Only spans under a root of this kind count, so probes recorded in the
  // same run under other roots do not leak into the per-op attribution.
  std::unordered_map<std::uint64_t, bool> op_has_root;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0 && s.name == root_name) op_has_root[s.op] = true;
  }
  SelfTimes out;
  std::vector<double> residuals;
  std::map<std::string, double> layer_seconds;
  for (const SpanRecord& s : spans) {
    if (!op_has_root.count(s.op)) continue;
    const auto it = child_seconds.find(s.id);
    const double self =
        (s.end - s.start) - (it == child_seconds.end() ? 0.0 : it->second);
    if (s.parent == 0 && s.name == root_name) {
      residuals.push_back(self * 1e3);
      continue;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    layer_seconds[layer] += self;
  }
  out.roots = residuals.size();
  for (const auto& [layer, seconds] : layer_seconds) {
    out.layer_ms_per_op[layer] =
        out.roots ? seconds * 1e3 / static_cast<double>(out.roots) : 0.0;
  }
  out.residual_p50_ms = Quantile(residuals, 0.5);
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"start_s\":" << JsonNumber(s.start)
        << ",\"end_s\":" << JsonNumber(s.end) << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Report::Count(std::int64_t n, std::int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) {
    correct = false;
    if (errors.size() < 20) {
      errors.push_back(what + ": " + std::to_string(bad) + " of " +
                       std::to_string(n) + " failed");
    }
  }
}

std::string ReportToJson(const Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    out += (first ? "\"" : ",\"") + JsonEscape(name) + "\":" + JsonNumber(value);
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : report.info) {
    out += (first ? "\"" : ",\"") + JsonEscape(name) + "\":" + JsonNumber(value);
    first = false;
  }
  out += "},\"envelope\":{";
  first = true;
  for (const auto& [name, value] : report.envelope) {
    out += (first ? "\"" : ",\"") + JsonEscape(name) + "\":\"" +
           JsonEscape(value) + "\"";
    first = false;
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ",\"" : "\"") + JsonEscape(report.errors[i]) + "\"";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------------

namespace {

// A dependent multiply-xorshift chain: integer-only, cache-resident, so its
// rate tracks the core's clock and how much of the core this process gets.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
  }
  return x;
}

double SpinRate(int threads, std::uint64_t iterations_per_thread) {
  std::atomic<std::uint64_t> sink{0};
  const double start = NowSeconds();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] { sink += Spin(iterations_per_thread); });
  }
  for (std::thread& th : pool) th.join();
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(iterations_per_thread) * threads / elapsed;
}

}  // namespace

Calibration CalibrateHost() {
  constexpr std::uint64_t kIterations = 20'000'000;
  Calibration c;
  const double single = SpinRate(1, kIterations);
  const double quad = SpinRate(4, kIterations);
  c.spin_mops_1t = single / 1e6;
  c.parallel_efficiency_4t = quad / (4.0 * single);
  return c;
}

}  // namespace perfbench
