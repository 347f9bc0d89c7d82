#include "src/common/trace.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

namespace ifls {

namespace trace_internal {

std::atomic<bool> g_enabled{false};

ThreadTraceState& ThreadState() {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace trace_internal

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kSolver:
      return "solver";
    case TraceCategory::kOracle:
      return "oracle";
    case TraceCategory::kCache:
      return "cache";
    case TraceCategory::kService:
      return "service";
    case TraceCategory::kCompaction:
      return "compaction";
  }
  return "unknown";
}

namespace {

std::chrono::steady_clock::time_point TraceClockBase() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return base;
}

/// Opt-in tracing from the environment:
/// IFLS_TRACE=1 records every query, IFLS_TRACE=N samples 1-in-N, unset/0
/// leaves tracing off. Lets CI rerun existing suites — e.g. the TSan
/// `parallel` label — with the recorder live, without touching the tests.
const bool g_env_enable = [] {
  const char* env = std::getenv("IFLS_TRACE");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0) {
    return false;
  }
  char* end = nullptr;
  const unsigned long n = std::strtoul(env, &end, 10);
  TraceRecorder::Global().Enable(
      (end != nullptr && *end == '\0' && n > 0) ? static_cast<std::uint32_t>(n)
                                                : 1);
  return true;
}();

}  // namespace

std::uint64_t TraceNowNanos() {
  return TraceNanosFrom(std::chrono::steady_clock::now());
}

std::uint64_t TraceNanosFrom(std::chrono::steady_clock::time_point tp) {
  const auto delta = tp - TraceClockBase();
  if (delta.count() < 0) return 0;  // tp predates the base capture
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
}

/// One ring of seqlock-guarded span slots, written by exactly one thread at
/// a time and read concurrently by the exporter. Slot protocol (mirrors
/// ConcurrentDoorCache): the writer bumps `seq` to odd (acq_rel RMW, so the
/// payload stores below cannot be hoisted above it), fills the payload with
/// relaxed stores, then publishes by storing the next even value with
/// release order. Readers accept a slot only when `seq` reads even and
/// identical before and after the payload loads.
struct TraceRecorder::ThreadBuffer {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> start_nanos{0};
    std::atomic<std::uint64_t> end_nanos{0};
    std::atomic<std::uint32_t> category{0};
  };

  explicit ThreadBuffer(std::uint32_t tid_in) : tid(tid_in) {}

  const std::uint32_t tid;
  /// True while a live thread owns this ring; cleared at thread exit so a
  /// later thread can adopt it (events are kept until adoption).
  std::atomic<bool> in_use{true};
  /// Total spans ever pushed; slot index is head % kSlotsPerThread.
  std::atomic<std::uint64_t> head{0};
  std::array<Slot, kSlotsPerThread> slots;

  void Push(TraceCategory category, const char* name, std::uint64_t trace_id,
            std::uint64_t start_nanos, std::uint64_t end_nanos) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h % kSlotsPerThread];
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    // Single writer: the claim CAS cannot fail; acq_rel keeps the payload
    // stores from moving above the odd mark.
    slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acq_rel);
    slot.name.store(name, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.start_nanos.store(start_nanos, std::memory_order_relaxed);
    slot.end_nanos.store(end_nanos, std::memory_order_relaxed);
    slot.category.store(static_cast<std::uint32_t>(category),
                        std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  /// Seqlock read of one slot; false when a writer was mid-publish.
  bool Read(std::size_t index, TraceEvent* out) const {
    const Slot& slot = slots[index];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before & 1) return false;
    out->name = slot.name.load(std::memory_order_relaxed);
    out->trace_id = slot.trace_id.load(std::memory_order_relaxed);
    out->start_nanos = slot.start_nanos.load(std::memory_order_relaxed);
    out->end_nanos = slot.end_nanos.load(std::memory_order_relaxed);
    out->category = static_cast<TraceCategory>(
        slot.category.load(std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t seq_after = slot.seq.load(std::memory_order_relaxed);
    if (seq_before != seq_after || out->name == nullptr) return false;
    out->tid = tid;
    return true;
  }
};

TraceRecorder::TraceRecorder() = default;
TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose: threads may still be recording during static
  // destruction, and their thread_local handles outlive function statics.
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

void TraceRecorder::Enable(std::uint32_t sample_every) {
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  trace_internal::g_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  trace_internal::g_enabled.store(false, std::memory_order_release);
}

std::uint32_t TraceRecorder::sample_every() const {
  return sample_every_.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::NewTraceId() {
  return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
}

bool TraceRecorder::Sampled(std::uint64_t trace_id) const {
  const std::uint32_t n = sample_every();
  return n <= 1 || trace_id % n == 1;
}

TraceRecorder::ThreadBuffer* TraceRecorder::LocalBuffer() {
  // The handle hands the ring back (events intact) when the thread exits; a
  // later thread adopts the ring and resets it, so the total footprint is
  // bounded by the peak number of concurrently-recording threads.
  struct Handle {
    ThreadBuffer* buffer = nullptr;
    ~Handle() {
      if (buffer != nullptr) {
        buffer->in_use.store(false, std::memory_order_release);
      }
    }
  };
  thread_local Handle handle;
  if (handle.buffer != nullptr) return handle.buffer;

  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& buffer : buffers_) {
    if (!buffer->in_use.load(std::memory_order_acquire)) {
      const std::uint64_t stale = buffer->head.load(std::memory_order_relaxed);
      dropped_.fetch_add(std::min<std::uint64_t>(stale, kSlotsPerThread),
                         std::memory_order_relaxed);
      buffer->head.store(0, std::memory_order_relaxed);
      buffer->in_use.store(true, std::memory_order_relaxed);
      handle.buffer = buffer.get();
      return handle.buffer;
    }
  }
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(static_cast<std::uint32_t>(buffers_.size())));
  handle.buffer = buffers_.back().get();
  return handle.buffer;
}

void TraceRecorder::Record(TraceCategory category, const char* name,
                           std::uint64_t trace_id, std::uint64_t start_nanos,
                           std::uint64_t end_nanos) {
  if (!TraceEnabled() || name == nullptr) return;
  if (end_nanos < start_nanos) end_nanos = start_nanos;
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer->head.load(std::memory_order_relaxed) >= kSlotsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // overwriting oldest
  }
  buffer->Push(category, name, trace_id, start_nanos, end_nanos);
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& buffer : buffers_) {
    buffer->head.store(0, std::memory_order_relaxed);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped_events() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    const std::uint64_t head = buffer->head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, kSlotsPerThread);
    for (std::uint64_t i = head - count; i < head; ++i) {
      TraceEvent event;
      if (buffer->Read(static_cast<std::size_t>(i % kSlotsPerThread),
                       &event)) {
        events.push_back(event);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              return a.end_nanos > b.end_nanos;  // parents before children
            });
  return events;
}

std::vector<TraceEvent> TraceRecorder::SnapshotTrace(
    std::uint64_t trace_id) const {
  std::vector<TraceEvent> events = Snapshot();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [trace_id](const TraceEvent& e) {
                                return e.trace_id != trace_id;
                              }),
               events.end());
  return events;
}

namespace {

void WriteJsonString(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

/// Emits one Chrome trace event line. `ph` is "B" or "E"; ts is in
/// microseconds (Chrome's unit) with nanosecond decimals preserved.
void WriteChromeEvent(std::ostream& out, bool* first, const char* ph,
                      const TraceEvent& event, std::uint64_t ts_nanos) {
  if (!*first) out << ",\n";
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ts_nanos / 1000,
                static_cast<unsigned>(ts_nanos % 1000));
  out << "    {\"ph\": \"" << ph << "\", \"pid\": 1, \"tid\": " << event.tid
      << ", \"ts\": " << buf;
  if (ph[0] == 'B') {
    out << ", \"name\": ";
    WriteJsonString(out, event.name);
    out << ", \"cat\": \"" << TraceCategoryName(event.category) << '"';
    if (event.trace_id != 0) {
      out << ", \"args\": {\"trace_id\": " << event.trace_id << '}';
    }
  }
  out << '}';
}

}  // namespace

void TraceRecorder::SetMetadata(const std::string& key,
                                const std::string& value) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& entry : metadata_) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  metadata_.emplace_back(key, value);
  std::sort(metadata_.begin(), metadata_.end());
}

Status TraceRecorder::ExportChromeTrace(std::ostream& out) const {
  const std::vector<TraceEvent> events = Snapshot();  // (tid, start) order
  std::vector<std::pair<std::string, std::string>> metadata;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    metadata = metadata_;
  }

  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {";
  bool first_meta = true;
  for (const auto& [key, value] : metadata) {
    out << (first_meta ? "\n    " : ",\n    ");
    first_meta = false;
    WriteJsonString(out, key.c_str());
    out << ": ";
    WriteJsonString(out, value.c_str());
  }
  out << (first_meta ? "},\n" : "\n  },\n") << "  \"traceEvents\": [\n";
  bool first = true;

  // Complete spans become balanced B/E pairs per thread: within one tid the
  // events are in pre-order (start ascending, longer span first on ties), so
  // a stack sweep closes every span that ends before the next one begins.
  // RAII scoping guarantees proper nesting on each thread; retroactive spans
  // that would straddle a boundary are clamped to their parent.
  std::vector<TraceEvent> open;
  std::uint32_t current_tid = 0;
  auto close_through = [&](std::uint64_t until_nanos) {
    while (!open.empty() && open.back().end_nanos <= until_nanos) {
      WriteChromeEvent(out, &first, "E", open.back(), open.back().end_nanos);
      open.pop_back();
    }
  };
  for (const TraceEvent& event : events) {
    if (!open.empty() && event.tid != current_tid) {
      close_through(UINT64_MAX);
    }
    current_tid = event.tid;
    close_through(event.start_nanos);
    TraceEvent begin = event;
    if (!open.empty() && begin.end_nanos > open.back().end_nanos) {
      begin.end_nanos = open.back().end_nanos;  // keep nesting well-formed
    }
    WriteChromeEvent(out, &first, "B", begin, begin.start_nanos);
    open.push_back(begin);
  }
  close_through(UINT64_MAX);

  out << "\n  ]\n}\n";
  if (!out) return Status::IOError("short write while exporting trace");
  return Status::OK();
}

Status TraceRecorder::ExportChromeTraceToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  Status status = ExportChromeTrace(out);
  if (!status.ok()) return status;
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

TraceContext CurrentTraceContext() {
  const trace_internal::ThreadTraceState& state = trace_internal::ThreadState();
  TraceContext context;
  context.trace_id = state.trace_id;
  context.sampled = !state.suppressed;
  context.client_send_nanos = TraceNowNanos();
  return context;
}

namespace {

/// One Chrome trace export split back into its parts. Parsing leans on the
/// exporter's deterministic layout (ExportChromeTrace writes one event per
/// line, strings never contain raw newlines — control characters are
/// \u-escaped), so line anchors are unambiguous.
struct ParsedChromeTrace {
  std::vector<std::string> other_data;  // "key": "value" fragments
  std::vector<std::string> events;      // {...} fragments, no trailing comma
};

void SplitJoinedLines(const std::string& body, const char* separator,
                      std::vector<std::string>* out) {
  if (body.empty()) return;
  std::size_t start = 0;
  const std::size_t sep_len = std::strlen(separator);
  while (true) {
    const std::size_t next = body.find(separator, start);
    if (next == std::string::npos) {
      out->push_back(body.substr(start));
      return;
    }
    out->push_back(body.substr(start, next - start));
    start = next + sep_len;
  }
}

Status ParseExportedTrace(const std::string& json, const char* what,
                          ParsedChromeTrace* out) {
  const std::size_t events_pos = json.find("\n  \"traceEvents\": [");
  const std::size_t meta_pos = json.find("\"otherData\": {");
  if (events_pos == std::string::npos || meta_pos == std::string::npos ||
      meta_pos > events_pos) {
    return Status::InvalidArgument(
        std::string(what) + " trace is not an ifls Chrome trace export");
  }

  // otherData body: between the opening '{' and the '}' that closes the
  // block right before the traceEvents anchor.
  const std::size_t meta_begin = meta_pos + std::strlen("\"otherData\": {");
  const std::size_t meta_end = json.rfind('}', events_pos);
  if (meta_end == std::string::npos || meta_end < meta_begin) {
    return Status::InvalidArgument(std::string(what) +
                                   " trace has a malformed otherData block");
  }
  std::string meta_body = json.substr(meta_begin, meta_end - meta_begin);
  // Strip the surrounding layout whitespace, leaving the ",\n    "-joined
  // entry list (empty for "otherData": {}).
  while (!meta_body.empty() &&
         (meta_body.front() == '\n' || meta_body.front() == ' ')) {
    meta_body.erase(meta_body.begin());
  }
  while (!meta_body.empty() &&
         (meta_body.back() == '\n' || meta_body.back() == ' ')) {
    meta_body.pop_back();
  }
  std::vector<std::string> meta_entries;
  SplitJoinedLines(meta_body, ",\n    ", &meta_entries);
  for (std::string& entry : meta_entries) {
    if (!entry.empty()) out->other_data.push_back(std::move(entry));
  }

  // traceEvents body: between "[\n" and the closing "\n  ]".
  const std::size_t body_begin =
      events_pos + std::strlen("\n  \"traceEvents\": [\n");
  const std::size_t body_end = json.find("\n  ]", body_begin);
  if (body_end == std::string::npos) {
    return Status::InvalidArgument(std::string(what) +
                                   " trace has an unterminated event array");
  }
  std::vector<std::string> event_lines;
  SplitJoinedLines(json.substr(body_begin, body_end - body_begin), ",\n",
                   &event_lines);
  for (std::string& line : event_lines) {
    while (!line.empty() && (line.front() == ' ' || line.front() == '\n')) {
      line.erase(line.begin());
    }
    if (!line.empty()) out->events.push_back(std::move(line));
  }
  return Status::OK();
}

/// Shifts an event line's "ts" (µs with 3 ns decimals) by `offset_nanos`,
/// clamping at zero, and moves the event from pid 1 to pid 2.
Status RehomeServerEvent(std::string* line, std::int64_t offset_nanos) {
  const std::size_t pid_pos = line->find("\"pid\": 1");
  if (pid_pos == std::string::npos) {
    return Status::InvalidArgument("server trace event without pid 1: " +
                                   *line);
  }
  (*line)[pid_pos + std::strlen("\"pid\": ")] = '2';

  const std::size_t ts_key = line->find("\"ts\": ");
  if (ts_key == std::string::npos) {
    return Status::InvalidArgument("server trace event without ts: " + *line);
  }
  const std::size_t num_begin = ts_key + std::strlen("\"ts\": ");
  std::size_t num_end = num_begin;
  while (num_end < line->size() &&
         (std::isdigit(static_cast<unsigned char>((*line)[num_end])) ||
          (*line)[num_end] == '.')) {
    ++num_end;
  }
  unsigned long long micros = 0;
  unsigned frac = 0;
  if (std::sscanf(line->c_str() + num_begin, "%llu.%u", &micros, &frac) != 2) {
    return Status::InvalidArgument("unparseable ts in server trace event: " +
                                   *line);
  }
  std::int64_t nanos =
      static_cast<std::int64_t>(micros) * 1000 + static_cast<std::int64_t>(frac);
  nanos += offset_nanos;
  if (nanos < 0) nanos = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u",
                static_cast<std::uint64_t>(nanos) / 1000,
                static_cast<unsigned>(static_cast<std::uint64_t>(nanos) % 1000));
  line->replace(num_begin, num_end - num_begin, buf);
  return Status::OK();
}

}  // namespace

Status MergeChromeTraces(const std::string& client_json,
                         const std::string& server_json,
                         std::int64_t server_clock_offset_nanos,
                         std::string* merged) {
  ParsedChromeTrace client;
  ParsedChromeTrace server;
  Status status = ParseExportedTrace(client_json, "client", &client);
  if (!status.ok()) return status;
  status = ParseExportedTrace(server_json, "server", &server);
  if (!status.ok()) return status;

  std::string out;
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {";
  bool first = true;
  for (const std::string& entry : client.other_data) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += entry;
  }
  for (const std::string& entry : server.other_data) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    // `entry` is `"key": "value"`; prefix the key so client and server
    // metadata never collide in the merged block.
    if (entry.empty() || entry.front() != '"') {
      return Status::InvalidArgument("malformed server otherData entry: " +
                                     entry);
    }
    out += "\"server.";
    out += entry.substr(1);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"traceEvents\": [\n";
  out +=
      "    {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"ifls_client\"}},\n";
  out +=
      "    {\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"ifls_server\"}}";
  for (const std::string& event : client.events) {
    out += ",\n    ";
    out += event;
  }
  for (std::string event : server.events) {
    status = RehomeServerEvent(&event, server_clock_offset_nanos);
    if (!status.ok()) return status;
    out += ",\n    ";
    out += event;
  }
  out += "\n  ]\n}\n";
  *merged = std::move(out);
  return Status::OK();
}

void TraceSpan::Finish() {
  TraceRecorder::Global().Record(category_, name_, trace_id_, start_nanos_,
                                 TraceNowNanos());
}

std::string FormatSpanTree(const std::vector<TraceEvent>& events,
                           std::size_t max_lines) {
  std::vector<TraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              return a.end_nanos > b.end_nanos;
            });

  std::string result;
  std::vector<std::uint64_t> open_ends;
  std::uint32_t current_tid = 0;
  std::size_t emitted = 0;
  for (const TraceEvent& event : sorted) {
    if (event.tid != current_tid) open_ends.clear();
    current_tid = event.tid;
    while (!open_ends.empty() && open_ends.back() <= event.start_nanos) {
      open_ends.pop_back();
    }
    if (emitted == max_lines) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\n  ... (+%zu more spans)",
                    sorted.size() - emitted);
      result += buf;
      break;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\n  %*s[%s] %s %.3fms",
                  static_cast<int>(2 * open_ends.size()), "",
                  TraceCategoryName(event.category), event.name,
                  static_cast<double>(event.end_nanos - event.start_nanos) /
                      1e6);
    result += buf;
    open_ends.push_back(event.end_nanos);
    ++emitted;
  }
  return result;
}

}  // namespace ifls
