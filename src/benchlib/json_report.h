#ifndef IFLS_BENCHLIB_JSON_REPORT_H_
#define IFLS_BENCHLIB_JSON_REPORT_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace ifls {

/// Minimal streaming JSON writer with indentation and comma management —
/// just enough for the bench reports, no parsing, no dependencies. Keys and
/// string values are escaped; doubles print with %.9g (compact, round-trip
/// close enough for perf figures); non-finite doubles degrade to null.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream* out);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Must be followed by exactly one Value/Begin* call.
  void Key(const std::string& name);

  void Value(double v);
  void Value(std::int64_t v);
  void Value(std::uint64_t v);
  void Value(bool v);
  void Value(const std::string& v);
  void Value(const char* v) { Value(std::string(v)); }
  /// Any other integer goes through the signed/unsigned 64-bit overloads.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  void Value(T v) {
    if constexpr (std::is_signed_v<T>) {
      Value(static_cast<std::int64_t>(v));
    } else {
      Value(static_cast<std::uint64_t>(v));
    }
  }

  template <typename T>
  void Field(const std::string& key, const T& value) {
    Key(key);
    Value(value);
  }

 private:
  void Indent();
  /// Writes the separator/indent owed before a new element at the current
  /// nesting level.
  void BeforeElement();

  std::ostream* out_;
  /// One entry per open container: number of elements emitted so far.
  std::vector<std::size_t> counts_;
  bool after_key_ = false;
};

/// Canonical location of a bench report: "BENCH_<name>.json" in the current
/// working directory (benches run from the repo root, so reports line up
/// with the committed trajectory files).
std::string BenchReportPath(const std::string& name);

/// Writes the shared bench-report schema to BenchReportPath(name):
///   { "benchmark": <name>, "schema_version": 4,
///     "git_sha": ..., "build_type": ..., "kernel_dispatch": ...,
///     ...body fields... }
/// Schema v2 added the attribution fields (commit, CMAKE_BUILD_TYPE, active
/// min-plus kernel backend); v3 widened kernel_dispatch to the tier names
/// and added a compiled-tier list, which v4 dropped again: the backend is
/// chosen by cpuid alone, so kernel_dispatch ("scalar|avx2|avx512") says
/// all there is. Readers that ignore unknown fields are unaffected. `body`
/// receives the writer positioned inside the envelope object and adds its
/// fields via Field()/Key() + nested containers.
Status WriteBenchReport(const std::string& name,
                        const std::function<void(JsonWriter&)>& body);

/// Same schema, explicit destination (for benches exposing a --report=PATH
/// flag). WriteBenchReport(name, body) is this with BenchReportPath(name).
Status WriteBenchReportToFile(const std::string& path, const std::string& name,
                              const std::function<void(JsonWriter&)>& body);

}  // namespace ifls

#endif  // IFLS_BENCHLIB_JSON_REPORT_H_
