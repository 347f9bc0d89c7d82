#include "src/benchlib/json_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/index/minplus_kernels.h"

// Build attribution, injected per-source by src/CMakeLists.txt.
#ifndef IFLS_GIT_SHA
#define IFLS_GIT_SHA "unknown"
#endif
#ifndef IFLS_BUILD_TYPE
#define IFLS_BUILD_TYPE ""
#endif

namespace ifls {
namespace {

void EscapeTo(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

JsonWriter::JsonWriter(std::ostream* out) : out_(out) {}

void JsonWriter::Indent() {
  for (std::size_t i = 0; i < counts_.size(); ++i) *out_ << "  ";
}

void JsonWriter::BeforeElement() {
  if (after_key_) {
    after_key_ = false;
    return;  // the key already placed us
  }
  if (counts_.empty()) return;  // root value
  if (counts_.back() > 0) *out_ << ',';
  *out_ << '\n';
  Indent();
  ++counts_.back();
}

void JsonWriter::BeginObject() {
  BeforeElement();
  *out_ << '{';
  counts_.push_back(0);
}

void JsonWriter::EndObject() {
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  if (!empty) {
    *out_ << '\n';
    Indent();
  }
  *out_ << '}';
}

void JsonWriter::BeginArray() {
  BeforeElement();
  *out_ << '[';
  counts_.push_back(0);
}

void JsonWriter::EndArray() {
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  if (!empty) {
    *out_ << '\n';
    Indent();
  }
  *out_ << ']';
}

void JsonWriter::Key(const std::string& name) {
  if (counts_.back() > 0) *out_ << ',';
  *out_ << '\n';
  Indent();
  ++counts_.back();
  EscapeTo(*out_, name);
  *out_ << ": ";
  after_key_ = true;
}

void JsonWriter::Value(double v) {
  BeforeElement();
  if (!std::isfinite(v)) {
    *out_ << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out_ << buf;
}

void JsonWriter::Value(std::int64_t v) {
  BeforeElement();
  *out_ << v;
}

void JsonWriter::Value(std::uint64_t v) {
  BeforeElement();
  *out_ << v;
}

void JsonWriter::Value(bool v) {
  BeforeElement();
  *out_ << (v ? "true" : "false");
}

void JsonWriter::Value(const std::string& v) {
  BeforeElement();
  EscapeTo(*out_, v);
}

std::string BenchReportPath(const std::string& name) {
  return "BENCH_" + name + ".json";
}

Status WriteBenchReport(const std::string& name,
                        const std::function<void(JsonWriter&)>& body) {
  return WriteBenchReportToFile(BenchReportPath(name), name, body);
}

Status WriteBenchReportToFile(const std::string& path, const std::string& name,
                              const std::function<void(JsonWriter&)>& body) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  JsonWriter w(&out);
  w.BeginObject();
  w.Field("benchmark", name);
  w.Field("schema_version", std::int64_t{4});
  // Attribution envelope (schema v2; v4 dropped the v3 compiled-tier list):
  // which commit, build flavor and kernel backend produced the numbers, so
  // archived BENCH_*.json artifacts stay comparable. kernel_dispatch is the
  // backend dispatch selected ("scalar|avx2|avx512").
  w.Field("git_sha", IFLS_GIT_SHA);
  w.Field("build_type", IFLS_BUILD_TYPE);
  w.Field("kernel_dispatch", kernels::ActiveKernelName());
  body(w);
  w.EndObject();
  out << '\n';
  out.flush();
  if (!out) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace ifls
