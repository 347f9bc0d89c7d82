// ifls_perfbench: runs one workload of the repo benchmark and prints one
// JSON report line. perfbench/run.py builds this binary and turns the report
// into the benchmark's result line; see perfbench/README.md.
//
//   ifls_perfbench --workload paper_mc|serve_mc|churn_mzb --seed N
//                  --seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]
//   ifls_perfbench --sweep            (the counter sweep alone)

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/src/util.h"
#include "perfbench/src/workloads.h"
#include "src/common/logging.h"
#include "src/index/minplus_kernels.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::cerr << "ifls_perfbench: " << why << "\n"
            << "usage: ifls_perfbench --workload paper_mc|serve_mc|churn_mzb "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA]\n"
               "       ifls_perfbench --sweep\n";
  return 2;
}

// The root span each workload's end-to-end operation is recorded under.
const char* RootSpanOf(const std::string& workload) {
  return workload == "serve_mc" ? "e2e.rpc" : "e2e.query";
}

void AddTraceMetrics(const RunConfig& config, Report* report) {
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  const SelfTimes self = ComputeSelfTimes(spans, RootSpanOf(config.workload));
  for (const char* layer : {"loadgen", "net", "service", "core"}) {
    const auto it = self.layer_ms_per_op.find(layer);
    report->metrics[std::string("trace.self_ms.") + layer] =
        it == self.layer_ms_per_op.end() ? 0.0 : it->second;
  }
  report->metrics["trace.residual_ms_p50"] = self.residual_p50_ms;
  report->info["trace.spans"] = static_cast<double>(spans.size());
  report->info["trace.roots"] = static_cast<double>(self.roots);
  const std::string path =
      config.work_dir + "/spans_" + config.workload + ".json";
  if (!WriteSpans(spans, path)) {
    report->Check(false, "writing " + path);
  } else {
    report->envelope["spans_file"] = path;
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool sweep_only = false;
  bool have_workload = false;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  ifls::SetLogLevel(ifls::LogLevel::kWarning);

  Report report;
  if (sweep_only) {
    RunSweep(&report);
    std::cout << ReportToJson(report) << std::endl;
    return 0;
  }
  if (!have_workload) return Usage("--workload is required");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  std::filesystem::create_directories(config.work_dir);

  const Calibration calibration = CalibrateHost();
  auto& env = report.envelope;
  env["workload"] = config.workload;
  env["seed"] = std::to_string(config.seed);
  env["seconds"] = std::to_string(config.seconds);
  env["trace"] = config.trace ? "1" : "0";
  env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["kernel_tier"] = ifls::kernels::ActiveKernelName();
  env["git_sha"] = git_sha;
  env["generator_priority"] = GeneratorPriority().name();
  report.info["host.spin_mops_1t"] = calibration.spin_mops_1t;
  report.info["host.parallel_efficiency_4t"] = calibration.parallel_efficiency_4t;

  if (config.trace) Tracer::Get().Enable();
  if (config.workload == "paper_mc") {
    RunPaperMc(config, &report);
  } else if (config.workload == "serve_mc") {
    RunServeMc(config, &report);
  } else if (config.workload == "churn_mzb") {
    RunChurnMzb(config, &report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  if (config.trace) {
    Tracer::Get().Disable();
    AddTraceMetrics(config, &report);
    RunSweep(&report);
    report.metrics["failed_frac"] =
        static_cast<double>(report.failed) /
        static_cast<double>(std::max<std::int64_t>(1, report.attempted));
  } else {
    report.metrics["peak_rss_mib"] = PeakRssMib();
  }
  std::cout << ReportToJson(report) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
