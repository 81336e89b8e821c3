// main.cpp — perfbench: one workload per process.
//
//   perfbench --workload serve|simulate|place --seed N --seconds S
//             --trace 0|1 --scratch DIR
//   perfbench --selftest --scratch DIR
//
// Prints a human-readable metric table on stderr and, on stdout, a
// configuration line followed by the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// and writes the span trace into DIR. Exit status 0 when every output
// was correct, 1 when some operation failed, 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "obs/registry.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|simulate|place "
               "--seed N --seconds S --trace 0|1 --scratch DIR\n"
               "       perfbench --selftest --scratch DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--scratch") {
      opt.scratch = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  try {
    std::filesystem::create_directories(opt.scratch);
    if (selftest) return run_selftest(opt) == 0 ? 0 : 1;

    Result res;
    if (opt.workload == "serve") {
      res = run_serve(opt);
    } else if (opt.workload == "simulate") {
      res = run_simulate(opt);
    } else if (opt.workload == "place") {
      res = run_place(opt);
    } else {
      return usage("--workload must be serve, simulate or place");
    }

    std::string config = "{\"config\": {\"workload\": " + json_string(opt.workload) +
                         ", \"seed\": " + std::to_string(opt.seed) +
                         ", \"seconds\": " + number(opt.seconds) +
                         ", \"trace\": " + (opt.trace ? "1" : "0") +
                         ", \"nproc\": " + std::to_string(hardware_threads()) +
                         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                         ", \"obs_compiled_in\": " +
                         (geochoice::obs::compiled_in() ? "true" : "false");
    for (const auto& [key, value] : res.config) {
      config += ", " + json_string(key) + ": " + json_string(value);
    }
    if (!res.trace_file.empty()) {
      config += ", \"trace_file\": " + json_string(res.trace_file);
    }
    config += "}}";

    std::fprintf(stderr, "\nperfbench %s (%s)\n", opt.workload.c_str(),
                 opt.trace ? "per-layer, traced" : "end-to-end");
    std::string metrics;
    for (const Metric& m : res.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
        return 2;
      }
      std::fprintf(stderr, "  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
      metrics += std::string(metrics.empty() ? "" : ", ") + json_string(m.name) +
                 ": {\"value\": " + number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::fprintf(stderr, "  attempted %llu, failed %llu\n",
                 static_cast<unsigned long long>(res.attempted),
                 static_cast<unsigned long long>(res.failed));
    const bool correct = res.failed == 0 && res.attempted > 0;
    std::printf("%s\n", config.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
