// flitbench: runs one benchmark workload in this process and prints its
// result as one JSON line (the last line of stdout).  Human-readable
// detail -- every metric with its unit, check failures, the traced run's
// layer table -- goes to stderr.
//
//   flitbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --state-dir <dir>
//
// Workloads: blame-table1, serve-mixed, injection-campaign.
// See perfbench/README.md for what each measures and why.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.h"

using namespace flitbench;

namespace {

std::uint64_t parse_u64(const char* flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '\0' || s[0] == '-' || *end != '\0') {
    throw std::invalid_argument(std::string(flag) + ": not a number: " + s);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64("--seed", v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64("--seconds", v));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64("--trace", v);
      if (t > 1) throw std::invalid_argument("--trace: expected 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--state-dir") {
      a.state_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (a.state_dir.empty()) throw std::invalid_argument("--state-dir missing");
  if (a.seconds < 1.0) throw std::invalid_argument("--seconds: at least 1");
  return a;
}

void print_result(const Result& r, bool trace) {
  // The traced run reports exactly the per-layer set (0 where a layer is
  // not measured on this workload); the untraced run its end-to-end set.
  std::map<std::string, Metric> out;
  if (trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = r.metrics.find(name);
      out[name] = Metric{it == r.metrics.end() ? 0.0 : it->second.value, unit};
    }
  } else {
    out = r.metrics;
  }
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-44s %16.6f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  // fail_rate is carried by the result line's attempted and failed, not
  // as a metric: it reads 0 on a correct run.
  std::fprintf(stderr,
               "  %-44s %16llu\n  %-44s %16llu\n  %-44s %16.6f ratio\n",
               "attempted", static_cast<unsigned long long>(r.attempted),
               "failed", static_cast<unsigned long long>(r.failed),
               "fail_rate",
               static_cast<double>(r.failed) /
                   static_cast<double>(r.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : out) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.state_dir);
    register_bundled_tests();

    static const std::map<std::string, void (*)(const Args&, Result&,
                                                Spans&)>
        workloads = {{"blame-table1", run_blame},
                     {"serve-mixed", run_serve},
                     {"injection-campaign", run_injection}};
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }

    Result r;
    Spans spans;
    it->second(args, r, spans);
    if (r.attempted == 0) throw std::runtime_error("no operation attempted");
    check_link_set(r);

    if (args.trace) {
      const std::string path =
          args.state_dir + "/spans-" + args.workload + ".jsonl";
      spans.write(path);
      std::fprintf(stderr, "flitbench: %zu spans written to %s\n",
                   spans.size(), path.c_str());
      std::fprintf(stderr, "  %-28s %8s %12s %12s\n", "span", "calls",
                   "busy_s", "self_s");
      for (const std::string& name : spans.names()) {
        std::fprintf(stderr, "  %-28s %8zu %12.6f %12.6f\n", name.c_str(),
                     spans.durations(name).size(), spans.busy_s(name),
                     spans.self_s(name));
      }
    }
    print_result(r, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flitbench: error: %s\n", e.what());
    return 2;
  }
}
