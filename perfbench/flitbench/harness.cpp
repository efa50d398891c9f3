#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/registry.h"
#include "fpsem/code_model.h"
#include "geom/predicates.h"
#include "host_probe.h"
#include "laghos/hydro.h"
#include "lulesh/domain.h"
#include "mfemini/examples.h"
#include "obs/session.h"
#include "par/study.h"

namespace flitbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void register_bundled_tests() {
  using namespace flit;
  auto& reg = core::global_test_registry();
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    reg.add("MFEM_ex" + std::to_string(ex), [ex] {
      return std::unique_ptr<core::TestBase>(
          std::make_unique<mfemini::MfemExampleTest>(ex));
    });
  }
  reg.add("Laghos", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<laghos::LaghosTest>());
  });
  reg.add("LULESH", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<lulesh::LuleshTest>());
  });
  reg.add("GeomHull", [] {
    return std::unique_ptr<core::TestBase>(std::make_unique<geom::HullTest>());
  });
  reg.add("ParPoisson", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<par::ParallelPoissonTest>(24, 4));
  });
}

void check_link_set(Result& r) {
  // The code model of tools/flit's link set.
  constexpr const char* kLinkSet =
      "26 files, 112 functions, f32445ea3775aacf";
  const flit::fpsem::CodeModel& m = flit::fpsem::global_code_model();
  std::string bytes;
  for (const std::string& f : m.files()) bytes += f + "\n";
  for (flit::fpsem::FunctionId id = 0; id < m.function_count(); ++id) {
    const flit::fpsem::FunctionInfo& fi = m.info(id);
    bytes += fi.name + "|" + fi.file + "|" + fi.host_symbol + "|" +
             (fi.exported ? "e" : "-") + (fi.uses_libm ? "l" : "-") +
             (fi.inline_candidate ? "i" : "-") + "\n";
  }
  r.attempted += 1;
  r.check_eq("link set", kLinkSet,
             std::to_string(m.files().size()) + " files, " +
                 std::to_string(m.function_count()) + " functions, " +
                 digest(bytes),
             1);
}

// --- Spans ---------------------------------------------------------------

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.enabled_) return;
  id_ = static_cast<int>(spans_.spans_.size());
  spans_.spans_.push_back(Span{name, now_s(), 0.0, spans_.open_});
  spans_.open_ = id_;
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  Span& s = spans_.spans_[static_cast<std::size_t>(id_)];
  s.end = now_s();
  spans_.open_ = s.parent;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Spans::busy_s(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

double Spans::self_s(const std::string& name) const {
  // Spans nest strictly (one thread, RAII scopes), so the children's
  // durations are disjoint sub-intervals of their parent.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      sum += spans_[i].end - spans_[i].start - child[i];
    }
  }
  return sum;
}

std::vector<std::string> Spans::names() const {
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) {
      out.push_back(s.name);
    }
  }
  return out;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d}\n",
                  s.name.c_str(), s.start, s.end, s.parent);
    out << buf;
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// --- Result --------------------------------------------------------------

void Result::check(bool ok, std::uint64_t ops, const std::string& what) {
  if (ok) return;
  failed += ops;
  std::fprintf(stderr, "flitbench: CHECK FAILED: %s\n", what.c_str());
}

void Result::check_eq(const std::string& what, const std::string& expected,
                      const std::string& got, std::uint64_t ops) {
  check(expected == got, ops,
        what + ": expected " + expected + ", got " + got);
}

void Result::check_eq(const std::string& what, long long expected,
                      long long got, std::uint64_t ops) {
  check_eq(what, std::to_string(expected), std::to_string(got), ops);
}

// --- Round loop and end-to-end metrics -----------------------------------

void run_loop(double seconds, int setup_reps, bool serial_round,
              Spans& spans, const std::function<void()>& setup,
              const std::function<std::uint64_t()>& round, Loop& loop) {
  const bool trace = spans.enabled();
  CpuPlacement cpus;
  // The kernel's seconds where a phase runs, at its start and its end.
  const auto begin_phase = [&](bool serial) {
    return serial ? cpus.pin_fastest() : cpus.sample_all();
  };
  const auto end_phase = [&](bool serial, double begin) {
    const double k = serial ? cpus.sample() : cpus.sample_all();
    const double scale = (begin + k) / 2.0 / kReferenceKernelS;
    loop.host_scale.push_back(scale);
    return scale;
  };
  const auto timed_setups = [&](int reps) {
    const double k0 = begin_phase(true);
    std::vector<double> batch;
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      setup();
      batch.push_back(now_s() - t0);
    }
    const double scale = end_phase(true, k0);
    for (const double s : batch) {
      loop.setup_s.push_back(s);
      loop.setup_ref_s.push_back(s / scale);
    }
  };
  double spent = 0.0;
  do {
    timed_setups(setup_reps);
    const bool traced = trace && loop.rounds() % 2 == 1;
    const double k0 = begin_phase(serial_round);
    spans.set_enabled(traced);
    const double t0 = now_s();
    const std::uint64_t items = round();
    const double dt = now_s() - t0;
    spans.set_enabled(trace);
    const double scale = end_phase(serial_round, k0);
    (traced ? loop.traced : loop.plain).add(items, dt, scale);
    spent += dt;
    std::fprintf(stderr,
                 "flitbench: round %zu: %llu items in %.4f s, host scale "
                 "%.3f\n",
                 loop.rounds(), static_cast<unsigned long long>(items), dt,
                 scale);
    // The traced run needs a traced round to state its overhead.
  } while (spent < seconds || (trace && loop.traced.count == 0));
  if (loop.setup_s.size() < 3) {
    timed_setups(static_cast<int>(3 - loop.setup_s.size()));
  }
}

void end_to_end(Result& r, const Loop& loop, double real_executions) {
  r.set("items_per_s", loop.plain.ref_rate(), "1/s");
  r.set("setup_s", median(loop.setup_ref_s), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("real_executions", real_executions, "count");
  std::fprintf(stderr,
               "flitbench: %zu round(s), %zu set-up(s); host scale median "
               "%.4f (quartiles %.4f, %.4f); measured items_per_s %.6f, "
               "setup_s %.9f\n",
               loop.rounds(), loop.setup_s.size(), median(loop.host_scale),
               quantile(loop.host_scale, 0.25),
               quantile(loop.host_scale, 0.75), loop.plain.rate(),
               median(loop.setup_s));
}

// --- Per-layer metrics ---------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"toolchain.compile.busy_s", "s"},
      {"toolchain.compile.us_p50", "us"},
      {"toolchain.compile.us_p99", "us"},
      {"toolchain.cache.hit_ratio", "ratio"},
      {"toolchain.cache.misses", "count"},
      {"toolchain.cache.evictions", "count"},
      {"toolchain.link.calls", "count"},
      {"toolchain.link.busy_s", "s"},
      {"toolchain.link.us_p50", "us"},
      {"toolchain.link.us_p99", "us"},
      {"core.run.calls", "count"},
      {"core.run.busy_s", "s"},
      {"core.run.us_p50", "us"},
      {"core.run.us_p99", "us"},
      {"core.run.mcycles_per_s", "Mcycles/s"},
      {"core.run.crashes", "count"},
      {"core.compare.busy_s", "s"},
      {"core.explore.calls", "count"},
      {"core.explore.ms_p50", "ms"},
      {"core.explore.ms_p99", "ms"},
      {"core.explore.executed", "count"},
      {"core.resultsdb.records", "count"},
      {"core.resultsdb.busy_s", "s"},
      {"core.resultsdb.write_mb", "MB"},
      {"core.bisect.searches", "count"},
      {"core.bisect.ms_p50", "ms"},
      {"core.bisect.ms_p99", "ms"},
      {"core.bisect.executions", "count"},
      {"core.bisect.memo_hit_ratio", "ratio"},
      {"core.bisect.failed", "count"},
      {"core.injection.experiments", "count"},
      {"core.injection.executions_per_experiment", "count"},
      {"core.injection.enumerate_s", "s"},
      {"gen.kernels", "count"},
      {"gen.generate_s", "s"},
      {"blame.cell_executions", "count"},
      {"blame.pair_executions", "count"},
      {"blame.pair_real_executions", "count"},
      {"blame.pair_confirm_ratio", "ratio"},
      {"dist.claims", "count"},
      {"dist.steals", "count"},
      {"dist.stolen_items", "count"},
      {"serve.claims", "count"},
      {"serve.deduplicated", "count"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.ttfr_p50_s", "s"},
      {"serve.done_p50_s", "s"},
      {"serve.done_p90_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

void layer_timing(Result& r, const Spans& spans, const std::string& span,
                  const std::string& prefix, double scale,
                  const std::string& unit) {
  const std::vector<double> d = spans.durations(span);
  const std::string tag = unit == "us" ? ".us_p" : ".ms_p";
  r.set(prefix + ".calls", static_cast<double>(d.size()), "count");
  r.set(prefix + ".busy_s", spans.busy_s(span), "s");
  r.set(prefix + tag + "50", quantile(d, 0.50) * scale, unit);
  r.set(prefix + tag + "99", quantile(d, 0.99) * scale, unit);
}

std::uint64_t counter(const std::string& name) {
  return flit::obs::metrics().counter(name).value();
}

}  // namespace flitbench
