#pragma once

// Shared pieces of flitbench, the benchmark binary: the command line, the
// timed round loop, the in-memory span recorder of the traced run, output
// checks, and the one-line JSON result.
//
// Every workload follows one shape.  A round is one unit of the
// workload's real work (a whole study, a whole campaign, a whole request
// stream); it is preceded by the set-up a user pays before that work
// (building the space, running the enumerating study, parsing the
// stream), and both are timed separately.  Rounds repeat until the
// requested seconds of round time have passed, so a run measures several
// cold set-ups and several whole units of work.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace flitbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  ///< working files (serve state, span dump)
};

/// Seconds on the monotonic clock since an arbitrary process epoch.
[[nodiscard]] double now_s();

/// Quantile by linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Registers the applications tools/flit registers, under the same
/// names, so the benchmark resolves tests (and links the same objects
/// into the code model) exactly as the CLI does.
void register_bundled_tests();

/// Spans around the benchmark's calls into the layers.  Recording is off
/// in the untraced run; a Scope then costs one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Durations (seconds) of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of those durations.
  [[nodiscard]] double busy_s(const std::string& name) const;
  /// Busy time minus the part covered by child spans.
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span as one JSON line (name, start, end, parent);
  /// throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// A named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The outcome of one run: counted operations, failed checks, metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one output check: `ops` operations depend on it and all of
  /// them count as failed when it does not hold.  Mismatches are
  /// described on stderr with the expected and the computed value.
  void check(bool ok, std::uint64_t ops, const std::string& what);
  void check_eq(const std::string& what, const std::string& expected,
                const std::string& got, std::uint64_t ops);
  void check_eq(const std::string& what, long long expected, long long got,
                std::uint64_t ops);
};

/// Checks that this binary links what tools/flit links: File Bisect
/// searches every file of fpsem::global_code_model(), which each linked
/// application fills from static initialisers, so the pinned blame
/// answers hold only for that code model.  Pins its files and functions,
/// in registration order.
void check_link_set(Result& r);

/// Items and seconds of a set of timed rounds.
struct Rounds {
  std::size_t count = 0;
  std::uint64_t items = 0;
  double seconds = 0.0;      ///< wall time as measured
  double ref_seconds = 0.0;  ///< the same, restated at the reference speed

  /// `host_scale` is how much slower than the reference the host ran
  /// the round (kernel seconds over kReferenceKernelS).
  void add(std::uint64_t round_items, double round_s, double host_scale) {
    ++count;
    items += round_items;
    seconds += round_s;
    ref_seconds += round_s / host_scale;
  }
  /// Items finished per second of round time, as measured.
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  }
  /// Items finished per second at the reference host speed.
  [[nodiscard]] double ref_rate() const {
    return ref_seconds > 0.0 ? static_cast<double>(items) / ref_seconds
                             : 0.0;
  }
};

/// Timings of a round loop.
struct Loop {
  std::vector<double> setup_s;      ///< every set-up, cold, as measured
  std::vector<double> setup_ref_s;  ///< the same at the reference speed
  std::vector<double> host_scale;   ///< of every set-up batch and round
  Rounds plain;                     ///< rounds run with span recording off
  Rounds traced;                    ///< rounds run with it on (traced run)

  [[nodiscard]] std::size_t rounds() const {
    return plain.count + traced.count;
  }
  [[nodiscard]] std::uint64_t items() const {
    return plain.items + traced.items;
  }
  /// Reference-speed items_per_s of the plain rounds over that of the
  /// traced rounds (1 = tracing costs nothing; 1 without traced rounds).
  [[nodiscard]] double overhead_ratio() const {
    return traced.count == 0 ? 1.0 : plain.ref_rate() / traced.ref_rate();
  }
};

/// Runs set-up then a round, repeatedly, until `seconds` of round time
/// have passed (at least one round).  Each round's set-up is performed
/// `setup_reps` times, every repetition cold and timed, and the last one
/// feeds the round; short set-ups are repeated so that their median is
/// taken over many samples spread across the whole run.  Whenever fewer
/// than three set-ups were timed, more follow the last round.  `round`
/// returns the items it finished.
///
/// Set-ups are serial, and so is the round when `serial_round` is set:
/// each such phase is pinned to the vCPU that is fastest when it starts
/// (see host_probe.h), and the host's speed over it is the kernel's time
/// there at its start and its end.  A parallel round runs on every vCPU,
/// and the host's speed over it is the kernel's mean time over them at
/// its start and its end.
///
/// When `spans` is enabled (the traced run), every second round runs
/// with span recording off, so the tracing overhead is measured against
/// plain rounds of the same process; that run has at least two rounds.
void run_loop(double seconds, int setup_reps, bool serial_round,
              Spans& spans, const std::function<void()>& setup,
              const std::function<std::uint64_t()>& round, Loop& loop);

/// The end-to-end metrics every workload reports (see perfbench/README.md).
/// items_per_s and setup_s are stated at the reference host speed; the
/// measured values and the host scale go to stderr.
void end_to_end(Result& r, const Loop& loop, double real_executions);

/// The per-layer metric names of the traced run, with units, in output
/// order.  A traced run reports every one of them; a layer the workload
/// does not exercise (or that cannot be reached from outside the engine
/// on that workload) reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Fills span-derived metrics of a layer: calls, busy seconds and
/// p50/p99 of the call durations in `scale` units (1e6 = us, 1e3 = ms).
void layer_timing(Result& r, const Spans& spans, const std::string& span,
                  const std::string& prefix, double scale,
                  const std::string& unit);

/// The obs::metrics() counter `name` (0 when never registered).
[[nodiscard]] std::uint64_t counter(const std::string& name);

/// Workload entry points.  Each runs the workload for args.seconds,
/// checks its outputs, and fills `r` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced, recording into `spans`).
void run_blame(const Args& args, Result& r, Spans& spans);
void run_serve(const Args& args, Result& r, Spans& spans);
void run_injection(const Args& args, Result& r, Spans& spans);

}  // namespace flitbench
