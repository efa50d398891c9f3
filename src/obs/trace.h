#pragma once

// The tracing half of the observability subsystem (src/obs): an RAII span
// tracer with per-thread buffered sinks and a deterministic merge.
//
// Wall-clock time is useless for a reproducibility engine -- the same
// study runs with different timings at every --jobs count -- so spans do
// not record it.  Instead each event carries the *identity* of the work it
// measures: the (shard, space-index, attempt) stamp of the study item it
// ran under, item-local begin/end ticks (a logical clock that advances at
// every span open and close, so nesting is reconstructible), and the
// modeled-cycle cost the simulated toolchain attributes to the span.  All
// of that is a pure function of the study's configuration, never of
// scheduling: drain_sorted() orders events by (shard, index, attempt,
// ticks) and the resulting stream is bitwise-identical at any --jobs count
// and across reruns.
//
// Threading model: each thread appends to its own buffer (registered with
// the tracer under a mutex on first use; appends are lock-free
// thereafter).  drain_sorted() must only run at a quiescent point -- after
// the pools have joined, which every engine call guarantees before it
// returns.  Stamps are thread-local, installed by the RAII ScopedItem
// exactly where the engines install FaultInjector::ScopedTrial.
//
// Telemetry is strictly off the result path: a disabled tracer makes Span
// construction a pointer check, and nothing here feeds back into outcomes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace flit::obs {

/// Index stamp for events outside any study item (anchor runs, phase
/// spans); sorts after every real space index.
inline constexpr std::uint64_t kNoIndex = ~0ULL;

struct TraceEvent {
  std::string name;    ///< span name ("build", "link", "run", ...)
  std::string phase;   ///< pipeline phase ("explore", "bisect", ...)
  std::string detail;  ///< free-form (compilation triple, test name, ...)
  int shard = 0;
  std::uint64_t index = kNoIndex;  ///< global space index (kNoIndex = none)
  int attempt = 0;
  std::uint32_t begin_tick = 0;  ///< item-local logical open time
  std::uint32_t end_tick = 0;    ///< item-local logical close time
  double cost = 0.0;             ///< modeled cycles attributed to the span

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// The deterministic event order: lexicographic on (shard, index, attempt,
/// begin_tick, end_tick, name, phase, detail, cost) -- every field, so
/// events that differ only in cost (two serve requests' spans at one
/// lane-relative index) still drain in one order.
[[nodiscard]] bool trace_event_less(const TraceEvent& a, const TraceEvent& b);

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer (registered on first use).
  void record(TraceEvent e);

  /// Collects every thread buffer, sorts deterministically
  /// (trace_event_less), and clears the tracer.  Call only at a quiescent
  /// point: no concurrent record() (engine entry points return after
  /// their pools join, so "after the study call" is always safe).
  [[nodiscard]] std::vector<TraceEvent> drain_sorted();

 private:
  struct Buffer {
    std::vector<TraceEvent> events;
  };

  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> id_;  ///< unique per tracer epoch (trace.cpp)
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The thread-local stamp spans inherit.
struct ItemContext {
  int shard = 0;
  std::uint64_t index = kNoIndex;
  int attempt = 0;
  std::uint32_t tick = 0;  ///< item-local logical clock
};

[[nodiscard]] const ItemContext& current_item();

/// RAII stamp for one study item (or one attempt of it): saves the
/// calling thread's context, installs (shard, index, attempt) with a fresh
/// tick clock, and restores the previous context on destruction.  Install
/// it exactly where the retrying caller installs ScopedTrial.
class ScopedItem {
 public:
  ScopedItem(int shard, std::uint64_t index, int attempt);
  ~ScopedItem();
  ScopedItem(const ScopedItem&) = delete;
  ScopedItem& operator=(const ScopedItem&) = delete;

 private:
  ItemContext prev_;
};

/// An RAII span: opens on construction (claiming a begin tick), records a
/// TraceEvent stamped with the current ItemContext on destruction.  A null
/// tracer (or a disabled one) makes the span inert -- construction is a
/// branch, destruction a no-op.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string phase,
       std::string detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attributes modeled cycles to the span (e.g. the run's cycle count).
  void set_cost(double cycles) { ev_.cost = cycles; }

 private:
  Tracer* tracer_;  ///< null: inert span
  TraceEvent ev_;
};

}  // namespace flit::obs
