// Unit tests for the tracing half of src/obs: span lifecycle and nesting
// (tick reconstruction), ScopedItem stamping, the inertness of disabled
// tracers, and the determinism of drain_sorted() under multi-threaded
// recording.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/trace.h"

namespace {

using namespace flit;

obs::TraceEvent only_event(obs::Tracer& t) {
  const auto events = t.drain_sorted();
  EXPECT_EQ(events.size(), 1u);
  return events.empty() ? obs::TraceEvent{} : events.front();
}

TEST(Span, RecordsStampAndTicks) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::ScopedItem item(3, 17, 2);
    obs::Span span(&tracer, "build", "explore", "g++ -O2");
    span.set_cost(123.5);
  }
  const obs::TraceEvent e = only_event(tracer);
  EXPECT_EQ(e.name, "build");
  EXPECT_EQ(e.phase, "explore");
  EXPECT_EQ(e.detail, "g++ -O2");
  EXPECT_EQ(e.shard, 3);
  EXPECT_EQ(e.index, 17u);
  EXPECT_EQ(e.attempt, 2);
  EXPECT_EQ(e.begin_tick, 0u);
  EXPECT_EQ(e.end_tick, 1u);
  EXPECT_EQ(e.cost, 123.5);
}

TEST(Span, NestingIsReconstructibleFromTicks) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::ScopedItem item(0, 5, 0);
    obs::Span outer(&tracer, "outer", "p");
    {
      obs::Span inner1(&tracer, "inner1", "p");
    }
    {
      obs::Span inner2(&tracer, "inner2", "p");
    }
  }
  auto events = tracer.drain_sorted();
  ASSERT_EQ(events.size(), 3u);
  // drain order: sorted by begin tick -- outer (0), inner1 (1), inner2 (3).
  const obs::TraceEvent& outer = events[0];
  const obs::TraceEvent& inner1 = events[1];
  const obs::TraceEvent& inner2 = events[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner1.name, "inner1");
  EXPECT_EQ(inner2.name, "inner2");
  // Containment: outer's [begin, end) interval covers both inner spans,
  // and the siblings do not overlap.
  EXPECT_LT(outer.begin_tick, inner1.begin_tick);
  EXPECT_GT(outer.end_tick, inner2.end_tick);
  EXPECT_LT(inner1.end_tick, inner2.begin_tick);
}

TEST(Span, NullOrDisabledTracerIsInert) {
  obs::Span null_span(nullptr, "a", "b");  // must not crash

  obs::Tracer tracer;  // disabled by default
  {
    obs::Span span(&tracer, "a", "b");
  }
  EXPECT_TRUE(tracer.drain_sorted().empty());

  // Enabling after construction must not resurrect the span: the decision
  // is taken at open time so begin/end ticks stay consistent.
  {
    obs::Span span(&tracer, "late", "b");
    tracer.set_enabled(true);
  }
  EXPECT_TRUE(tracer.drain_sorted().empty());
  tracer.set_enabled(false);
}

TEST(ScopedItem, SavesAndRestoresTheContext) {
  EXPECT_EQ(obs::current_item().index, obs::kNoIndex);
  {
    obs::ScopedItem outer(1, 10, 0);
    EXPECT_EQ(obs::current_item().shard, 1);
    EXPECT_EQ(obs::current_item().index, 10u);
    {
      obs::ScopedItem inner(2, 20, 3);
      EXPECT_EQ(obs::current_item().shard, 2);
      EXPECT_EQ(obs::current_item().index, 20u);
      EXPECT_EQ(obs::current_item().attempt, 3);
    }
    // Restored, including the outer tick clock.
    EXPECT_EQ(obs::current_item().shard, 1);
    EXPECT_EQ(obs::current_item().index, 10u);
  }
  EXPECT_EQ(obs::current_item().index, obs::kNoIndex);
}

TEST(ScopedItem, FreshTickClockPerItem) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  for (std::uint64_t idx : {7u, 8u}) {
    obs::ScopedItem item(0, idx, 0);
    obs::Span span(&tracer, "run", "p");
  }
  const auto events = tracer.drain_sorted();
  ASSERT_EQ(events.size(), 2u);
  // Both items start their local clock at zero.
  EXPECT_EQ(events[0].begin_tick, 0u);
  EXPECT_EQ(events[1].begin_tick, 0u);
  EXPECT_EQ(events[0].index, 7u);
  EXPECT_EQ(events[1].index, 8u);
}

TEST(Tracer, DrainedStreamIsIdenticalAcrossThreadAssignments) {
  // The same logical work recorded under different thread partitions must
  // drain to the same event stream -- the property that makes traces
  // comparable across --jobs counts.
  const auto record_item = [](obs::Tracer& t, int shard, std::uint64_t idx) {
    obs::ScopedItem item(shard, idx, 0);
    obs::Span outer(&t, "compilation", "explore");
    obs::Span inner(&t, "run", "explore");
    inner.set_cost(static_cast<double>(idx) * 10.0);
  };

  obs::Tracer serial;
  serial.set_enabled(true);
  for (std::uint64_t i = 0; i < 16; ++i) {
    record_item(serial, static_cast<int>(i % 2), i);
  }
  const auto expected = serial.drain_sorted();

  obs::Tracer threaded;
  threaded.set_enabled(true);
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&threaded, w, &record_item] {
      // Interleave items across threads in a scattered order.
      for (std::uint64_t i = static_cast<std::uint64_t>(w); i < 16; i += 4) {
        const std::uint64_t idx = 15 - i;  // scattered, reversed order
        record_item(threaded, static_cast<int>(idx % 2), idx);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(threaded.drain_sorted(), expected);
}

TEST(Tracer, DrainClearsAndEpochInvalidatesCachedBuffers) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span span(&tracer, "one", "p");
  }
  EXPECT_EQ(tracer.drain_sorted().size(), 1u);
  EXPECT_TRUE(tracer.drain_sorted().empty());

  // Recording from this same thread after a drain must land in a fresh
  // buffer (the epoch bump invalidated the cached pointer).
  {
    obs::Span span(&tracer, "two", "p");
  }
  const auto events = tracer.drain_sorted();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "two");
}

TEST(Tracer, EventOrderIsLexicographicOnTheStamp) {
  obs::TraceEvent a;
  a.shard = 0;
  a.index = 2;
  obs::TraceEvent b;
  b.shard = 1;
  b.index = 1;
  EXPECT_TRUE(obs::trace_event_less(a, b));  // shard dominates

  obs::TraceEvent no_index;
  no_index.shard = 0;
  no_index.index = obs::kNoIndex;
  EXPECT_TRUE(obs::trace_event_less(a, no_index));  // kNoIndex sorts last
}

TEST(Tracer, EventsDifferingOnlyInCostDrainInOneOrder) {
  // Two serve requests' spans at one lane-relative item index share the
  // whole stamp and differ only in cost; their drain order must not
  // depend on which was recorded first.
  const auto record = [](obs::Tracer& t, double cost) {
    obs::ScopedItem item(0, 32, 0);
    obs::Span span(&t, "run", "explore", "g++ -O1 -mavx");
    span.set_cost(cost);
  };
  obs::Tracer first;
  obs::Tracer second;
  first.set_enabled(true);
  second.set_enabled(true);
  record(first, 2.0e6);
  record(first, 1.0e6);
  record(second, 1.0e6);
  record(second, 2.0e6);
  const auto drained = first.drain_sorted();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained, second.drain_sorted());
  EXPECT_LT(drained[0].cost, drained[1].cost);
}

}  // namespace
