#include "obs/trace.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace flit::obs {

namespace {

thread_local ItemContext tl_item;  // NOLINT(cert-err58-cpp)

/// Monotone tracer-epoch ids: a thread's cached buffer pointer is only
/// reused while (tracer, epoch) match, so a drained or destroyed tracer
/// can never hand a stale buffer to a long-lived pool worker.
std::atomic<std::uint64_t> g_tracer_epoch{1};

struct LocalSlot {
  const void* owner = nullptr;
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot tl_slot;

}  // namespace

bool trace_event_less(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.shard, a.index, a.attempt, a.begin_tick, a.end_tick,
                  a.name, a.phase, a.detail, a.cost) <
         std::tie(b.shard, b.index, b.attempt, b.begin_tick, b.end_tick,
                  b.name, b.phase, b.detail, b.cost);
}

Tracer::Tracer() : id_(g_tracer_epoch.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::Buffer& Tracer::local_buffer() {
  const std::uint64_t epoch = id_.load(std::memory_order_acquire);
  if (tl_slot.owner == this && tl_slot.epoch == epoch) {
    return *static_cast<Buffer*>(tl_slot.buffer);
  }
  std::lock_guard lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buf = buffers_.back().get();
  tl_slot = {this, epoch, buf};
  return *buf;
}

void Tracer::record(TraceEvent e) {
  local_buffer().events.push_back(std::move(e));
}

std::vector<TraceEvent> Tracer::drain_sorted() {
  std::vector<std::unique_ptr<Buffer>> taken;
  {
    std::lock_guard lock(mu_);
    taken.swap(buffers_);
  }
  // Invalidate every thread's cached pointer into the taken buffers; the
  // epoch bump forces re-registration on the next record().
  id_.store(g_tracer_epoch.fetch_add(1), std::memory_order_release);

  std::vector<TraceEvent> events;
  for (auto& buf : taken) {
    events.insert(events.end(),
                  std::make_move_iterator(buf->events.begin()),
                  std::make_move_iterator(buf->events.end()));
  }
  std::sort(events.begin(), events.end(), trace_event_less);
  return events;
}

const ItemContext& current_item() { return tl_item; }

ScopedItem::ScopedItem(int shard, std::uint64_t index, int attempt)
    : prev_(tl_item) {
  tl_item = ItemContext{shard, index, attempt, 0};
}

ScopedItem::~ScopedItem() { tl_item = prev_; }

Span::Span(Tracer* tracer, std::string name, std::string phase,
           std::string detail)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  ev_.name = std::move(name);
  ev_.phase = std::move(phase);
  ev_.detail = std::move(detail);
  ev_.shard = tl_item.shard;
  ev_.index = tl_item.index;
  ev_.attempt = tl_item.attempt;
  ev_.begin_tick = tl_item.tick++;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  ev_.end_tick = tl_item.tick++;
  tracer_->record(std::move(ev_));
}

}  // namespace flit::obs
