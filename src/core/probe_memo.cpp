#include "core/probe_memo.h"

#include <cstring>
#include <utility>

#include "toolchain/compile_cache.h"
#include "toolchain/semantics_rules.h"

namespace flit::core {

namespace {

/// The leading byte of each key kind: a content key and a build key can
/// never be equal.
constexpr char kContentKey = 'c';
constexpr char kBuildKey = 'b';

void append_raw(std::string& s, const void* p, std::size_t n) {
  s.append(static_cast<const char*>(p), n);
}

}  // namespace

std::string ProbeMemo::key_of(const std::string& test_name,
                              const toolchain::Executable& exe) {
  const std::size_t n = exe.map.size();
  std::string key;
  key.reserve(test_name.size() + 3 + n * 22 + exe.crash_reason.size());
  key += kContentKey;
  key += test_name;
  key += '\0';
  for (fpsem::FunctionId id = 0; id < n; ++id) {
    const fpsem::FnBinding& b = exe.map.binding(id);
    char bits = 0;
    if (b.sem.contract_fma) bits |= 1;
    if (b.sem.extended_precision) bits |= 2;
    if (b.sem.unsafe_math) bits |= 4;
    if (b.sem.flush_subnormals) bits |= 8;
    if (b.sem.fast_libm) bits |= 16;
    if (b.sem.exploits_ub) bits |= 32;
    if (id < exe.from_injected.size() && exe.from_injected[id]) bits |= 64;
    key += bits;
    const std::int32_t width = b.sem.reassoc_width;
    append_raw(key, &width, sizeof width);
    append_raw(key, &b.cost.time_scale, sizeof b.cost.time_scale);
    append_raw(key, &b.cost.bulk_scale, sizeof b.cost.bulk_scale);
  }
  key += exe.crashes ? '\1' : '\0';
  key += exe.crash_reason;
  return key;
}

std::string ProbeMemo::key_of_build(const std::string& test_name,
                                    const toolchain::Compilation& c) {
  const std::uint64_t group = toolchain::CompilationCache::semantics_group(c);
  std::string key;
  key.reserve(test_name.size() + 3 + sizeof group);
  key += kBuildKey;
  key += test_name;
  key += '\0';
  append_raw(key, &group, sizeof group);
  key += toolchain::link_step_fast_libm(c.compiler) ? '\1' : '\0';
  return key;
}

ProbeMemo::Answer ProbeMemo::probe(const std::string& key,
                                   const std::function<Entry()>& run) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++probes_;
    // Another prober holds the key: wait until it stores or gives up.
    landed_.wait(lock, [&] { return !in_flight_.contains(key); });
    if (const auto it = map_.find(key); it != map_.end()) {
      ++hits_;
      return Answer{it->second, true};
    }
    in_flight_.insert(key);  // claimed: this call runs it
  }
  Answer answer;
  try {
    answer.entry = run();
  } catch (...) {
    release(key, nullptr);
    throw;
  }
  release(key, &answer.entry);
  return answer;
}

void ProbeMemo::release(const std::string& key, const Entry* entry) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (entry != nullptr) map_.try_emplace(key, *entry);
    in_flight_.erase(key);
  }
  landed_.notify_all();
}

ProbeMemo::Stats ProbeMemo::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return Stats{probes_, hits_, static_cast<std::uint64_t>(map_.size())};
}

}  // namespace flit::core
