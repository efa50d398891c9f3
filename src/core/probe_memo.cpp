#include "core/probe_memo.h"

#include <cstring>
#include <utility>

#include "toolchain/compile_cache.h"
#include "toolchain/semantics_rules.h"

namespace flit::core {

namespace {

/// The leading byte of each key kind: keys of two kinds are never equal.
constexpr char kContentKey = 'c';
constexpr char kScopedKey = 's';
constexpr char kBuildKey = 'b';

void append_raw(std::string& s, const void* p, std::size_t n) {
  s.append(static_cast<const char*>(p), n);
}

/// The content and scoped keys' one serializer: `tag`, the test name,
/// the binding and injection provenance of each function of `exe` that
/// `scope` holds (every function when `scope` is null), then the crash
/// verdict.
std::string serialize(char tag, const std::string& test_name,
                      const toolchain::Executable& exe,
                      const std::vector<bool>* scope) {
  const std::size_t n = exe.map.size();
  std::string key;
  key.reserve(test_name.size() + 3 + n * 22 + exe.crash_reason.size());
  key += tag;
  key += test_name;
  key += '\0';
  for (fpsem::FunctionId id = 0; id < n; ++id) {
    if (scope != nullptr && !(id < scope->size() && (*scope)[id])) continue;
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

/// Whether every function `reach` holds is in `scope`.
bool within(const std::vector<bool>& reach, const std::vector<bool>& scope) {
  for (std::size_t id = 0; id < reach.size(); ++id) {
    if (reach[id] && !(id < scope.size() && scope[id])) return false;
  }
  return true;
}

}  // namespace

std::string ProbeMemo::key_of(const std::string& test_name,
                              const toolchain::Executable& exe) {
  return serialize(kContentKey, test_name, exe, nullptr);
}

std::string ProbeMemo::key_of_scoped(const std::string& test_name,
                                     const toolchain::Executable& exe,
                                     const std::vector<bool>& scope) {
  return serialize(kScopedKey, test_name, exe, &scope);
}

std::string ProbeMemo::key_of_build(const std::string& test_name,
                                    const toolchain::Compilation& c) {
  return key_of_build(test_name, c,
                      toolchain::CompilationCache::semantics_group(c));
}

std::string ProbeMemo::key_of_build(const std::string& test_name,
                                    const toolchain::Compilation& c,
                                    std::uint64_t group) {
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
  return claim(key, [&](bool&) { return run(); });
}

ProbeMemo::Answer ProbeMemo::probe_scoped(const TestBase& test,
                                          const Runner& runner,
                                          const toolchain::Executable& exe) {
  const std::vector<bool>& scope = scope_of(test, runner, exe.map.size());
  return claim(key_of_scoped(test.name(), exe, scope), [&](bool& store) {
    Entry entry;
    std::vector<bool> reach;
    try {
      entry.output = runner.run(test, exe, nullptr, &reach);
    } catch (const ExecutionCrash& e) {
      entry.crashed = true;
      entry.crash_reason = e.what();
    }
    store = within(reach, scope);
    return entry;
  });
}

ProbeMemo::Answer ProbeMemo::claim(
    const std::string& key, const std::function<Entry(bool& store)>& run) {
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
  bool store = true;
  try {
    answer.entry = run(store);
  } catch (...) {
    release(key, nullptr);
    throw;
  }
  release(key, store ? &answer.entry : nullptr, !store);
  return answer;
}

void ProbeMemo::release(const std::string& key, const Entry* entry,
                        bool escaped) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (entry != nullptr) map_.try_emplace(key, *entry);
    if (escaped) ++escaped_;
    in_flight_.erase(key);
  }
  landed_.notify_all();
}

const std::vector<bool>& ProbeMemo::scope_of(const TestBase& test,
                                             const Runner& runner,
                                             std::size_t n_functions) {
  const std::lock_guard<std::mutex> lock(scout_mu_);
  const auto [it, fresh] = scopes_.try_emplace(test.name());
  if (fresh) {
    ++scouts_;
    toolchain::Executable strict;
    strict.map = fpsem::SemanticsMap(n_functions);
    try {
      (void)runner.run(test, strict, nullptr, &it->second);
    } catch (...) {
      // The reach recorded before the throw is the scope.  The scope only
      // decides what is keyed and stored, so every answer stays exact;
      // a probe that meets the same failure reports it itself.
    }
  }
  return it->second;
}

ProbeMemo::Stats ProbeMemo::stats() const {
  Stats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.probes = probes_;
    s.hits = hits_;
    s.entries = map_.size();
    s.escaped = escaped_;
  }
  const std::lock_guard<std::mutex> lock(scout_mu_);
  s.scouts = scouts_;
  return s;
}

}  // namespace flit::core
