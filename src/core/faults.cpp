#include "core/faults.h"

#include <cstdlib>
#include <limits>

#include "obs/session.h"

namespace flit::core {

namespace {

thread_local std::string tl_context;      // NOLINT(cert-err58-cpp)
thread_local int tl_attempt = 0;

/// FNV-1a over a string; the same construction the toolchain's hazard
/// predicates use, duplicated here to keep faults self-contained.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t site_index(FaultSite s) { return static_cast<std::size_t>(s); }

bool parse_site(const std::string& name, FaultSite* out) {
  if (name == "compile") {
    *out = FaultSite::Compile;
  } else if (name == "link") {
    *out = FaultSite::Link;
  } else if (name == "run") {
    *out = FaultSite::Run;
  } else if (name == "kill") {
    *out = FaultSite::Kill;
  } else if (name == "shard") {
    *out = FaultSite::Shard;
  } else if (name == "stall") {
    *out = FaultSite::Stall;
  } else {
    return false;
  }
  return true;
}

/// Parses `s` as decimal digits whose value fits `T`: no sign, space,
/// prefix or wrap-around (strtoull accepts all four).
template <typename T>
bool parse_unsigned(const std::string& s, T* out) {
  if (s.empty()) return false;
  T v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const T digit = static_cast<T>(ch - '0');
    if (v > (std::numeric_limits<T>::max() - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

/// Parses `s` as a plain decimal (digits, then optionally '.' and more
/// digits) in [0, 1].  No sign, space, exponent, hex float, inf or nan.
/// The bound is read off the digits: strtod rounds a rate just above 1,
/// such as 1.00000000000000000001, to exactly 1.
bool parse_rate(const std::string& s, double* out) {
  const auto digits = [](const std::string& d) {
    return !d.empty() && d.find_first_not_of("0123456789") == std::string::npos;
  };
  const std::size_t dot = s.find('.');
  const std::string whole = s.substr(0, dot);
  const std::string frac = dot == std::string::npos ? "" : s.substr(dot + 1);
  if (!digits(whole) || (dot != std::string::npos && !digits(frac))) {
    return false;
  }
  const std::size_t lead = whole.find_first_not_of('0');
  const bool at_most_one =
      lead == std::string::npos ||
      (whole.substr(lead) == "1" &&
       frac.find_first_not_of('0') == std::string::npos);
  if (!at_most_one) return false;
  *out = std::strtod(s.c_str(), nullptr);
  return true;
}

}  // namespace

const char* to_string(FaultSite s) {
  switch (s) {
    case FaultSite::Compile: return "compile";
    case FaultSite::Link: return "link";
    case FaultSite::Run: return "run";
    case FaultSite::Kill: return "kill";
    case FaultSite::Shard: return "shard";
    case FaultSite::Stall: return "stall";
  }
  return "?";
}

void FaultInjector::arm(FaultSite site, double rate, std::uint64_t seed) {
  std::lock_guard lock(mu_);
  SiteSpec& spec = sites_[site_index(site)];
  spec.armed = true;
  // NaN clamps to the floor: a site that is armed yet can never fire
  // would still bypass every memo.
  if (site == FaultSite::Kill) {
    spec.rate = rate >= 1.0 ? rate : 1.0;  // a checkpoint count, not a rate
  } else {
    spec.rate = rate > 0.0 ? (rate < 1.0 ? rate : 1.0) : 0.0;
  }
  spec.seed = seed;
  any_armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  std::lock_guard lock(mu_);
  sites_ = {};
  any_armed_.store(false, std::memory_order_release);
}

bool FaultInjector::armed(FaultSite site) const {
  std::lock_guard lock(mu_);
  return sites_[site_index(site)].armed;
}

bool FaultInjector::any_armed() const {
  return any_armed_.load(std::memory_order_acquire);
}

void FaultInjector::configure(const std::string& spec) {
  FaultInjector parsed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t c1 = entry.find(':');
    if (c1 == std::string::npos) {
      throw std::invalid_argument("FLIT_FAULTS: missing rate in '" + entry +
                                  "' (expected site:rate[:seed])");
    }
    const std::size_t c2 = entry.find(':', c1 + 1);
    const std::string site_name = entry.substr(0, c1);
    const std::string rate_str =
        entry.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                     : c2 - c1 - 1);
    const std::string seed_str =
        c2 == std::string::npos ? "" : entry.substr(c2 + 1);

    FaultSite site{};
    if (!parse_site(site_name, &site)) {
      throw std::invalid_argument(
          "FLIT_FAULTS: unknown site '" + site_name +
          "' (expected compile|link|run|kill|shard|stall)");
    }
    // A repeated site would silently overwrite the earlier spec; the user
    // almost certainly meant a different site, so reject the duplicate by
    // name instead of keeping whichever entry happened to come last.
    if (parsed.armed(site)) {
      throw std::invalid_argument("FLIT_FAULTS: duplicate site '" +
                                  site_name + "' in '" + spec + "'");
    }
    // Rates are probabilities: finite plain decimals in [0, 1] for the
    // failure sites.  The kill site's value is a checkpoint count.
    double rate = 0.0;
    if (site == FaultSite::Kill) {
      std::size_t checkpoints = 0;
      if (!parse_unsigned(rate_str, &checkpoints)) {
        throw std::invalid_argument("FLIT_FAULTS: bad checkpoint count '" +
                                    rate_str + "' in '" + entry +
                                    "' (expected an unsigned integer)");
      }
      rate = static_cast<double>(checkpoints);
    } else if (!parse_rate(rate_str, &rate)) {
      throw std::invalid_argument("FLIT_FAULTS: bad rate '" + rate_str +
                                  "' in '" + entry +
                                  "' (expected a decimal in [0, 1])");
    }
    std::uint64_t seed = 0;
    if (c2 != std::string::npos && !parse_unsigned(seed_str, &seed)) {
      throw std::invalid_argument("FLIT_FAULTS: bad seed '" + seed_str +
                                  "' in '" + entry +
                                  "' (expected an unsigned 64-bit integer)");
    }
    parsed.arm(site, rate, seed);
  }

  std::lock_guard lock(mu_);
  sites_ = parsed.sites_;
  any_armed_.store(parsed.any_armed_.load(std::memory_order_acquire),
                   std::memory_order_release);
}

FaultInjector::SiteSpec FaultInjector::site_spec(FaultSite site) const {
  std::lock_guard lock(mu_);
  return sites_[site_index(site)];
}

bool FaultInjector::should_fail(FaultSite site,
                                const std::string& key) const {
  if (!any_armed()) return false;
  const SiteSpec spec = site_spec(site);
  if (!spec.armed || spec.rate <= 0.0) return false;
  if (spec.rate >= 1.0) return true;
  const std::string material =
      "fault|" + std::to_string(spec.seed) + '|' + to_string(site) + '|' +
      tl_context + '|' + key + '|' + std::to_string(tl_attempt);
  constexpr std::uint64_t kScale = 1'000'000;
  return static_cast<double>(fnv1a(material) % kScale) <
         spec.rate * static_cast<double>(kScale);
}

void FaultInjector::maybe_fail(FaultSite site, const std::string& key) const {
  if (!should_fail(site, key)) return;
  // Injected-fault accounting: the fleet total plus a per-site split, so a
  // metrics dump shows where the injector actually struck.
  obs::metrics().counter("faults.injected").add();
  obs::metrics()
      .counter(std::string("faults.injected.") + to_string(site))
      .add();
  throw InjectedFault(site, std::string("injected fault: ") +
                                to_string(site) + " step failed for " + key);
}

bool FaultInjector::should_kill(std::size_t checkpoints) const {
  if (!any_armed()) return false;
  const SiteSpec spec = site_spec(FaultSite::Kill);
  // Compared as doubles: converting a huge count to size_t would be
  // undefined.
  return spec.armed && static_cast<double>(checkpoints) >= spec.rate;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector instance;
  static const bool from_env = [] {
    if (const char* env = std::getenv("FLIT_FAULTS")) {
      instance.configure(env);
    }
    return true;
  }();
  (void)from_env;
  return instance;
}

FaultInjector::ScopedTrial::ScopedTrial(std::string context, int attempt)
    : prev_context_(std::move(tl_context)), prev_attempt_(tl_attempt) {
  tl_context = std::move(context);
  tl_attempt = attempt;
}

FaultInjector::ScopedTrial::~ScopedTrial() {
  tl_context = std::move(prev_context_);
  tl_attempt = prev_attempt_;
}

const std::string& FaultInjector::current_context() { return tl_context; }

int FaultInjector::current_attempt() { return tl_attempt; }

}  // namespace flit::core
