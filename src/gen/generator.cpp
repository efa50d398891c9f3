#include "gen/generator.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace flit::gen {

namespace detail {
// Defined in suite.cpp (where the recipe evaluators live): true when the
// kernel's output moves under its labeled mechanism and stays
// bit-identical under every other labeled mechanism.
bool responds_only_to_own_mechanism(const GeneratedKernel& k);
}  // namespace detail

namespace {

/// splitmix64: the per-kernel deterministic stream.  Chosen over
/// std::mt19937_64 because its output for a given seed is pinned by the
/// reference constants below, not by a library's distribution details --
/// the byte-identity contract must survive standard-library upgrades.
struct Splitmix {
  std::uint64_t s;

  std::uint64_t next() {
    s += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) with 53 random mantissa bits.
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }

  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

  bool coin() { return (next() & 1) != 0; }

  double sign() { return coin() ? 1.0 : -1.0; }
};

Splitmix stream_for(std::uint64_t seed, std::size_t index, Recipe r) {
  Splitmix rng{(seed ^ 0x8000000080000000ULL) * 0x2545F4914F6CDD1DULL +
               static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL +
               static_cast<std::uint64_t>(r)};
  (void)rng.next();  // discard the correlated first draw
  return rng;
}

const char* kRecipeNames[] = {"fma",  "reduce",    "branch",
                              "libm", "subnormal", "unsafe"};
const char* kMechanismNames[] = {"fma-contraction", "reassociation",
                                 "fast-libm", "subnormal-flush",
                                 "unsafe-math"};

/// Parses decimal digits whose value is at most `max` (the field's
/// range), so no number wraps.
std::uint64_t parse_u64_strict(const std::string& s, const char* what,
                               std::uint64_t max) {
  if (s.empty()) throw std::invalid_argument(std::string(what) + ": empty");
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(std::string(what) +
                                  ": expected an unsigned integer, got '" +
                                  s + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (max - digit) / 10) {
      throw std::invalid_argument(std::string(what) + ": '" + s +
                                  "' is out of range (at most " +
                                  std::to_string(max) + ")");
    }
    v = v * 10 + digit;
  }
  return v;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

const char* to_string(Recipe r) {
  return kRecipeNames[static_cast<std::size_t>(r)];
}

const char* to_string(Mechanism m) {
  return kMechanismNames[static_cast<std::size_t>(m)];
}

std::optional<Recipe> recipe_from(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kRecipeNames); ++i) {
    if (name == kRecipeNames[i]) return static_cast<Recipe>(i);
  }
  return std::nullopt;
}

std::optional<Mechanism> mechanism_from(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kMechanismNames); ++i) {
    if (name == kMechanismNames[i]) return static_cast<Mechanism>(i);
  }
  return std::nullopt;
}

Mechanism mechanism_of(Recipe r) {
  switch (r) {
    case Recipe::FmaChain: return Mechanism::FmaContraction;
    case Recipe::Reduce: return Mechanism::Reassociation;
    case Recipe::Branch: return Mechanism::FmaContraction;
    case Recipe::Libm: return Mechanism::FastLibm;
    case Recipe::Subnormal: return Mechanism::SubnormalFlush;
    case Recipe::Unsafe: return Mechanism::UnsafeMath;
  }
  throw std::invalid_argument("unknown recipe");
}

const std::vector<Recipe>& all_recipes() {
  static const std::vector<Recipe> all = {
      Recipe::FmaChain, Recipe::Reduce,    Recipe::Branch,
      Recipe::Libm,     Recipe::Subnormal, Recipe::Unsafe};
  return all;
}

std::vector<Recipe> recipes_from_csv(const std::string& csv) {
  std::vector<Recipe> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string name =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    const auto r = recipe_from(name);
    if (!r.has_value()) {
      throw std::invalid_argument(
          "unknown recipe '" + name +
          "' (recipes: fma, reduce, branch, libm, subnormal, unsafe)");
    }
    for (Recipe seen : out) {
      if (seen == *r) {
        throw std::invalid_argument("duplicate recipe '" + name + "'");
      }
    }
    out.push_back(*r);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void GenSpec::validate() const {
  if (seed == 0) {
    throw std::invalid_argument("gen: seed must be positive");
  }
  if (count == 0) {
    throw std::invalid_argument("gen: count must be positive");
  }
  for (std::size_t i = 0; i < recipes.size(); ++i) {
    for (std::size_t j = i + 1; j < recipes.size(); ++j) {
      if (recipes[i] == recipes[j]) {
        throw std::invalid_argument(std::string("gen: duplicate recipe '") +
                                    to_string(recipes[i]) + "'");
      }
    }
  }
}

const std::vector<Recipe>& GenSpec::effective_recipes() const {
  return recipes.empty() ? all_recipes() : recipes;
}

int GeneratedKernel::hazard_count() const {
  int n = 0;
  for (bool h : hazards) n += h ? 1 : 0;
  return n;
}

GroundTruthLabel GeneratedKernel::label() const {
  GroundTruthLabel l;
  l.kernel = name;
  l.recipe = recipe;
  l.mechanism = mechanism_of(recipe);
  l.hazard_sites = hazard_count();
  l.seed = seed;
  l.index = index;
  l.file = file;
  l.expected_symbol = name;  // the kernel's own exported symbol
  return l;
}

std::string GroundTruthLabel::tsv_line() const {
  char buf[64];
  std::string out = kernel;
  out += '\t';
  out += to_string(recipe);
  out += '\t';
  out += to_string(mechanism);
  std::snprintf(buf, sizeof buf, "\t%d\t%llu\t%zu\t", hazard_sites,
                static_cast<unsigned long long>(seed), index);
  out += buf;
  out += file;
  out += '\t';
  out += expected_symbol;
  return out;
}

GroundTruthLabel GroundTruthLabel::from_tsv_line(const std::string& line) {
  const std::vector<std::string> cols = split_tabs(line);
  if (cols.size() != 8) {
    throw std::invalid_argument("label line: expected 8 tab-separated "
                                "columns, got " +
                                std::to_string(cols.size()));
  }
  GroundTruthLabel l;
  l.kernel = cols[0];
  const auto r = recipe_from(cols[1]);
  if (!r.has_value()) {
    throw std::invalid_argument("label line: unknown recipe '" + cols[1] +
                                "'");
  }
  l.recipe = *r;
  const auto m = mechanism_from(cols[2]);
  if (!m.has_value()) {
    throw std::invalid_argument("label line: unknown mechanism '" + cols[2] +
                                "'");
  }
  l.mechanism = *m;
  l.hazard_sites = static_cast<int>(parse_u64_strict(
      cols[3], "label hazard_sites", std::numeric_limits<int>::max()));
  l.seed = parse_u64_strict(cols[4], "label seed",
                            std::numeric_limits<std::uint64_t>::max());
  l.index = static_cast<std::size_t>(parse_u64_strict(
      cols[5], "label index", std::numeric_limits<std::size_t>::max()));
  l.file = cols[6];
  l.expected_symbol = cols[7];
  return l;
}

namespace {

/// Recipe-specific operand embedding.  Ranges are chosen so the planted
/// hazard responds to its own mechanism and *only* its own mechanism:
/// e.g. libm operands stay in log's domain, unsafe divisors stay well
/// away from zero, and every stream avoids magnitudes that could wander
/// into the subnormal range outside the subnormal recipe.
void embed_inputs(GeneratedKernel& k, Splitmix& rng) {
  const std::size_t n = 8 + rng.below(17);  // 8..24 operands
  k.values.resize(n);
  k.weights.resize(n);
  switch (k.recipe) {
    case Recipe::FmaChain:
    case Recipe::Branch:
      for (std::size_t i = 0; i < n; ++i) {
        k.values[i] = rng.sign() * rng.uniform(0.5, 2.0);
        k.weights[i] = rng.sign() * rng.uniform(0.5, 2.0);
      }
      k.c0 = rng.uniform(1.0, 2.0);
      k.c1 = rng.uniform(1.0, 2.0);
      k.c2 = rng.uniform(0.5, 1.5);
      break;
    case Recipe::Reduce:
      // Mixed magnitudes: lane-parallel partial sums round differently
      // from a left-to-right accumulation only when addends differ in
      // scale enough to shift each other's rounding.  The spread is kept
      // moderate (10^+-4) on purpose: a wider one lets a single addend
      // dominate far past the ulp of the total, and then every smaller
      // term is absorbed identically in *both* association orders.
      for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::pow(10.0, rng.uniform(-4.0, 4.0));
        k.values[i] = rng.sign() * rng.uniform(0.5, 1.0) * mag;
        const double mag2 = std::pow(10.0, rng.uniform(-4.0, 4.0));
        k.weights[i] = rng.sign() * rng.uniform(0.5, 1.0) * mag2;
      }
      k.c0 = rng.uniform(1.0, 2.0);
      k.c1 = rng.uniform(0.5, 1.5);
      k.c2 = rng.uniform(0.5, 1.5);
      break;
    case Recipe::Libm:
      // Positive and O(1): inside log's domain and exp's no-overflow
      // range, and float-rounded libm results always differ measurably.
      for (std::size_t i = 0; i < n; ++i) {
        k.values[i] = rng.uniform(0.1, 3.0);
        k.weights[i] = rng.sign() * rng.uniform(0.1, 2.0);
      }
      k.c0 = rng.uniform(1.0, 2.0);
      k.c1 = rng.uniform(0.5, 1.5);
      k.c2 = rng.uniform(0.5, 1.5);
      break;
    case Recipe::Subnormal:
      // Factor pairs whose product's exponent lands in [-320, -310]:
      // inside the subnormal range (< 2^-1022 ~ 2.2e-308) but far above
      // the underflow-to-zero floor (4.9e-324), so an FTZ build flushes a
      // value a precise build keeps.
      for (std::size_t i = 0; i < n; ++i) {
        k.values[i] = rng.sign() * std::pow(10.0, -(153.0 + 2.5 * rng.unit()));
        k.weights[i] = rng.sign() * std::pow(10.0, -(159.0 + 2.5 * rng.unit()));
      }
      k.c0 = rng.uniform(1.0, 2.0);
      k.c1 = 1.0e280;  // rescales surviving products to ~1e-35
      k.c2 = rng.uniform(0.5, 1.5);
      break;
    case Recipe::Unsafe:
      // Positive, bounded away from zero: sqrt stays real, divisors
      // cannot blow the quotient up, and a random-mantissa divisor is
      // never a power of two (where a*(1/b) would be exact).
      for (std::size_t i = 0; i < n; ++i) {
        k.values[i] = rng.uniform(0.5, 3.0);
        k.weights[i] = rng.uniform(0.5, 3.0);
      }
      k.c0 = rng.uniform(1.0, 2.0);
      k.c1 = rng.uniform(1.5, 2.5);
      k.c2 = rng.uniform(0.5, 1.5);
      break;
  }
}

}  // namespace

std::vector<GeneratedKernel> generate(const GenSpec& spec) {
  spec.validate();
  const std::vector<Recipe>& recipes = spec.effective_recipes();
  std::vector<GeneratedKernel> out;
  out.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    GeneratedKernel k;
    k.recipe = recipes[i % recipes.size()];
    k.seed = spec.seed;
    k.index = i;
    char buf[96];
    std::snprintf(buf, sizeof buf, "Gen_s%llu_k%04zu_%s",
                  static_cast<unsigned long long>(spec.seed), i,
                  to_string(k.recipe));
    k.name = buf;
    k.file = "gen/" + k.name + ".cpp";

    Splitmix rng = stream_for(spec.seed, i, k.recipe);
    for (std::size_t h = 0; h < kMaxHazards; ++h) k.hazards[h] = rng.coin();
    if (k.hazard_count() == 0) k.hazards[0] = true;
    k.has_helper = k.hazards[1];

    // The label is a *guarantee*, not a likelihood: a single multiply-add
    // or division hazard rounds identically under its mechanism for a
    // sizable fraction of random operands (and wide-magnitude reductions
    // can absorb a lane permutation entirely).  So the generator
    // validates every embedding against the label and re-rolls the
    // operand stream -- deterministically, the PRNG just keeps drawing --
    // until the kernel responds to exactly its labeled mechanism.
    embed_inputs(k, rng);
    for (int attempt = 0; !detail::responds_only_to_own_mechanism(k);) {
      if (++attempt > 64) {
        throw std::logic_error("gen: no responsive embedding for " + k.name +
                               " after 64 draws");
      }
      embed_inputs(k, rng);
    }
    out.push_back(std::move(k));
  }
  return out;
}

std::string describe_tsv(std::span<const GeneratedKernel> kernels) {
  std::string out =
      "# kernel\trecipe\tmechanism\thazard_sites\tseed\tindex\tfile\t"
      "expected_symbol\n";
  for (const GeneratedKernel& k : kernels) {
    out += k.label().tsv_line();
    out += '\n';
  }
  return out;
}

std::string emit_text(const GeneratedKernel& k) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "// %s -- recipe %s, mechanism %s, %d hazard site(s)%s\n",
                k.name.c_str(), to_string(k.recipe),
                to_string(mechanism_of(k.recipe)), k.hazard_count(),
                k.has_helper ? ", hazard 1 in internal helper" : "");
  out += buf;
  std::snprintf(buf, sizeof buf, "// model file: %s\n", k.file.c_str());
  out += buf;
  out += "double " + k.fn_name() + "(EvalContext& ctx) {\n";
  std::snprintf(buf, sizeof buf, "  // c0=%.17g c1=%.17g c2=%.17g\n", k.c0,
                k.c1, k.c2);
  out += buf;
  for (std::size_t h = 0; h < kMaxHazards; ++h) {
    std::snprintf(buf, sizeof buf, "  // hazard %zu: %s\n", h,
                  k.hazards[h] ? (h == 1 && k.has_helper
                                      ? "planted (in helper)"
                                      : "planted")
                               : "absent");
    out += buf;
  }
  out += "  // values:";
  for (double v : k.values) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    out += buf;
  }
  out += "\n  // weights:";
  for (double w : k.weights) {
    std::snprintf(buf, sizeof buf, " %.17g", w);
    out += buf;
  }
  out += "\n}\n";
  return out;
}

}  // namespace flit::gen
