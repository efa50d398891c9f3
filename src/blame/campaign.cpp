#include "blame/campaign.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/probe_memo.h"
#include "obs/session.h"
#include "toolchain/semantics_rules.h"

namespace flit::blame {

using toolchain::Compilation;

namespace {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> flag_tokens(const std::string& flag) {
  std::vector<std::string> tokens;
  std::istringstream is(flag);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

/// The cluster identity: sorted files, sorted file:symbol pairs, and the
/// mechanism signature, joined with separators none of the parts can
/// contain (paths, symbols and mechanism names are all printable).
std::string site_key(const std::vector<std::string>& files,
                     const std::vector<std::string>& symbols,
                     const std::string& mechanism) {
  return join(files, "\x1f") + "\x1e" + join(symbols, "\x1f") + "\x1e" +
         mechanism;
}

std::string site_id(const std::string& key) {
  std::ostringstream os;
  os << "site-" << std::hex << std::setw(16) << std::setfill('0')
     << toolchain::stable_hash(key);
  return os.str();
}

/// The (sorted files, sorted file:symbol) signature of one outcome.
void outcome_signature(const core::HierarchicalOutcome& out,
                       std::vector<std::string>& files,
                       std::vector<std::string>& symbols) {
  files.clear();
  symbols.clear();
  for (const core::FileFinding& ff : out.findings) {
    files.push_back(ff.file);
    for (const core::SymbolFinding& sf : ff.symbols) {
      symbols.push_back(ff.file + ":" + sf.symbol);
    }
  }
  std::sort(files.begin(), files.end());
  std::sort(symbols.begin(), symbols.end());
}

}  // namespace

void CampaignInput::merge(CampaignInput other) {
  cells.insert(cells.end(), std::make_move_iterator(other.cells.begin()),
               std::make_move_iterator(other.cells.end()));
  for (auto& [test, comps] : other.equal_comps) {
    std::vector<Compilation>& mine = equal_comps[test];
    mine.insert(mine.end(), std::make_move_iterator(comps.begin()),
                std::make_move_iterator(comps.end()));
  }
  dropped_rows += other.dropped_rows;
}

CampaignInput input_from_study(const core::StudyResult& study) {
  CampaignInput in;
  for (const core::CompilationOutcome& o : study.outcomes) {
    if (o.failed()) continue;
    if (o.bitwise_equal()) {
      in.equal_comps[study.test_name].push_back(o.comp);
    } else {
      in.cells.push_back(Cell{study.test_name, o.comp, o.variability});
    }
  }
  return in;
}

CampaignInput input_from_db(const core::ResultsDb& db,
                            std::span<const Compilation> space) {
  std::map<std::string, const Compilation*> by_str;
  for (const Compilation& c : space) by_str.emplace(c.str(), &c);
  CampaignInput in;
  for (const core::ResultRow& row : db.rows()) {
    const auto it = by_str.find(row.compilation);
    if (it == by_str.end()) {
      ++in.dropped_rows;
      continue;
    }
    if (!row.ok()) continue;  // quarantined: nothing measurable to bisect
    if (row.bitwise_equal()) {
      in.equal_comps[row.test_name].push_back(*it->second);
    } else {
      in.cells.push_back(Cell{row.test_name, *it->second, row.variability});
    }
  }
  return in;
}

std::string mechanism_signature(const Compilation& baseline,
                                const Compilation& variable) {
  const fpsem::FpSemantics b = toolchain::derive_semantics(baseline);
  const fpsem::FpSemantics v = toolchain::derive_semantics(variable);
  std::vector<std::string> parts;
  if (b.contract_fma != v.contract_fma) parts.push_back("contract_fma");
  if (b.reassoc_width != v.reassoc_width) parts.push_back("reassociation");
  if (b.extended_precision != v.extended_precision) {
    parts.push_back("extended_precision");
  }
  if (b.unsafe_math != v.unsafe_math) parts.push_back("unsafe_math");
  if (b.flush_subnormals != v.flush_subnormals) {
    parts.push_back("flush_subnormals");
  }
  if (b.fast_libm != v.fast_libm ||
      toolchain::compile_time_fast_libm(baseline) !=
          toolchain::compile_time_fast_libm(variable)) {
    parts.push_back("fast_libm");
  }
  if (b.exploits_ub != v.exploits_ub) parts.push_back("exploits_ub");
  if (toolchain::link_step_fast_libm(baseline.compiler) !=
      toolchain::link_step_fast_libm(variable.compiler)) {
    parts.push_back("link_fast_libm");
  }
  if (parts.empty()) return "none";
  return join(parts, ",");
}

int compilation_distance(const Compilation& a, const Compilation& b) {
  int d = 0;
  if (!(a.compiler == b.compiler)) d += 100;
  d += 10 * std::abs(static_cast<int>(a.opt) - static_cast<int>(b.opt));
  const std::vector<std::string> ta = flag_tokens(a.flag);
  const std::vector<std::string> tb = flag_tokens(b.flag);
  std::vector<std::string> diff;
  std::set_symmetric_difference(ta.begin(), ta.end(), tb.begin(), tb.end(),
                                std::back_inserter(diff));
  d += static_cast<int>(diff.size());
  return d;
}

namespace {

/// Probes spent by one cluster's confirming bisects.
struct PairCost {
  long long executions = 0;
  long long memo_hits = 0;
};

/// Picks the cluster's minimal adversarial pair: candidates are every
/// (bitwise-equal baseline, member variable) pair of the first member's
/// test, tried in ascending compilation_distance order with a confirming
/// bisect each, until one reproduces the cluster's (files, symbols)
/// signature.  Falls back to (campaign baseline, first member) -- already
/// confirmed by that member's own bisect -- when no candidate within the
/// attempt budget re-verifies.  Writes only `cluster.pair`.
PairCost select_adversarial_pair(const fpsem::CodeModel* model,
                                 const core::TestRegistry& registry,
                                 const CampaignInput& input,
                                 const BlameOptions& opts,
                                 toolchain::CompilationCache& cache,
                                 core::ProbeMemo* memo,
                                 const std::vector<CellOutcome>& cells,
                                 BlameCluster& cluster) {
  const CellOutcome& rep = cells[cluster.members.front()];
  const std::string& test_name = rep.cell.test;

  std::vector<Compilation> baselines;
  if (const auto it = input.equal_comps.find(test_name);
      it != input.equal_comps.end()) {
    baselines = it->second;
  }
  if (std::find(baselines.begin(), baselines.end(), opts.baseline) ==
      baselines.end()) {
    baselines.push_back(opts.baseline);
  }

  std::vector<Compilation> variables;
  for (const std::size_t m : cluster.members) {
    const Cell& c = cells[m].cell;
    if (c.test != test_name) continue;
    if (std::find(variables.begin(), variables.end(), c.variable) ==
        variables.end()) {
      variables.push_back(c.variable);
    }
  }

  // A candidate pair can only reproduce the site if it disagrees on
  // exactly the mechanisms the cluster is keyed on -- a pair whose own
  // signature differs (a baseline that already contracts FMAs, link
  // drivers that agree on the libm substitution, ...) is filtered
  // statically instead of wasting a confirming bisect on it.
  struct Cand {
    int distance;
    std::size_t b, v;
  };
  std::vector<Cand> cands;
  for (std::size_t b = 0; b < baselines.size(); ++b) {
    for (std::size_t v = 0; v < variables.size(); ++v) {
      if (mechanism_signature(baselines[b], variables[v]) !=
          cluster.mechanism) {
        continue;
      }
      cands.push_back(
          Cand{compilation_distance(baselines[b], variables[v]), b, v});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& x, const Cand& y) {
                     if (x.distance != y.distance) {
                       return x.distance < y.distance;
                     }
                     if (x.b != y.b) return x.b < y.b;
                     return x.v < y.v;
                   });

  // Fallback: the campaign pair the cluster was discovered under.
  AdversarialPair best;
  best.baseline = opts.baseline;
  best.variable = rep.cell.variable;
  best.distance = compilation_distance(best.baseline, best.variable);
  best.confirmed = true;
  best.reverified = false;

  // Confirming bisects are scoped to the cluster's own blamed files: the
  // pair only has to reproduce *this* site, and out-of-scope files stay
  // on the candidate baseline, so an attempt costs a handful of probes
  // instead of a whole-model search.  A site with no blamed files (the
  // link-step mechanism) is scoped to one arbitrary file -- its evidence
  // is the whole-program probe plus the empty finding set, which any
  // scope reproduces.
  std::vector<std::string> scope = cluster.files;
  if (scope.empty() && !model->files().empty()) {
    scope.push_back(model->files().front());
  }

  // A singleton cluster's site is evidenced by exactly one member bisect;
  // spending the whole attempt budget on it buys little over the
  // fallback, so singletons get one shot at their closest candidate and
  // multi-member clusters get the full budget.
  const std::size_t budget = cluster.members.size() == 1
                                 ? std::min<std::size_t>(
                                       1, opts.adversarial_attempts)
                                 : opts.adversarial_attempts;

  PairCost cost;
  std::vector<std::string> files, symbols;
  const std::size_t attempts = std::min(budget, cands.size());
  for (std::size_t a = 0; a < attempts; ++a) {
    const Cand& cand = cands[a];
    core::BisectConfig cfg;
    cfg.baseline = baselines[cand.b];
    cfg.variable = variables[cand.v];
    cfg.scope = scope;
    cfg.k = opts.k;
    cfg.digits = opts.digits;
    cfg.memo = memo;
    core::HierarchicalOutcome out;
    try {
      const std::unique_ptr<core::TestBase> test = registry.create(test_name);
      core::BisectDriver driver(model, test.get(), cfg, &cache);
      out = driver.run();
    } catch (const std::exception&) {
      continue;  // a crashing candidate pair cannot confirm anything
    }
    cost.executions += out.executions;
    cost.memo_hits += out.memo_hits;
    if (out.crashed) continue;
    outcome_signature(out, files, symbols);
    if (files == cluster.files && symbols == cluster.symbols) {
      best.baseline = cfg.baseline;
      best.variable = cfg.variable;
      best.distance = cand.distance;
      best.confirmed = true;
      best.reverified = true;
      best.executions = out.executions;
      best.memo_hits = out.memo_hits;
      break;
    }
  }
  cluster.pair = best;
  return cost;
}

}  // namespace

BlameReport run_campaign(const fpsem::CodeModel* model,
                         const core::TestRegistry& registry,
                         const CampaignInput& input,
                         const BlameOptions& opts) {
  static obs::Counter& m_cells = obs::metrics().counter("blame.cells");
  static obs::Counter& m_probes = obs::metrics().counter("blame.probes");
  static obs::Counter& m_memo_hits =
      obs::metrics().counter("blame.memo_hits");
  static obs::Counter& m_clusters = obs::metrics().counter("blame.clusters");
  static obs::Counter& m_pairs =
      obs::metrics().counter("blame.pairs_confirmed");

  BlameReport report;
  report.dropped_rows = input.dropped_rows;

  std::vector<Cell> cells;
  for (const Cell& cell : input.cells) {
    if (!registry.contains(cell.test)) {
      ++report.unknown_tests;
      continue;
    }
    if (opts.max_cells != 0 && cells.size() >= opts.max_cells) {
      ++report.cells_skipped;
      continue;
    }
    cells.push_back(cell);
  }

  obs::Span campaign_span(obs::tracer_if_enabled(), "blame.campaign", "blame",
                          std::to_string(cells.size()) + " cells");

  // One compilation cache and one probe memo span the whole campaign:
  // the dedup win *is* the sharing.
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  core::ProbeMemo* memo_ptr = opts.memo ? &memo : nullptr;

  report.cells.resize(cells.size());
  report.shard_stats = dist::run_sharded_campaign(
      cells.size(), opts.shard, [&](std::size_t i) {
        const Cell& cell = cells[i];
        // Stamped by cell index, so the cell's spans do not depend on
        // which lane ran it.
        obs::ScopedItem item(0, i, 0);
        obs::Span span(obs::tracer_if_enabled(), "blame.cell", "blame",
                       cell.test + " @ " + cell.variable.str());
        core::BisectConfig cfg;
        cfg.baseline = opts.baseline;
        cfg.variable = cell.variable;
        cfg.k = opts.k;
        cfg.digits = opts.digits;
        cfg.memo = memo_ptr;
        core::HierarchicalOutcome out;
        try {
          const std::unique_ptr<core::TestBase> test =
              registry.create(cell.test);
          core::BisectDriver driver(model, test.get(), cfg, &cache);
          out = driver.run();
        } catch (const std::exception& e) {
          out = core::HierarchicalOutcome{};
          out.crashed = true;
          out.crash_reason = std::string("bisect aborted: ") + e.what();
        }
        span.set_cost(static_cast<double>(out.executions));
        report.cells[i] = CellOutcome{cell, std::move(out)};
      });

  for (const CellOutcome& co : report.cells) {
    report.executions += co.bisect.executions;
    report.memo_hits += co.bisect.memo_hits;
  }

  // Cluster by site identity, in cell order (so clusters are ordered by
  // their first member and the ids/members are schedule-independent).
  std::map<std::string, std::size_t> cluster_of;
  std::vector<std::string> files, symbols;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellOutcome& co = report.cells[i];
    if (co.bisect.crashed) {
      report.failed_cells.push_back(i);
      continue;
    }
    outcome_signature(co.bisect, files, symbols);
    const std::string mech =
        mechanism_signature(opts.baseline, co.cell.variable);
    const std::string key = site_key(files, symbols, mech);
    const auto [it, fresh] = cluster_of.try_emplace(key,
                                                    report.clusters.size());
    if (fresh) {
      BlameCluster c;
      c.id = site_id(key);
      c.files = files;
      c.symbols = symbols;
      c.mechanism = mech;
      report.clusters.push_back(std::move(c));
    }
    report.clusters[it->second].members.push_back(i);
  }

  // The pair phase runs on the same fleet, one item per cluster, stamped
  // after the cells' indices.  Each cluster writes only its own pair and
  // cost slot, and selection reads only finished cell outcomes and exact
  // memo answers, so the pairs and the summed probe count do not depend
  // on the schedule.  shard_stats keeps counting the cell phase.
  std::vector<PairCost> pair_costs(report.clusters.size());
  (void)dist::run_sharded_campaign(
      report.clusters.size(), opts.shard, [&](std::size_t c) {
        BlameCluster& cluster = report.clusters[c];
        obs::ScopedItem item(0, cells.size() + c, 0);
        obs::Span span(obs::tracer_if_enabled(), "blame.pair", "blame",
                       cluster.id);
        pair_costs[c] =
            select_adversarial_pair(model, registry, input, opts, cache,
                                    memo_ptr, report.cells, cluster);
        span.set_cost(static_cast<double>(pair_costs[c].executions));
      });
  for (const PairCost& pc : pair_costs) {
    report.executions += pc.executions;
    report.memo_hits += pc.memo_hits;
  }
  report.memo = memo.stats();

  m_cells.add(static_cast<std::uint64_t>(report.cells.size()));
  m_probes.add(static_cast<std::uint64_t>(
      report.executions > 0 ? report.executions : 0));
  m_memo_hits.add(static_cast<std::uint64_t>(
      report.memo_hits > 0 ? report.memo_hits : 0));
  m_clusters.add(static_cast<std::uint64_t>(report.clusters.size()));
  std::uint64_t reverified = 0;
  for (const BlameCluster& c : report.clusters) {
    if (c.pair.reverified) ++reverified;
  }
  m_pairs.add(reverified);
  campaign_span.set_cost(static_cast<double>(report.executions));
  return report;
}

std::string BlameReport::text() const {
  std::ostringstream os;
  std::set<std::string> tests;
  for (const CellOutcome& co : cells) tests.insert(co.cell.test);
  os << "blame campaign: " << cells.size()
     << " variability-flagged cell(s) over " << tests.size() << " test(s)\n";
  os << "bisected: " << (cells.size() - failed_cells.size()) << " ok, "
     << failed_cells.size() << " failed search(es); logical probes: "
     << executions << " program executions\n";
  os << "distinct blame sites: " << clusters.size() << '\n';
  if (cells_skipped > 0) {
    os << "skipped: " << cells_skipped << " cell(s) over the --max-cells cap\n";
  }
  if (unknown_tests > 0) {
    os << "dropped: " << unknown_tests
       << " cell(s) naming unregistered tests\n";
  }
  if (dropped_rows > 0) {
    os << "dropped: " << dropped_rows
       << " database row(s) outside the compilation space\n";
  }
  for (const BlameCluster& c : clusters) {
    os << '\n'
       << c.id << "  (" << c.members.size() << " cell(s), mechanism: "
       << c.mechanism << ")\n";
    if (c.files.empty()) {
      os << "  files: (none -- not attributable to any translation unit)\n";
    } else {
      os << "  files: " << join(c.files, ", ") << '\n';
    }
    if (!c.symbols.empty()) {
      os << "  symbols: " << join(c.symbols, ", ") << '\n';
    }
    os << "  cells:";
    const std::size_t show = std::min<std::size_t>(c.members.size(), 4);
    for (std::size_t k = 0; k < show; ++k) {
      const Cell& mc = cells[c.members[k]].cell;
      os << (k == 0 ? " " : ", ") << mc.test << " @ " << mc.variable.str();
    }
    if (c.members.size() > show) {
      os << " (+" << (c.members.size() - show) << " more)";
    }
    os << '\n';
    os << "  adversarial pair: " << c.pair.baseline.str() << "  vs  "
       << c.pair.variable.str() << "  (distance " << c.pair.distance << ", ";
    if (c.pair.reverified) {
      os << "re-verified, " << c.pair.executions << " probes)";
    } else if (c.pair.confirmed) {
      os << "confirmed by the member bisect)";
    } else {
      os << "unconfirmed)";
    }
    os << '\n';
  }
  if (!failed_cells.empty()) {
    os << "\nfailed searches:\n";
    for (const std::size_t i : failed_cells) {
      os << "  " << cells[i].cell.test << " @ "
         << cells[i].cell.variable.str() << ": "
         << cells[i].bisect.crash_reason << '\n';
    }
  }
  return os.str();
}

std::string BlameReport::stats_text() const {
  std::ostringstream os;
  os << "memo: " << memo_hits << " of " << executions
     << " probes answered from cache";
  if (executions > 0) {
    os << " (" << std::fixed << std::setprecision(1)
       << 100.0 * static_cast<double>(memo_hits) /
              static_cast<double>(executions)
       << "%)";
  }
  os << "\nreal executions: " << (executions - memo_hits) << " ("
     << memo.escaped << " left their test's scope and were not stored; "
     << memo.scouts << " scout run(s) besides)\n";
  os << "steals: " << shard_stats.total_steals() << " across "
     << shard_stats.ranks.size() << " rank(s)\n";
  return os.str();
}

}  // namespace flit::blame
