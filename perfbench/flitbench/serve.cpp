// serve-mixed: one serve::StudyService::run over a seeded JSONL stream of
// 40 requests from 6 tenants -- full-space explores of all 19 examples,
// compiler-filtered and `limit` subspaces, workflow-mode requests and
// exact duplicates -- on 4 scheduler lanes with stealing, one job per
// claim, a state directory and a cache budget below the stream's
// resident footprint.  A closed batch: every request is due at t = 0 and
// timed from there through the service's event sink.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/report.h"
#include "core/resultsdb.h"
#include "fpsem/code_model.h"
#include "serve/request.h"
#include "serve/service.h"
#include "table1.h"

namespace flitbench {

using namespace flit;

namespace {

/// Smaller than the stream's resident footprint, so the shared cache
/// evicts (about 70% hits instead of 99% unbounded).
constexpr std::uint64_t kCacheBudget = 400000;
constexpr int kTenants = 6;

/// splitmix64: the stream is a function of the seed alone.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// A seeded permutation of the example numbers 1..19.
std::vector<std::size_t> shuffled_examples(Rng& rng) {
  std::vector<std::size_t> order(mfemini::kNumExamples);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i + 1;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  return order;
}

/// The seeded request stream, one JSON object per line.  Its shape is
/// fixed -- which kinds of request sit where, every subspace size, so the
/// items per round -- and the seed picks the examples, the duplicated
/// requests and the tenants.  One example's study costs up to 4.5x
/// another's, so the filtered, `limit` and workflow requests take 17
/// distinct examples (a second permutation) rather than independent
/// draws: that halves how much a round's work varies with the seed.
std::string make_stream(std::uint64_t seed) {
  Rng rng{seed};
  static const char* kSubsets[] = {
      "[\"g++\"]", "[\"clang++\"]", "[\"icpc\"]", "[\"g++\",\"clang++\"]",
      "[\"g++\",\"icpc\"]", "[\"clang++\",\"icpc\"]"};
  const auto test = [](std::size_t ex) {
    return "\"test\":\"MFEM_ex" + std::to_string(ex) + "\"";
  };
  const std::vector<std::size_t> order = shuffled_examples(rng);
  const std::vector<std::size_t> others = shuffled_examples(rng);
  std::size_t next_other = 0;
  const auto other_example = [&] { return test(others[next_other++]); };

  // Each kind's requests spread evenly over the stream: full-space
  // explores (F), compiler-filtered (C), `limit` (L), workflow (W) and
  // exact duplicates of an earlier full-space request (D).
  struct Slot {
    double at;
    char kind;
    int k;
  };
  std::vector<Slot> slots;
  for (const auto& [kind, n] : std::vector<std::pair<char, int>>{
           {'F', mfemini::kNumExamples}, {'C', 8}, {'L', 6}, {'W', 3},
           {'D', 4}}) {
    for (int k = 0; k < n; ++k) slots.push_back({(k + 0.5) / n, kind, k});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.at < b.at; });

  std::vector<std::string> payloads, full;
  for (const Slot& s : slots) {
    switch (s.kind) {
      case 'F':
        payloads.push_back(test(order[static_cast<std::size_t>(s.k)]));
        full.push_back(payloads.back());
        break;
      case 'C':
        payloads.push_back(other_example() + ",\"compilers\":" +
                           kSubsets[s.k % 6]);
        break;
      case 'L':
        payloads.push_back(other_example() + ",\"limit\":" +
                           std::to_string(32 * (s.k + 1)));
        break;
      case 'W':
        payloads.push_back(other_example() + ",\"compilers\":" +
                           kSubsets[s.k % 3] + ",\"mode\":\"workflow\"");
        break;
      default:
        payloads.push_back(full[rng.below(full.size())]);
        break;
    }
  }
  std::string out;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    out += "{\"id\":\"r" + std::to_string(i) + "\",\"tenant\":\"tenant" +
           std::to_string(rng.below(kTenants)) + "\"," + payloads[i] + "}\n";
  }
  return out;
}

/// Per-request event times, seconds since the batch was due.
struct Times {
  double admitted = -1.0, first_batch = -1.0, done = -1.0;
};

std::string request_of(const std::string& line) {
  const std::string key = "\"request\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size();
  return line.substr(from, line.find('"', from) - from);
}

std::string event_of(const std::string& line) {
  const std::string key = "{\"event\":\"";
  if (line.rfind(key, 0) != 0) return {};
  return line.substr(key.size(), line.find('"', key.size()) - key.size());
}

std::string file_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every served outcome must equal the Table-1 outcome of the same
/// (test, compilation): variability, modeled cycles, speedup and status.
void check_against_study(const serve::ServeReport& rep,
                         const std::vector<core::StudyResult>& study,
                         Result& r) {
  std::map<std::string, const core::CompilationOutcome*> want;
  for (const core::StudyResult& s : study) {
    for (const core::CompilationOutcome& o : s.outcomes) {
      want[s.test_name + "|" + o.comp.str()] = &o;
    }
  }
  for (const serve::RequestReport& rr : rep.requests) {
    bool ok = rr.study.outcomes.size() == rr.items && rr.items > 0;
    for (const core::CompilationOutcome& o : rr.study.outcomes) {
      const auto it = want.find(rr.test + "|" + o.comp.str());
      ok = ok && it != want.end() &&
           o.variability == it->second->variability &&
           o.cycles == it->second->cycles &&
           o.speedup == it->second->speedup &&
           o.status == it->second->status;
    }
    r.check(ok, rr.items, "serve request " + rr.id + " (" + rr.test +
                              ") differs from the Table-1 study");
  }
}

/// The service's checkpoints replayed through the public ResultsDb: each
/// primary request's outcomes recorded batch by batch (one record() per
/// claim, as the service checkpoints) into a fresh database, which must
/// come out byte-identical to the service's converged one.
void replay_resultsdb(const serve::ServeReport& rep, std::size_t batch,
                      const std::filesystem::path& dir, Spans& spans,
                      Result& r) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::uint64_t records = 0, written = 0;
  for (const serve::RequestReport& rr : rep.requests) {
    if (rr.deduplicated || rr.db_path.empty()) continue;
    const std::filesystem::path path = dir / rr.db_path.filename();
    core::ResultsDb db(path);
    for (std::size_t first = 0; first < rr.study.outcomes.size();
         first += batch) {
      core::StudyResult slice;
      slice.test_name = rr.study.test_name;
      const std::size_t end =
          std::min(first + batch, rr.study.outcomes.size());
      slice.outcomes.assign(rr.study.outcomes.begin() + first,
                            rr.study.outcomes.begin() + end);
      {
        Spans::Scope span(spans, "core.resultsdb");
        db.record(slice);
      }
      ++records;
      written += std::filesystem::file_size(path);
    }
    r.attempted += 1;
    r.check(file_bytes(path) == file_bytes(rr.db_path), 1,
            "resultsdb replay of " + rr.id + " differs from the service's");
  }
  r.set("core.resultsdb.records", static_cast<double>(records), "count");
  r.set("core.resultsdb.busy_s", spans.busy_s("core.resultsdb"), "s");
  r.set("core.resultsdb.write_mb", static_cast<double>(written) / 1e6, "MB");
}

}  // namespace

void run_serve(const Args& args, Result& r, Spans& spans) {
  const std::string stream = make_stream(args.seed);
  const std::filesystem::path state = args.state_dir + "/serve-state";
  const auto space = toolchain::mfem_study_space();

  // The reference every served outcome is checked against: the Table-1
  // study, itself checked against its pins.  Not timed; the traced run
  // takes its explores as core.explore spans and replays its items.
  spans.set_enabled(args.trace);
  Table1Setup t1 = make_table1_setup();
  const std::uint64_t executed0 = counter("explore.executed");
  const std::vector<core::StudyResult> study = explore_all(t1, spans);
  const std::uint64_t executed = counter("explore.executed") - executed0;
  t1.explorer.reset();  // frees its cache: peak_rss_mb is the service's
  for (const core::StudyResult& s : study) r.attempted += s.outcomes.size();
  check_table1(study, r);

  std::vector<serve::StudyRequest> requests;
  std::unique_ptr<serve::StudyService> service;
  std::map<std::string, Times> times;
  double due = 0.0;
  serve::ServeOptions opts;
  opts.shards = 4;
  opts.jobs = kStudyLanes;
  opts.steal = true;
  opts.cache_budget = kCacheBudget;
  opts.state_dir = state;
  opts.event_sink = [&](const std::string&, const std::string& line) {
    const double t = now_s() - due;
    const std::string ev = event_of(line);
    Times& tm = times[request_of(line)];
    if (ev == "admitted") {
      tm.admitted = t;
    } else if (ev == "batch" && tm.first_batch < 0) {
      tm.first_batch = t;
    } else if (ev == "done") {
      tm.done = t;
    }
  };

  std::vector<double> ttfr, done, queue_wait, real_runs;
  std::uint64_t claims = 0;
  serve::ServeReport report;

  const auto setup = [&] {
    std::istringstream in(stream);
    requests = serve::read_requests(in);
    service = std::make_unique<serve::StudyService>(
        &fpsem::global_code_model(), toolchain::mfem_baseline(),
        toolchain::mfem_speed_reference(), space, opts);
  };
  const auto round = [&]() -> std::uint64_t {
    times.clear();
    const std::uint64_t anchors0 = counter("explore.anchor_runs");
    const std::uint64_t attempts0 = counter("explore.attempts");
    const std::uint64_t probes0 =
        counter("bisect.executions") - counter("bisect.memo_hits");
    const std::uint64_t claims0 = counter("serve.claims");
    due = now_s();
    {
      Spans::Scope span(spans, "serve.run");
      report = service->run(requests);
    }
    claims += counter("serve.claims") - claims0;

    std::uint64_t items = 0, reused = 0;
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
      const serve::RequestReport& rr = report.requests[i];
      items += rr.items;
      // A deduplicated request gets its primary's results, and times.
      const Times& tm = times[rr.deduplicated ? rr.primary : rr.id];
      ttfr.push_back(tm.first_batch);
      done.push_back(tm.done);
      if (rr.deduplicated) continue;
      queue_wait.push_back(tm.first_batch - tm.admitted);
      reused += reused_anchor_items(
          serve::request_subspace(requests[i], space));
      r.check(tm.first_batch >= 0 && tm.done >= tm.first_batch, rr.items,
              "serve request " + rr.id + " without batch/done events");
    }
    real_runs.push_back(static_cast<double>(
        counter("explore.anchor_runs") - anchors0 +
        counter("explore.attempts") - attempts0 - reused +
        counter("bisect.executions") - counter("bisect.memo_hits") -
        probes0));
    r.attempted += items;
    check_against_study(report, study, r);
    return items;
  };
  Loop loop;
  run_loop(args.seconds, 8, /*serial_round=*/true, spans, setup, round,
           loop);

  // Latency is the serve layer's alone: the batch workloads return each
  // result whole, so there it would only restate items_per_s.
  const double ttfr_p50 = median(ttfr), done_p50 = median(done),
               done_p90 = quantile(done, 0.9);
  std::fprintf(stderr,
               "flitbench: %zu latency samples: ttfr p50 %.6f s, done p50 "
               "%.6f s, p90 %.6f s\n",
               done.size(), ttfr_p50, done_p50, done_p90);
  if (!args.trace) {
    end_to_end(r, loop, median(real_runs));
    return;
  }

  r.set("serve.ttfr_p50_s", ttfr_p50, "s");
  r.set("serve.done_p50_s", done_p50, "s");
  r.set("serve.done_p90_s", done_p90, "s");

  const toolchain::CacheStats& c = report.cache;
  r.set("toolchain.cache.hit_ratio", c.hit_rate(), "ratio");
  r.set("toolchain.cache.misses", static_cast<double>(c.misses), "count");
  r.set("toolchain.cache.evictions", static_cast<double>(c.evictions),
        "count");
  r.set("serve.claims",
        static_cast<double>(claims) / static_cast<double>(loop.rounds()),
        "count");
  r.set("serve.deduplicated", static_cast<double>(report.deduplicated),
        "count");
  r.set("serve.queue_wait_p50_s", median(queue_wait), "s");
  r.set("trace.overhead_ratio", loop.overhead_ratio(), "ratio");
  layer_timing(r, spans, "core.explore", "core.explore", 1e3, "ms");
  r.set("core.explore.executed", static_cast<double>(executed), "count");
  replay_resultsdb(report, opts.checkpoint_batch,
                   args.state_dir + "/resultsdb-replay", spans, r);
  replay_study(t1, study, spans, r);
}

}  // namespace flitbench
