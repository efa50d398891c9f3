#include "serve/service.h"

#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/registry.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "dist/vclock.h"
#include "obs/export.h"
#include "obs/session.h"
#include "serve/request.h"

namespace flit::serve {

namespace {

void ensure_directory(const char* what, const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    throw std::invalid_argument(std::string(what) + ": cannot create '" +
                                dir.string() + "'" +
                                (ec ? ": " + ec.message() : std::string()));
  }
}

void write_file(const std::filesystem::path& path,
                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("serve: cannot write '" + path.string() + "'");
  }
  out << content;
}

/// One deduplicated study in flight: the unit the scheduler multiplexes.
struct Execution {
  std::size_t req_index = 0;           ///< primary request (input order)
  std::vector<std::size_t> followers;  ///< deduplicated onto this one
  std::size_t admit_ordinal = 0;       ///< admission sequence number

  std::unique_ptr<core::TestBase> test;
  std::string test_name;  ///< stamped by the first claim's result
  std::vector<toolchain::Compilation> subspace;
  std::unique_ptr<core::SpaceExplorer> explorer;
  std::optional<core::ResultsDb> db;
  std::filesystem::path db_path;

  std::vector<core::CompilationOutcome> outcomes;
  std::size_t cursor = 0;  ///< next unexecuted subspace index
  double vclock = 0.0;     ///< modeled cycles served to this study
  int pinned_lane = -1;    ///< steal off: the study's home lane

  std::size_t batches = 0;   ///< claims executed so far
  std::size_t variable = 0;  ///< variable outcomes among the first `cursor`
  std::size_t failed = 0;    ///< failed outcomes among the first `cursor`
  toolchain::CacheStats cache_delta;

  [[nodiscard]] bool done() const { return cursor == subspace.size(); }
};

/// Writes per-tenant JSONL event streams (append, flushed per line) and
/// mirrors every line to the options' event_sink.
class EventStreams {
 public:
  EventStreams(const std::filesystem::path& dir,
               const std::function<void(const std::string&,
                                        const std::string&)>& sink)
      : dir_(dir), sink_(sink) {}

  void emit(const std::string& tenant, const std::string& line) {
    if (!dir_.empty()) {
      std::ofstream& out = stream_for(tenant);
      out << line << '\n';
      out.flush();  // a killed daemon must not owe its tenants events
    }
    if (sink_) sink_(tenant, line);
  }

 private:
  std::ofstream& stream_for(const std::string& tenant) {
    auto it = streams_.find(tenant);
    if (it == streams_.end()) {
      std::ofstream out(dir_ / (tenant + ".jsonl"),
                        std::ios::binary | std::ios::app);
      if (!out) {
        throw std::runtime_error("serve: cannot write event stream for '" +
                                 tenant + "' under '" + dir_.string() + "'");
      }
      it = streams_.emplace(tenant, std::move(out)).first;
    }
    return it->second;
  }

  std::filesystem::path dir_;
  const std::function<void(const std::string&, const std::string&)>& sink_;
  std::unordered_map<std::string, std::ofstream> streams_;
};

}  // namespace

StudyService::StudyService(const fpsem::CodeModel* model,
                           toolchain::Compilation baseline,
                           toolchain::Compilation speed_reference,
                           std::span<const toolchain::Compilation> space,
                           ServeOptions opts)
    : model_(model),
      baseline_(std::move(baseline)),
      speed_reference_(std::move(speed_reference)),
      space_(space.begin(), space.end()),
      opts_(std::move(opts)) {
  if (opts_.shards < 1) {
    throw std::invalid_argument("serve: shards must be >= 1");
  }
  if (opts_.jobs < 1) throw std::invalid_argument("serve: jobs must be >= 1");
  if (opts_.max_inflight < 1) {
    throw std::invalid_argument("serve: max-inflight must be >= 1");
  }
  if (opts_.checkpoint_batch < 1) {
    throw std::invalid_argument("serve: checkpoint-batch must be >= 1");
  }
  if (opts_.resume && opts_.state_dir.empty()) {
    throw std::invalid_argument("serve: --resume requires --state-dir");
  }
  if (!opts_.state_dir.empty()) {
    ensure_directory("serve: state-dir", opts_.state_dir);
  }
  if (!opts_.stream_dir.empty()) {
    ensure_directory("serve: stream-out", opts_.stream_dir);
  }
  cache_.set_budget(opts_.cache_budget);
}

ServeReport StudyService::run(std::span<const StudyRequest> requests) {
  auto& m = obs::metrics();
  static obs::Counter& m_requests = m.counter("serve.requests");
  static obs::Counter& m_dedup = m.counter("serve.deduplicated");
  static obs::Counter& m_claims = m.counter("serve.claims");
  static obs::Counter& m_completed = m.counter("serve.completed");
  obs::Gauge& g_inflight = m.gauge("serve.inflight");
  m.gauge("serve.lanes").set(opts_.shards);

  // --- Validation: all-or-nothing, before anything executes. ---------
  auto& reg = core::global_test_registry();
  for (const StudyRequest& req : requests) {
    if (!reg.contains(req.test)) {
      throw std::invalid_argument("serve: request '" + req.id +
                                  "': unknown test '" + req.test +
                                  "' (try: flit list)");
    }
    for (const std::string& name : req.compilers) {
      bool known = false;
      for (const toolchain::Compilation& c : space_) {
        if (c.compiler.name == name) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::invalid_argument("serve: request '" + req.id +
                                    "': unknown compiler '" + name + "'");
      }
    }
    if (request_subspace(req, space_).empty()) {
      throw std::invalid_argument("serve: request '" + req.id +
                                  "': subspace matches no compilations");
    }
  }

  // --- Admission: deduplicate equal payloads onto one execution. -----
  std::vector<Execution> execs;
  std::unordered_map<std::string, std::size_t> by_payload;
  std::vector<std::size_t> primary_of(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const StudyRequest& req = requests[i];
    m_requests.add();
    const std::string key = req.payload_key();
    if (const auto it = by_payload.find(key); it != by_payload.end()) {
      execs[it->second].followers.push_back(i);
      primary_of[i] = it->second;
      m_dedup.add();
      continue;
    }
    by_payload.emplace(key, execs.size());
    primary_of[i] = execs.size();
    Execution e;
    e.req_index = i;
    e.test = reg.create(req.test);
    e.subspace = request_subspace(req, space_);
    e.outcomes.resize(e.subspace.size());
    e.explorer = std::make_unique<core::SpaceExplorer>(
        model_, baseline_, speed_reference_, opts_.jobs, &cache_, &memo_);
    if (!opts_.state_dir.empty()) {
      e.db_path = opts_.state_dir / (req.id + ".tsv");
      if (!opts_.resume) {
        // A stale checkpoint from an earlier stream would pollute the
        // converged database's insertion order; a fresh run starts clean.
        std::filesystem::remove(e.db_path);
      }
      e.db.emplace(e.db_path);
    }
    execs.push_back(std::move(e));
  }

  EventStreams events(opts_.stream_dir, opts_.event_sink);
  const auto emit_for = [&](std::size_t req_i, const std::string& line) {
    events.emit(requests[req_i].tenant, line);
  };

  // --- The scheduler: serial min-virtual-clock fleet emulation. ------
  const std::size_t nlanes = static_cast<std::size_t>(opts_.shards);
  dist::VirtualClocks lanes(nlanes);
  std::vector<std::size_t> inflight;  // indices into execs
  std::size_t next_exec = 0;
  std::size_t admitted = 0;

  ServeReport report;
  report.requests.resize(requests.size());

  const auto admit_next = [&] {
    while (next_exec < execs.size() && inflight.size() < opts_.max_inflight) {
      Execution& e = execs[next_exec];
      e.admit_ordinal = admitted++;
      e.pinned_lane = static_cast<int>(e.admit_ordinal % nlanes);
      inflight.push_back(next_exec);
      const StudyRequest& req = requests[e.req_index];
      emit_for(e.req_index,
               "{\"event\":\"admitted\",\"request\":\"" +
                   obs::json_escape(req.id) + "\",\"test\":\"" +
                   obs::json_escape(req.test) + "\",\"mode\":\"" +
                   to_string(req.mode) + "\",\"items\":" +
                   std::to_string(e.subspace.size()) + "}");
      for (const std::size_t f : e.followers) {
        emit_for(f, "{\"event\":\"deduplicated\",\"request\":\"" +
                        obs::json_escape(requests[f].id) + "\",\"primary\":\"" +
                        obs::json_escape(req.id) + "\"}");
      }
      ++next_exec;
    }
    g_inflight.set(static_cast<std::int64_t>(inflight.size()));
  };

  const auto finalize = [&](Execution& e) {
    const StudyRequest& req = requests[e.req_index];

    core::StudyResult merged;
    merged.test_name = e.test_name;
    merged.outcomes = std::move(e.outcomes);  // nothing reads them again

    RequestReport rr;
    rr.id = req.id;
    rr.tenant = req.tenant;
    rr.test = req.test;
    rr.items = e.subspace.size();
    rr.batches = e.batches;
    rr.variable = e.variable;
    rr.failed = e.failed;
    rr.cache = e.cache_delta;
    rr.csv = core::study_csv(merged);
    rr.db_path = e.db_path;

    if (req.mode == RequestMode::Workflow) {
      // Level 3 on top of the already-merged Level 1/2 study: the
      // override hands the workflow the stored result, so the bisect
      // phase is the only fresh work (through its own cache, as in the
      // sharded engine -- serve's shared cache stays a Level 1/2 pool).
      core::WorkflowOptions wopts;
      wopts.baseline = baseline_;
      wopts.speed_reference = speed_reference_;
      wopts.max_bisects = 1;
      wopts.k = 1;
      wopts.jobs = opts_.jobs;
      wopts.explore_override =
          [&merged](const core::TestBase&,
                    std::span<const toolchain::Compilation>) {
            return merged;
          };
      const core::WorkflowReport wr =
          core::run_workflow(model_, *e.test, e.subspace, wopts);
      rr.workflow_text = core::workflow_report_text(wr);
    }

    if (!opts_.state_dir.empty()) {
      write_file(opts_.state_dir / (req.id + ".csv"), rr.csv);
      if (!rr.workflow_text.empty()) {
        write_file(opts_.state_dir / (req.id + ".workflow.txt"),
                   rr.workflow_text);
      }
    }

    const auto done_line = [&](const StudyRequest& r) {
      return "{\"event\":\"done\",\"request\":\"" + obs::json_escape(r.id) +
             "\",\"items\":" + std::to_string(rr.items) +
             ",\"variable\":" + std::to_string(rr.variable) +
             ",\"failed\":" + std::to_string(rr.failed) +
             ",\"batches\":" + std::to_string(rr.batches) +
             ",\"cache_hits\":" + std::to_string(e.cache_delta.hits) +
             ",\"cache_misses\":" + std::to_string(e.cache_delta.misses) +
             "}";
    };
    emit_for(e.req_index, done_line(req));
    m_completed.add();

    rr.study = std::move(merged);

    // Followers share the primary's results byte-for-byte: the payload
    // key is the whole study input, so a solo run of the follower's
    // request would have produced exactly these bytes.
    for (const std::size_t f : e.followers) {
      const StudyRequest& freq = requests[f];
      RequestReport fr = rr;
      fr.id = freq.id;
      fr.tenant = freq.tenant;
      fr.deduplicated = true;
      fr.primary = req.id;
      fr.batches = 0;
      fr.cache = toolchain::CacheStats{};  // attributed to the primary
      if (!opts_.state_dir.empty()) {
        fr.db_path = opts_.state_dir / (freq.id + ".tsv");
        std::filesystem::copy_file(
            e.db_path, fr.db_path,
            std::filesystem::copy_options::overwrite_existing);
        write_file(opts_.state_dir / (freq.id + ".csv"), fr.csv);
        if (!fr.workflow_text.empty()) {
          write_file(opts_.state_dir / (freq.id + ".workflow.txt"),
                     fr.workflow_text);
        }
      }
      emit_for(f, done_line(freq));
      report.requests[f] = std::move(fr);
      ++report.deduplicated;
      m_completed.add();
    }
    // Last: the followers copied rr and done_line reads it.
    report.requests[e.req_index] = std::move(rr);
    // The database is on disk and followers copied the file; its rows and
    // index would otherwise stay resident until the stream ends.
    e.db.reset();
  };

  admit_next();
  while (!inflight.empty()) {
    // The study to serve next: the least-served in-flight study (its
    // virtual clock counts the modeled cycles already spent on it), tie
    // broken by admission order.  With stealing off the candidate set is
    // first narrowed to the minimum-clock lane that has pinned work.
    std::size_t lane = 0;
    if (opts_.steal) {
      lane = lanes.min_active();
    } else {
      lane = lanes.min_active_where([&](std::size_t l) {
        for (const std::size_t ei : inflight) {
          if (execs[ei].pinned_lane == static_cast<int>(l)) return true;
        }
        return false;
      });
    }
    std::size_t pick = execs.size();
    for (const std::size_t ei : inflight) {
      const Execution& e = execs[ei];
      if (!opts_.steal && e.pinned_lane != static_cast<int>(lane)) continue;
      if (pick == execs.size() || e.vclock < execs[pick].vclock ||
          (e.vclock == execs[pick].vclock &&
           e.admit_ordinal < execs[pick].admit_ordinal)) {
        pick = ei;
      }
    }
    Execution& e = execs[pick];
    const StudyRequest& req = requests[e.req_index];

    const std::size_t first = e.cursor;
    const std::size_t count =
        std::min(opts_.checkpoint_batch, e.subspace.size() - first);

    core::ExploreOptions eo;
    eo.retry = opts_.retry;
    eo.keep_going = opts_.keep_going;
    if (e.db.has_value()) {
      eo.db = &*e.db;
      eo.resume = opts_.resume;
    }
    eo.checkpoint_batch = count;  // one durable checkpoint per claim
    eo.obs_shard = static_cast<int>(lane);
    std::vector<std::size_t> claim(count);
    std::iota(claim.begin(), claim.end(), first);
    eo.indices = claim;

    const toolchain::CacheStats before = cache_.stats();
    core::StudyResult part;
    {
      obs::Span span(obs::tracer_if_enabled(), "claim", "serve",
                     req.id + "[" + std::to_string(first) + "+" +
                         std::to_string(count) + "]");
      part = e.explorer->explore(*e.test, e.subspace, eo);
      double cost = 0.0;
      for (const core::CompilationOutcome& o : part.outcomes) {
        cost += o.cycles;
      }
      span.set_cost(cost);
      lanes.advance(lane, cost);
      e.vclock += cost;
    }
    e.test_name = part.test_name;
    e.variable += part.variable_count();
    e.failed += part.failed_count();
    for (std::size_t j = 0; j < count; ++j) {
      e.outcomes[first + j] = std::move(part.outcomes[j]);
    }
    e.cursor += count;
    e.batches += 1;
    e.cache_delta += cache_.stats() - before;
    m_claims.add();

    emit_for(e.req_index,
             "{\"event\":\"batch\",\"request\":\"" + obs::json_escape(req.id) +
                 "\",\"lane\":" + std::to_string(lane) +
                 ",\"first\":" + std::to_string(first) +
                 ",\"count\":" + std::to_string(count) +
                 ",\"done\":" + std::to_string(e.cursor) +
                 ",\"total\":" + std::to_string(e.subspace.size()) +
                 ",\"variable\":" + std::to_string(e.variable) +
                 ",\"failed\":" + std::to_string(e.failed) + "}");

    if (e.done()) {
      finalize(e);
      for (std::size_t k = 0; k < inflight.size(); ++k) {
        if (inflight[k] == pick) {
          inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
      admit_next();
    }
  }

  report.cache = cache_.stats();
  report.cache_resident_bytes = cache_.resident_bytes();
  report.memo = memo_.stats();
  report.fleet_cycles = lanes.max_clock();
  return report;
}

}  // namespace flit::serve
