// Workload runner of the repository benchmark (see perfbench/README.md).
//
// Runs one workload as a closed loop with a single caller and prints one
// JSON object per line on stdout:
//
//   {"kind":"build", ...}   build type and compiler of this binary
//   {"kind":"setup", ...}   input set-up time, from process start
//   {"kind":"job", ...}     one simulation job or sizing query
//   {"kind":"check", ...}   one output check (ok or not)
//   {"kind":"span", ...}    one traced call (--trace 1 only)
//   {"kind":"lanes", ...}   a sharded run's profiler lanes (--trace 1 only)
//   {"kind":"ladder", ...}  one per-layer rung (--trace 1 only)
//   {"kind":"rss", ...}     peak resident memory
//
// perfbench/run.py builds this binary, runs it, and turns those records into
// metrics. Everything here is outside the library: the spans time the calls
// this file makes into each layer's public functions.
//
//   vod_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--min-jobs K] [--plant 1]
//   vod_perfbench --workload NAME --seed N --setup-only 1
//
// With --setup-only the process builds the workload's inputs, prints the
// build and setup records, and exits.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/rng.h"
#include "core/hit_model.h"
#include "core/partition_layout.h"
#include "core/sizing.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "exp/experiment.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"
#include "sim/partition_schedule.h"
#include "sim/server.h"
#include "sim/sharded_server.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"
#include "workload/zipf.h"

#ifndef VOD_PERFBENCH_BUILD_TYPE
#define VOD_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VOD_PERFBENCH_COMPILER
#define VOD_PERFBENCH_COMPILER "unknown"
#endif

namespace vod {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set during static initialization, before main runs.
const Clock::time_point kProcessStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of this process, all threads, since it started.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host time and process CPU time of one job or query. The gated metrics
/// use the CPU time: on a shared host the wall time of a single-threaded
/// job also counts the time other tenants held its core.
class Stopwatch {
 public:
  void Read(double* seconds, double* cpu_seconds) const {
    *cpu_seconds = ProcessCpuSeconds() - cpu0_;
    *seconds = SecondsBetween(wall0_, Clock::now());
  }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = ProcessCpuSeconds();
};

// ---------------------------------------------------------------------------
// Output

/// One JSON object on one line, built field by field.
class JsonLine {
 public:
  explicit JsonLine(const char* kind) { Str("kind", kind); }

  JsonLine& Num(const char* key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      text_ += buf;
    } else {
      text_ += "null";
    }
    return *this;
  }
  JsonLine& Int(const char* key, int64_t value) {
    Key(key);
    text_ += std::to_string(value);
    return *this;
  }
  JsonLine& Bool(const char* key, bool value) {
    Key(key);
    text_ += value ? "true" : "false";
    return *this;
  }
  JsonLine& Str(const char* key, const std::string& value) {
    Key(key);
    text_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
    return *this;
  }
  /// Inserts `json` verbatim (it must already be valid JSON).
  JsonLine& Raw(const char* key, const std::string& json) {
    Key(key);
    text_ += json;
    return *this;
  }
  void Print() {
    text_ += "}\n";
    std::fputs(text_.c_str(), stdout);
  }

 private:
  void Key(const char* key) {
    text_ += text_.empty() ? "{\"" : ",\"";
    text_ += key;
    text_ += "\":";
  }
  std::string text_;
};

/// Keeps a measured loop's result observable so it is not optimized away.
volatile double g_keep_alive = 0.0;
void KeepAlive(double v) { g_keep_alive = v; }

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a 64 over a byte string.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void EmitCheck(const std::string& name, bool ok, const std::string& detail) {
  JsonLine("check").Str("name", name).Bool("ok", ok).Str("detail", detail)
      .Print();
}

// ---------------------------------------------------------------------------
// Tracing: one span per call this file makes into a library layer.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t Begin(const std::string& name, const std::string& job,
                int64_t parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, job, parent, NowMicros(), 0.0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_us = NowMicros();
  }

  /// Writes every span recorded so far.
  void Flush() const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonLine("span").Int("id", static_cast<int64_t>(i)).Str("name", s.name)
          .Str("job", s.job).Int("parent", s.parent).Num("start_us", s.start_us)
          .Num("end_us", s.end_us).Print();
    }
  }

 private:
  struct Span {
    std::string name;
    std::string job;
    int64_t parent;
    double start_us;
    double end_us;
  };
  bool enabled_;
  Clock::time_point epoch_ = kProcessStart;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, const std::string& job,
            int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, job, parent)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_->End(id_); }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Prints a sharded run's profiler lanes (its Chrome trace) as one record.
/// `rung` tags the ladder rung the run belongs to ("job" for a workload
/// job); `parent` is the span of the RunShardedServerSimulation call.
void EmitLanes(const PhaseProfiler& profiler, const Tracer& tracer,
               const std::string& job, const std::string& rung,
               int64_t parent) {
  // Shifts the profiler's timestamps onto the tracer's clock.
  const double offset_us = tracer.NowMicros() - profiler.NowMicros();
  std::ostringstream chrome;
  profiler.WriteChromeTrace(chrome);
  // The trace puts one event per line; records here are one per line.
  std::string events = chrome.str();
  std::replace(events.begin(), events.end(), '\n', ' ');
  JsonLine("lanes").Str("job", job).Str("rung", rung).Int("parent", parent)
      .Num("offset_us", offset_us).Raw("chrome", events).Print();
}

// ---------------------------------------------------------------------------
// Workloads and their inputs

enum class Workload { kFig7Mixed, kCatalogSerial, kCatalogShardedFaults, kSizing };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "fig7_mixed") return Workload::kFig7Mixed;
  if (name == "catalog_serial") return Workload::kCatalogSerial;
  if (name == "catalog_sharded_faults") return Workload::kCatalogShardedFaults;
  if (name == "sizing_queries") return Workload::kSizing;
  return std::nullopt;
}

constexpr int kCatalogTitles = 384;
constexpr double kZipfExponent = 0.729;  // Dan, Sitaram & Shahabuddin
constexpr double kCatalogArrivalsPerMinute = 144.0;
constexpr int kShards = 4;
/// Worker threads of a timed sharded job. One: the barrier waits for the
/// slowest shard, so on a shared host a job spread over several cores
/// stalls whenever any one of them is busy. On a shared 4-core Xeon,
/// ten-seed spreads of the job rate reached 0.27 and 0.43 at two threads,
/// against 0.10 to 0.21 for the serial catalog. The parallel runs are timed
/// by the ladder instead.
constexpr int kJobThreads = 1;
/// Every k-th sizing query sizes a 3-movie system instead of one movie.
constexpr int64_t kSystemQueryEvery = 20;
constexpr int kQueryPool = 256;
/// |model − simulation| the repository's tests accept for Fig. 7(d) at
/// n = 40, w = 1 (tests/sim/arrival_process_test.cc).
constexpr double kModelTolerance = 0.03;

/// Everything a workload's jobs read; built once per run by BuildInputs.
struct Inputs {
  Workload workload = Workload::kFig7Mixed;
  // Simulation workloads: the movies each job simulates (one for Fig. 7).
  std::vector<ServerMovieSpec> movies;
  double warmup_minutes = 0.0;
  double measurement_minutes = 0.0;
  int64_t reserve = 0;
  bool faults = false;
  // fig7_mixed: the analytic P(hit) the simulation must reproduce.
  double reference_phit = 0.0;
  // sizing_queries: the generated query specs.
  std::vector<MovieSizingSpec> queries;
};

/// The four layout/behaviour templates of MixedCatalog in
/// bench/perf_sharded.cc, cycled over the catalog in the same pattern.
ServerMovieSpec CatalogTitle(int i, double rate) {
  struct Template {
    double length;
    int streams;
    double buffer;
    VcrBehavior behavior;
  };
  static const Template kTemplates[] = {
      {120.0, 40, 80.0, paper::Fig7MixedBehavior()},
      {90.0, 30, 45.0, paper::Fig7SingleOpBehavior(VcrOp::kFastForward)},
      {100.0, 20, 50.0, paper::Fig7MixedBehavior()},
      {110.0, 25, 60.0, paper::Fig7SingleOpBehavior(VcrOp::kPause)},
  };
  const Template& t = kTemplates[(i + i / 4) % 4];
  auto layout = PartitionLayout::FromBuffer(t.length, t.streams, t.buffer);
  return {"title" + std::to_string(i), *layout, rate, nullptr, t.behavior};
}

/// The paper's duration presets: gamma(2, 4) of Fig. 7, and the exp(5) and
/// exp(2) of Example 1.
DistributionPtr PaperDuration(int which) {
  switch (which) {
    case 0:
      return std::make_shared<GammaDistribution>(2.0, 4.0);
    case 1:
      return std::make_shared<ExponentialDistribution>(5.0);
    default:
      return std::make_shared<ExponentialDistribution>(2.0);
  }
}

/// A random permutation of 0..n-1.
std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {  // Fisher–Yates
    const auto j = static_cast<size_t>(rng->UniformInt(static_cast<uint64_t>(i + 1)));
    std::swap(p[static_cast<size_t>(i)], p[j]);
  }
  return p;
}

/// The title-to-rank permutation of the catalog, drawn from `rng` but
/// stratified: each block of four consecutive ranks lands on four titles
/// that sit on four different shards (title i runs on shard i % 4) and use
/// four different templates. Seeds change which titles are popular, not how
/// the load splits over shards and templates, so the sharded critical path
/// does not swing with the seed. Returns 1-based ranks indexed by title.
std::vector<int> BalancedRanks(Rng* rng) {
  constexpr int kBlocks = kCatalogTitles / kShards;        // 96
  constexpr int kGroups = kBlocks / 4;                      // 24
  const auto block_slot = Permutation(kBlocks, rng);
  std::vector<std::vector<int>> group_order;
  for (int s = 0; s < kShards; ++s) group_order.push_back(Permutation(kGroups, rng));
  std::vector<int> rank(kCatalogTitles, 0);
  for (int b = 0; b < kBlocks; ++b) {
    const int slot = block_slot[static_cast<size_t>(b)];
    const auto within = Permutation(kShards, rng);
    for (int s = 0; s < kShards; ++s) {
      // Position k of shard s's titles; k % 4 is shared by the block's
      // four titles, so their templates (s + k) % 4 are all different.
      const int k = 4 * group_order[static_cast<size_t>(s)][static_cast<size_t>(slot / 4)] +
                    slot % 4;
      rank[static_cast<size_t>(kShards * k + s)] =
          kShards * b + within[static_cast<size_t>(s)] + 1;
    }
  }
  return rank;
}

/// The sizing-query pool: a Latin hypercube over l ∈ [60, 150],
/// w ∈ [0.1, 2] and P* ∈ [0.3, 0.8], crossed evenly with the four mixes and
/// the three duration presets. Query cost grows steeply as w shrinks and
/// with the duration law, so the strata are paired by a fixed rank-1
/// lattice (spec i sits in w stratum 101·i mod n and P* stratum 173·i mod n)
/// rather than by seeded permutations, which let the seed decide how many
/// of the costly small-w specs also draw the gamma law. The seed places
/// every value inside its stratum and shuffles the order the loop visits the
/// pool in, so seeds change the inputs, not the load.
std::vector<MovieSizingSpec> SizingQueryPool(int n, Rng* rng) {
  static const VcrMix kMixes[] = {
      VcrMix::PaperMixed(), VcrMix::Only(VcrOp::kFastForward),
      VcrMix::Only(VcrOp::kRewind), VcrMix::Only(VcrOp::kPause)};
  const auto stratum = [&](int k, double lo, double hi) {
    const double u = (k % n + rng->Uniform01()) / n;
    return lo + (hi - lo) * u;
  };
  std::vector<MovieSizingSpec> pool;
  for (int i = 0; i < n; ++i) {
    MovieSizingSpec spec;
    spec.length_minutes = stratum(i, 60.0, 150.0);
    spec.max_wait_minutes = stratum(101 * i, 0.1, 2.0);
    spec.min_hit_probability = stratum(173 * i, 0.3, 0.8);
    spec.mix = kMixes[i % 4];
    spec.durations = VcrDurations::AllSame(PaperDuration((i / 4) % 3));
    spec.rates = paper::Rates();
    pool.push_back(spec);
  }
  std::vector<MovieSizingSpec> shuffled;
  for (int i : Permutation(n, rng)) {
    shuffled.push_back(pool[static_cast<size_t>(i)]);
    shuffled.back().name = "query" + std::to_string(shuffled.size() - 1);
  }
  return shuffled;
}

Result<Inputs> BuildInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  Rng rng(seed);
  switch (workload) {
    case Workload::kFig7Mixed: {
      auto layout = PartitionLayout::FromMaxWait(paper::kFig7MovieLength, 40,
                                                 1.0);
      if (!layout.ok()) return layout.status();
      in.movies.push_back({"fig7", *layout, 1.0 / paper::kFig7MeanInterarrival,
                           nullptr, paper::Fig7MixedBehavior()});
      in.warmup_minutes = 1000.0;
      in.measurement_minutes = 300000.0;
      in.reserve = 1000;  // never binds: Fig. 7 assumes unlimited streams
      auto model = AnalyticHitModel::Create(*layout, paper::Rates());
      if (!model.ok()) return model.status();
      auto p = model->HitProbability(
          VcrMix::PaperMixed(), VcrDurations::AllSame(paper::Fig7Duration()));
      if (!p.ok()) return p.status();
      in.reference_phit = *p;
      break;
    }
    case Workload::kCatalogSerial:
    case Workload::kCatalogShardedFaults: {
      auto zipf = ZipfDistribution::Create(kCatalogTitles, kZipfExponent);
      if (!zipf.ok()) return zipf.status();
      const auto rank = BalancedRanks(&rng);
      for (int i = 0; i < kCatalogTitles; ++i) {
        const double rate = kCatalogArrivalsPerMinute *
                            zipf->Probability(rank[static_cast<size_t>(i)]);
        in.movies.push_back(CatalogTitle(i, rate));
      }
      in.warmup_minutes = 200.0;
      in.measurement_minutes = 1500.0;
      in.reserve = 2 * kCatalogTitles;
      in.faults = workload == Workload::kCatalogShardedFaults;
      break;
    }
    case Workload::kSizing: {
      in.queries = SizingQueryPool(kQueryPool, &rng);
      for (const auto& spec : in.queries) {
        const Status valid = spec.Validate();
        if (!valid.ok()) return valid;
      }
      break;
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Simulation jobs

uint64_t JobSeed(uint64_t seed, int64_t job) {
  return CellSeed(seed, 0, static_cast<uint64_t>(job));
}

SimulationOptions SingleMovieOptions(const Inputs& in, const ServerMovieSpec& m,
                                     uint64_t seed) {
  SimulationOptions options;
  options.mean_interarrival_minutes = 1.0 / m.arrival_rate_per_minute;
  options.behavior = m.behavior;
  options.warmup_minutes = in.warmup_minutes;
  options.measurement_minutes = in.measurement_minutes;
  options.seed = seed;
  return options;
}

ServerOptions CatalogOptions(const Inputs& in, uint64_t seed) {
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = in.reserve;
  options.warmup_minutes = in.warmup_minutes;
  options.measurement_minutes = in.measurement_minutes;
  options.seed = seed;
  if (in.faults) {  // as in BM_ShardedRunDegraded
    options.faults.enabled = true;
    options.faults.disks = 4;
    options.faults.profile.mtbf_minutes = 600.0;
    options.faults.profile.mttr_minutes = 300.0;
    options.degradation.enabled = true;
    options.degradation.queue_deadline_minutes = 5.0;
  }
  return options;
}

/// Threads of the parallel sharded runs: the ladder's wide rung and the
/// untimed thread-count identity check. min(4, nproc), but at least two, so
/// that the check always sets a parallel run against the serial job.
int ParallelThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(2, std::min(kShards, hw));
}

ShardedServerOptions ShardedOptions(const Inputs& in, uint64_t seed, int shards,
                                    int threads) {
  ShardedServerOptions options;
  options.base = CatalogOptions(in, seed);
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 60.0;
  return options;
}

/// Simulated (host-independent) outcome of one job or rung.
struct SimCounts {
  int64_t viewers = 0;  ///< admissions in the measured window
  int64_t completions = 0;
  int64_t abandonments = 0;
  double mean_live = 0.0;  ///< Σ mean_concurrent_viewers
  int64_t resumes = 0;
  int64_t releases = 0;  ///< hits_within + hits_jump + end_releases
  uint64_t events = 0;   ///< executed kernel events (0 = not reported)
  int64_t refused = 0;
  int64_t granted = 0;
  int64_t queued = 0;
  int64_t queue_grants = 0;
  int64_t forced_reclaims = 0;
  int64_t disk_failures = 0;

  void Add(const SimulationReport& r) {
    viewers += r.admissions;
    completions += r.completions;
    abandonments += r.abandonments;
    mean_live += r.mean_concurrent_viewers;
    resumes += r.total_resumes;
    releases += r.hits_within + r.hits_jump + r.end_releases;
  }
  void Add(const ServerReport& s) {
    for (const auto& m : s.movies) Add(m.report);
    refused += s.refused_acquisitions;
    granted += s.granted_acquisitions;
    queued += s.resilience.vcr_queued;
    queue_grants += s.resilience.vcr_queue_grants;
    forced_reclaims += s.total_forced_reclaims;
    disk_failures += s.resilience.disk_failures;
  }
};

struct JobResult {
  Status status;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::string text;  ///< the report's ToString()
  SimCounts counts;
  // fig7_mixed only: in-partition P(hit) and its 95% half-width.
  double phit = 0.0;
  double phit_halfwidth95 = 0.0;
};

/// Runs one job of a simulation workload. With a profiler, a sharded run
/// records its lanes on it.
JobResult RunSimJob(const Inputs& in, uint64_t seed, PhaseProfiler* profiler,
                    Tracer* tracer, const std::string& job, int64_t parent) {
  JobResult out;
  const Stopwatch watch;
  switch (in.workload) {
    case Workload::kFig7Mixed: {
      SimulationReport report;
      {
        SpanScope span(tracer, "sim.simulator:RunSimulation", job, parent);
        auto r = RunSimulation(in.movies[0].layout, paper::Rates(),
                               SingleMovieOptions(in, in.movies[0], seed));
        watch.Read(&out.seconds, &out.cpu_seconds);
        if (!r.ok()) {
          out.status = r.status();
          return out;
        }
        report = *std::move(r);
      }
      out.counts.Add(report);
      out.counts.events = report.executed_events;
      out.text = report.ToString();
      out.phit = report.hit_probability_in_partition;
      const double wilson = 0.5 * (report.hit_probability_in_partition_high -
                                   report.hit_probability_in_partition_low);
      out.phit_halfwidth95 =
          std::max(wilson, report.hit_probability_in_partition_bm_halfwidth);
      break;
    }
    case Workload::kCatalogSerial: {
      SpanScope span(tracer, "sim.server:RunServerSimulation", job, parent);
      auto r = RunServerSimulation(in.movies, CatalogOptions(in, seed));
      watch.Read(&out.seconds, &out.cpu_seconds);
      if (!r.ok()) {
        out.status = r.status();
        return out;
      }
      out.counts.Add(*r);
      out.text = r->ToString();
      break;
    }
    case Workload::kCatalogShardedFaults: {
      auto options = ShardedOptions(in, seed, kShards, kJobThreads);
      options.base.obs.profiler = profiler;
      const int64_t span_id =
          tracer->Begin("sim.sharded_server:RunShardedServerSimulation", job,
                        parent);
      auto r = RunShardedServerSimulation(in.movies, options);
      watch.Read(&out.seconds, &out.cpu_seconds);
      tracer->End(span_id);
      if (!r.ok()) {
        out.status = r.status();
        return out;
      }
      out.counts.Add(r->server);
      out.counts.events = r->executed_events;
      out.text = r->ToString();
      if (profiler != nullptr && tracer->enabled()) {
        EmitLanes(*profiler, *tracer, job, "job", span_id);
      }
      break;
    }
    case Workload::kSizing:
      out.status = Status::InvalidArgument("not a simulation workload");
      break;
  }
  return out;
}

/// Output checks of one simulation job. Returns the failed-check count.
int CheckSimJob(const Inputs& in, int64_t job, const JobResult& r,
                bool plant) {
  const std::string tag = "job" + std::to_string(job);
  if (!r.status.ok()) {
    EmitCheck(tag + ".status", false, r.status.ToString());
    return 1;
  }
  if (in.workload == Workload::kFig7Mixed) {
    // The stated interval: the model's validation tolerance at this layout
    // (the analytic model is an approximation; the repository's
    // model-vs-simulation tests accept 0.03 here) widened by 5 standard
    // errors of the run's own estimate, so sampling noise alone fails it
    // about once in 1.7 million jobs.
    const double phit = r.phit + (plant ? 0.05 : 0.0);
    const double interval =
        kModelTolerance + r.phit_halfwidth95 * 5.0 / 1.96;
    const double err = std::fabs(phit - in.reference_phit);
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "sim %.6f model %.6f |err| %.6f interval %.6f", phit,
                  in.reference_phit, err, interval);
    const bool ok = err <= interval;
    if (!ok || job == 0) EmitCheck(tag + ".phit_vs_model", ok, detail);
    return ok ? 0 : 1;
  }
  // Viewer conservation over the measured window: admissions − completions
  // − abandonments is the change in the live population, which stays well
  // inside ±10% of its time average.
  const SimCounts& c = r.counts;
  const int64_t net =
      c.viewers - c.completions - c.abandonments + (plant ? 100000 : 0);
  const double bound = 0.1 * c.mean_live + 50.0;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "admissions %lld completions %lld abandonments %lld net %lld "
                "bound %.1f",
                static_cast<long long>(c.viewers),
                static_cast<long long>(c.completions),
                static_cast<long long>(c.abandonments),
                static_cast<long long>(net), bound);
  const bool ok = std::fabs(static_cast<double>(net)) <= bound &&
                  c.viewers > 0;
  if (!ok || job == 0) EmitCheck(tag + ".viewer_conservation", ok, detail);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Sizing queries

struct QueryResult {
  Status status;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::string text;  ///< the answer, full precision
  bool feasible = false;
};

/// Query q: every kSystemQueryEvery-th sizes three pool specs as a system.
QueryResult RunQuery(const Inputs& in, int64_t q, Tracer* tracer,
                     const std::string& job, int64_t parent) {
  QueryResult out;
  const auto& pool = in.queries;
  const size_t n = pool.size();
  const size_t i = static_cast<size_t>(q) % n;
  char buf[128];
  if (q % kSystemQueryEvery == kSystemQueryEvery - 1) {
    const std::vector<MovieSizingSpec> movies = {pool[i], pool[(i + 1) % n],
                                                 pool[(i + 2) % n]};
    const int budget = PureBatchingStreams(movies);
    const Stopwatch watch;
    Result<AllocationResult> r = Status::Internal("unset");
    {
      SpanScope span(tracer, "core.sizing:SizeSystem", job, parent);
      r = SizeSystem(movies, budget);
    }
    watch.Read(&out.seconds, &out.cpu_seconds);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    out.feasible = r->total_streams <= budget;
    std::snprintf(buf, sizeof(buf), "system %d %.17g", r->total_streams,
                  r->total_buffer_minutes);
    out.text = buf;
    for (const auto& m : r->movies) {
      std::snprintf(buf, sizeof(buf), " %d %.17g", m.streams, m.buffer_minutes);
      out.text += buf;
    }
    return out;
  }
  const MovieSizingSpec& spec = pool[i];
  const Stopwatch watch;
  Result<SizingPoint> r = Status::Internal("unset");
  {
    SpanScope span(tracer, "core.sizing:MinimumBufferChoice", job, parent);
    r = MinimumBufferChoice(spec);
  }
  watch.Read(&out.seconds, &out.cpu_seconds);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  // The answer must meet P* and sit on Eq. (2): B = l − n·w.
  out.feasible =
      r->feasible && r->hit_probability >= spec.min_hit_probability &&
      std::fabs(r->buffer_minutes -
                (spec.length_minutes - r->streams * spec.max_wait_minutes)) <
          1e-9 * spec.length_minutes;
  std::snprintf(buf, sizeof(buf), "movie %d %.17g %.17g", r->streams,
                r->buffer_minutes, r->hit_probability);
  out.text = buf;
  return out;
}

/// Example 1's minimum-buffer choices, as golden_paper_results_test pins
/// them. Returns the failed-check count.
int CheckExample1Goldens(bool plant) {
  struct Golden {
    VcrMix mix;
    const char* label;
    int streams[3];
  };
  const Golden kGoldens[] = {
      {VcrMix::PaperMixed(), "mixed", {374, 60, 180}},
      {VcrMix::Only(VcrOp::kFastForward), "ff_only", {419, 65, 184}},
  };
  int failed = 0;
  for (const Golden& g : kGoldens) {
    const auto movies = paper::Example1Movies(g.mix);
    for (size_t m = 0; m < movies.size(); ++m) {
      const auto choice = MinimumBufferChoice(movies[m]);
      const int want = g.streams[m] + (plant ? 1 : 0);
      const double want_buffer =
          movies[m].length_minutes - want * movies[m].max_wait_minutes;
      const bool ok = choice.ok() && choice->streams == want &&
                      std::fabs(choice->buffer_minutes - want_buffer) < 1e-9;
      char detail[160];
      std::snprintf(detail, sizeof(detail), "streams %d (golden %d)",
                    choice.ok() ? choice->streams : -1, want);
      EmitCheck(std::string("example1.") + g.label + "." + movies[m].name, ok,
                choice.ok() ? detail : choice.status().ToString());
      failed += ok ? 0 : 1;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Layer ladder (--trace 1): each rung times calls into one layer, sized from
// the workload's own inputs and reports.

template <typename T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over `reps` repetitions of the ns per call of `body(calls)`.
double NsPerCall(int reps, int64_t calls, const std::function<void(int64_t)>& body) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(calls);
    ns.push_back(SecondsBetween(t0, Clock::now()) * 1e9 /
                 static_cast<double>(calls));
  }
  return Median(ns);
}

void EmitRung(const std::string& name, double value, const std::string& unit,
              const std::string& note) {
  JsonLine("ladder").Str("name", name).Num("value", value).Str("unit", unit)
      .Str("note", note).Print();
}

/// Hold model: at a steady population of `pending` events, pop the head and
/// schedule a replacement. Returns ns per pop+schedule.
double HoldNs(size_t pending, uint64_t seed) {
  EventQueue q;
  uint64_t sink = 0;
  const uint64_t kind = q.AddHandler(
      [](void* ctx, uint64_t p) { *static_cast<uint64_t*>(ctx) += p; }, &sink);
  q.Reserve(pending + 1);
  Rng rng(seed);
  const double range = static_cast<double>(pending);
  for (size_t i = 0; i < pending; ++i) {
    q.ScheduleHandler(rng.Uniform(0.0, range), kind, i);
  }
  const double ns = NsPerCall(5, 1 << 20, [&](int64_t calls) {
    for (int64_t i = 0; i < calls; ++i) {
      q.RunNext();
      q.ScheduleHandler(q.Now() + rng.Uniform(0.0, range), kind, 1);
    }
  });
  KeepAlive(static_cast<double>(sink));
  return ns;
}

/// Runs the ladder on simulation inputs `in`. sizing_queries simulates
/// nothing itself and passes the Fig. 7 validation run with
/// `emit_simulated_ratios`, so the ladder also reports that run's simulated
/// ratios. `job_ns_per_viewer` is the median over the workload's own
/// untraced timed jobs (NaN when it ran none). Returns the failed-check
/// count.
int RunSimLadder(const Inputs& in, uint64_t seed, Tracer* tracer,
                 bool emit_simulated_ratios, double job_ns_per_viewer) {
  const uint64_t job_seed = JobSeed(seed, 0);
  const int threads = ParallelThreads();
  const int reps = 3;
  const std::string job = "ladder";
  int failed = 0;
  const auto rung_failed = [&](const char* rung, const Status& s) {
    EmitCheck(std::string("ladder.") + rung, false, s.ToString());
    ++failed;
  };

  // Rung: single-movie driver, every movie simulated on its own.
  SimCounts single;
  std::vector<double> single_s;
  for (int r = 0; r < reps; ++r) {
    SimCounts counts;
    const auto t0 = Clock::now();
    for (size_t m = 0; m < in.movies.size(); ++m) {
      SpanScope span(tracer, "sim.simulator:RunSimulation", job);
      auto rep = RunSimulation(in.movies[m].layout, paper::Rates(),
                               SingleMovieOptions(in, in.movies[m],
                                                  CellSeed(job_seed, m, 0)));
      if (!rep.ok()) {
        rung_failed("simulator", rep.status());
        return failed;
      }
      counts.Add(*rep);
      counts.events += rep->executed_events;
    }
    single_s.push_back(SecondsBetween(t0, Clock::now()));
    single = counts;
  }
  const double viewers = static_cast<double>(single.viewers);
  const double sim_ns_per_viewer = Median(single_s) * 1e9 / viewers;
  EmitRung("sim.simulator.ns_per_viewer", sim_ns_per_viewer, "ns",
           "RunSimulation over each movie alone");

  // Rung: multi-movie server (serial, shared live reserve).
  std::vector<double> server_s;
  SimCounts server;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    SpanScope span(tracer, "sim.server:RunServerSimulation", job);
    auto rep = RunServerSimulation(in.movies, CatalogOptions(in, job_seed));
    server_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!rep.ok()) {
      rung_failed("server", rep.status());
      return failed;
    }
    server = SimCounts();
    server.Add(*rep);
  }
  const double server_ns_per_viewer =
      Median(server_s) * 1e9 / static_cast<double>(server.viewers);
  EmitRung("sim.server.ns_per_viewer", server_ns_per_viewer, "ns",
           "RunServerSimulation over the catalog");

  // Rungs: sharded coordinator at 1 shard and at min(4, movies) shards. The
  // wide rung's profiler lanes go out as "lanes" records tagged "shards4";
  // run.py folds them into the critical path, barrier wait, coordinator
  // fold and imbalance.
  const int wide = std::min<int>(kShards, static_cast<int>(in.movies.size()));
  double ns_by_shards[2] = {0.0, 0.0};
  int64_t viewers_by_shards[2] = {0, 0};
  uint64_t events_1shard = 0;
  uint64_t messages = 0;
  for (int which = 0; which < 2; ++which) {
    const int shards = which == 0 ? 1 : wide;
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      PhaseProfiler profiler;
      auto options = ShardedOptions(in, job_seed, shards,
                                    which == 0 ? 1 : std::min(threads, shards));
      if (which == 1) options.base.obs.profiler = &profiler;
      const auto t0 = Clock::now();
      SpanScope span(tracer, "sim.sharded_server:RunShardedServerSimulation",
                     job);
      auto rep = RunShardedServerSimulation(in.movies, options);
      secs.push_back(SecondsBetween(t0, Clock::now()));
      if (!rep.ok()) {
        rung_failed("sharded_server", rep.status());
        return failed;
      }
      if (which == 0) {
        events_1shard = rep->executed_events;
      } else {
        EmitLanes(profiler, *tracer, job, "shards4", span.id());
        messages = rep->messages_posted;
      }
      viewers_by_shards[which] = rep->aggregate.admissions;
    }
    ns_by_shards[which] =
        Median(secs) * 1e9 / static_cast<double>(viewers_by_shards[which]);
  }
  EmitRung("sim.sharded_server.ns_per_viewer.shards1", ns_by_shards[0], "ns",
           "RunShardedServerSimulation, 1 shard, 1 thread");
  EmitRung("sim.sharded_server.ns_per_viewer.shards4", ns_by_shards[1], "ns",
           std::to_string(wide) + " shards on " +
               std::to_string(std::min(threads, wide)) + " threads");
  EmitRung("sim.sharded_server.speedup", ns_by_shards[0] / ns_by_shards[1],
           "ratio", "shards1 / shards4 ns_per_viewer");
  EmitRung("sim.sharded_server.messages", static_cast<double>(messages),
           "count", "messages_posted");

  // Rung: the pending-event set, at the pending size of the workload's own
  // report (live viewers, one pending event each, plus one restart tick per
  // movie).
  const bool single_movie_driver = in.workload == Workload::kFig7Mixed;
  const SimCounts& own = single_movie_driver ? single : server;
  const double pending_total =
      own.mean_live + static_cast<double>(in.movies.size());
  const double pending = in.workload == Workload::kCatalogShardedFaults
                             ? pending_total / kShards
                             : pending_total;
  const size_t pending_n = static_cast<size_t>(std::max(1.0, std::round(pending)));
  const double hold_ns = HoldNs(pending_n, seed);
  EmitRung("sim.event_queue.hold_ns", hold_ns, "ns",
           "hold model at " + std::to_string(pending_n) + " pending events");
  // Executed events per admitted viewer. ServerReport carries no event
  // count, so on the serial catalog it is taken from the 1-shard rung of
  // the same catalog (same kernel, windowed reserve).
  double events_per_viewer = 0.0;
  std::string epv_note;
  if (single_movie_driver) {
    events_per_viewer = static_cast<double>(single.events) / viewers;
    epv_note = "RunSimulation executed_events / admissions";
  } else {
    events_per_viewer = static_cast<double>(events_1shard) /
                        static_cast<double>(viewers_by_shards[0]);
    epv_note = "1-shard sharded rung executed_events / admissions";
  }
  EmitRung("sim.event_queue.events_per_viewer", events_per_viewer, "count",
           epv_note);

  // Rungs: handler floor (behaviour sampling, RNG) and schedule lookups,
  // on the workload's own behaviours, duration law and layouts.
  std::vector<const VcrBehavior*> behaviors;
  std::vector<PartitionSchedule> schedules;
  for (const auto& m : in.movies) {
    behaviors.push_back(&m.behavior);
    schedules.emplace_back(m.layout);
  }
  const size_t movies = in.movies.size();
  Rng rng(seed ^ 0x5DEECE66DULL);
  double sink = 0.0;
  const double sample_ns = NsPerCall(5, 1 << 20, [&](int64_t calls) {
    for (int64_t i = 0; i < calls; ++i) {
      const VcrBehavior& b = *behaviors[static_cast<size_t>(i) % movies];
      const VcrOp op = b.SampleOp(&rng);
      sink += b.SampleDuration(op, &rng);
    }
  });
  EmitRung("sim.vcr_behavior.sample_ns", sample_ns, "ns",
           "SampleOp + SampleDuration");
  const double gamma_ns = NsPerCall(5, 1 << 21, [&](int64_t calls) {
    for (int64_t i = 0; i < calls; ++i) sink += rng.Gamma(2.0, 4.0);
  });
  EmitRung("common.rng.gamma_ns", gamma_ns, "ns", "Rng::Gamma(2, 4)");
  const double horizon = in.warmup_minutes + in.measurement_minutes;
  const double lookup_ns = NsPerCall(5, 1 << 20, [&](int64_t calls) {
    for (int64_t i = 0; i < calls; ++i) {
      const PartitionSchedule& s = schedules[static_cast<size_t>(i) % movies];
      const double t = rng.Uniform(0.0, horizon);
      const auto k = s.FindCoveringStream(
          t, rng.Uniform(0.0, s.layout().movie_length()));
      sink += k.has_value() ? 1.0 : 0.0;
    }
  });
  EmitRung("sim.partition_schedule.lookup_ns", lookup_ns, "ns",
           "FindCoveringStream");
  KeepAlive(sink);

  // The rungs' sum against the measured driver whose heap the hold rung
  // was sized for, per viewer: the single-movie driver, the serial server,
  // or the workload's own 4-shard, 1-thread jobs.
  const double ops_per_viewer = static_cast<double>(own.resumes) /
                                static_cast<double>(own.viewers);
  const double explained = events_per_viewer * hold_ns +
                           ops_per_viewer * (sample_ns + lookup_ns);
  double measured = sim_ns_per_viewer;
  std::string measured_name = "sim.simulator.ns_per_viewer";
  if (in.workload == Workload::kCatalogSerial) {
    measured = server_ns_per_viewer;
    measured_name = "sim.server.ns_per_viewer";
  } else if (in.workload == Workload::kCatalogShardedFaults) {
    measured = job_ns_per_viewer;
    measured_name = "the timed jobs' ns per viewer";
  }
  EmitRung("ladder.explained_ns_per_viewer", explained, "ns",
           "events_per_viewer*hold + resumes_per_viewer*(sample+lookup)");
  EmitRung("ladder.unexplained_ns_per_viewer", measured - explained, "ns",
           measured_name + " minus the rungs' sum");

  if (emit_simulated_ratios) {
    EmitRung("sim.simulator.hit_ratio",
             static_cast<double>(single.releases) /
                 static_cast<double>(single.resumes),
             "ratio", "Fig. 7 reference run");
    for (const char* name :
         {"storage.resource_pool.refused_ratio",
          "sim.degradation.queue_grant_ratio", "sim.degradation.forced_reclaims",
          "storage.fault_injector.disk_failures"}) {
      EmitRung(name, 0.0, "ratio", "Fig. 7 reference run has no reserve");
    }
  }
  return failed;
}

/// Analytic-model and sizing-curve rungs on `specs` (the layouts and
/// behaviours the workload sizes or simulates).
void RunCoreLadder(const std::vector<MovieSizingSpec>& specs,
                   const std::vector<PartitionLayout>& layouts, Tracer* tracer) {
  const std::string job = "ladder";
  double sink = 0.0;
  const size_t n = specs.size();
  const double eval_ns = NsPerCall(3, static_cast<int64_t>(n), [&](int64_t) {
    for (size_t i = 0; i < n; ++i) {
      SpanScope span(tracer, "core.hit_model:HitProbability", job);
      auto model = AnalyticHitModel::Create(layouts[i], specs[i].rates);
      if (!model.ok()) continue;
      auto p = model->HitProbability(specs[i].mix, specs[i].durations);
      sink += p.ok() ? *p : 0.0;
    }
  });
  EmitRung("core.hit_model.eval_us", eval_ns * 1e-3, "us",
           "Create + HitProbability(mix) at the chosen (B, n)");
  std::vector<double> us_per_point;
  for (int r = 0; r < 3; ++r) {
    double seconds = 0.0;
    int64_t points = 0;
    for (const auto& spec : specs) {
      const int n_max = static_cast<int>(spec.length_minutes /
                                         spec.max_wait_minutes);
      const int step = std::max(1, n_max / 48);
      const auto t0 = Clock::now();
      SpanScope span(tracer, "core.sizing:ComputeSizingCurve", job);
      auto curve = ComputeSizingCurve(spec, step);
      seconds += SecondsBetween(t0, Clock::now());
      if (curve.ok()) points += static_cast<int64_t>(curve->size());
    }
    us_per_point.push_back(seconds * 1e6 / static_cast<double>(std::max<int64_t>(1, points)));
  }
  EmitRung("core.sizing.curve_point_us", Median(us_per_point), "us",
           "ComputeSizingCurve time per point");
  KeepAlive(sink);
}

/// Sizing specs and layouts describing a simulation workload's movies (one
/// per distinct layout), for the core rungs.
void SimWorkloadSpecs(const Inputs& in, std::vector<MovieSizingSpec>* specs,
                      std::vector<PartitionLayout>* layouts) {
  for (const auto& m : in.movies) {
    bool seen = false;
    for (const auto& l : *layouts) {
      seen = seen || (l.movie_length() == m.layout.movie_length() &&
                      l.streams() == m.layout.streams() &&
                      l.buffer_minutes() == m.layout.buffer_minutes());
    }
    if (seen) continue;
    MovieSizingSpec spec;
    spec.name = m.name;
    spec.length_minutes = m.layout.movie_length();
    spec.max_wait_minutes = m.layout.max_wait();
    spec.min_hit_probability = 0.5;
    spec.mix = m.behavior.mix;
    spec.durations = m.behavior.durations;
    spec.rates = paper::Rates();
    specs->push_back(spec);
    layouts->push_back(m.layout);
  }
}

// ---------------------------------------------------------------------------

/// Moves the calling thread round-robin over the CPUs it may run on. The
/// timed loop pins each job (each block of sizing queries) to the next CPU,
/// so that every run samples every CPU equally: on a shared host the CPUs
/// of one machine run the same job at speeds up to a third apart, and an
/// unpinned run reports whichever ones the scheduler happened to pick.
class CpuRotation {
 public:
  CpuRotation() {
    sched_getaffinity(0, sizeof(original_), &original_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Restore(); }

  /// Pins to the k-th CPU of the rotation; returns its number.
  int Pin(int64_t k) {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[static_cast<size_t>(k) % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return cpu;
  }
  /// Lets the thread run on every CPU it could at the start again.
  void Restore() { sched_setaffinity(0, sizeof(original_), &original_); }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

long PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int64_t min_jobs = -1;  ///< -1 = the workload's default
  bool plant = false;
  bool setup_only = false;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "vod_perfbench: %s\nusage: vod_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--min-jobs K] [--plant 1] [--setup-only 1]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--min-jobs") {
      args.min_jobs = std::atoll(value);
    } else if (key == "--plant") {
      args.plant = std::atoi(value) != 0;
    } else if (key == "--setup-only") {
      args.setup_only = std::atoi(value) != 0;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  const auto workload = ParseWorkload(args.workload);
  if (!workload) return Usage("unknown or missing --workload");

  // Build guard: numbers from unoptimized or assert-enabled builds are not
  // reported.
  bool release = std::strcmp(VOD_PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  JsonLine("build").Str("build_type", VOD_PERFBENCH_BUILD_TYPE)
      .Str("compiler", VOD_PERFBENCH_COMPILER).Bool("release", release)
      .Print();
  if (!release) {
    std::fprintf(stderr, "vod_perfbench: refusing to run a %s build\n",
                 VOD_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Set-up, counted from process start. run.py takes the set-up metric from
  // several --setup-only processes.
  Result<Inputs> built = BuildInputs(*workload, args.seed);
  const double setup_s = SecondsBetween(kProcessStart, Clock::now());
  const double setup_cpu_s = ProcessCpuSeconds();
  if (!built.ok()) {
    std::fprintf(stderr, "vod_perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *built;
  JsonLine("setup").Num("seconds", setup_s).Num("cpu_seconds", setup_cpu_s)
      .Num("reference_phit", in.reference_phit).Print();
  if (args.setup_only) return 0;

  Tracer tracer(args.trace);
  int failed = 0;
  int64_t attempted = 0;
  std::vector<double> timed_ns_per_viewer;  // untraced sim jobs after job 0
  const auto loop_start = Clock::now();
  const auto time_left = [&] {
    return SecondsBetween(loop_start, Clock::now()) < args.seconds;
  };

  if (*workload == Workload::kSizing) {
    const int64_t min_queries = args.min_jobs >= 0 ? args.min_jobs : 400;
    CpuRotation rotation;
    // The loop ends on a whole number of passes over the pool after the
    // first (warm-up) block, so every run times the same mix of queries.
    const auto mid_pass = [&](int64_t q) {
      return (q - kSystemQueryEvery) % kQueryPool != 0;
    };
    for (int64_t q = 0; q < min_queries || time_left() || mid_pass(q); ++q) {
      const int cpu = rotation.Pin(q / kSystemQueryEvery);
      // Traced runs alternate untraced and traced blocks of queries (each
      // block has the workload's mix), so the tracing overhead is measured
      // within one process.
      const bool traced = args.trace && (q / kSystemQueryEvery) % 2 == 1;
      Tracer off(false);
      Tracer* t = traced ? &tracer : &off;
      const std::string job = "q" + std::to_string(q);
      QueryResult r;
      {
        SpanScope root(t, "bench:query", job);
        r = RunQuery(in, q, t, job, root.id());
      }
      ++attempted;
      const bool planted = args.plant && q == 1;
      const bool ok = r.status.ok() && r.feasible && !planted;
      if (!ok) {
        ++failed;
        EmitCheck(job + ".answer", false,
                  r.status.ok() ? "infeasible answer: " + r.text
                                : r.status.ToString());
      }
      JsonLine("job").Int("id", q).Bool("traced", traced)
          .Str("type", q % kSystemQueryEvery == kSystemQueryEvery - 1 ? "system"
                                                                      : "movie")
          .Num("seconds", r.seconds).Num("cpu_seconds", r.cpu_seconds)
          .Int("work", 1).Int("cpu", cpu)
          .Str("digest", Hex(Fnv1a(r.text))).Bool("in_prefix", q < min_queries)
          .Print();
    }
    rotation.Restore();
    attempted += 6;
    failed += CheckExample1Goldens(args.plant);
  } else {
    const int64_t min_jobs =
        args.min_jobs >= 0 ? args.min_jobs
                           : (*workload == Workload::kFig7Mixed ? 6 : 3);
    std::string first_text;
    CpuRotation rotation;
    for (int64_t j = 0; j < min_jobs || time_left(); ++j) {
      const int cpu = rotation.Pin(j);
      const bool traced = args.trace && j % 2 == 1;
      Tracer off(false);
      Tracer* t = traced ? &tracer : &off;
      const std::string job = "j" + std::to_string(j);
      PhaseProfiler profiler;
      JobResult r;
      {
        SpanScope root(t, "bench:job", job);
        r = RunSimJob(in, JobSeed(args.seed, j), traced ? &profiler : nullptr,
                      t, job, root.id());
      }
      ++attempted;
      failed += CheckSimJob(in, j, r, args.plant && j == 1);
      if (j == 0) first_text = r.text;
      const SimCounts& c = r.counts;
      if (!traced && j >= 1 && c.viewers > 0) {
        timed_ns_per_viewer.push_back(r.seconds * 1e9 /
                                      static_cast<double>(c.viewers));
      }
      JsonLine("job").Int("id", j).Bool("traced", traced)
          .Num("seconds", r.seconds).Num("cpu_seconds", r.cpu_seconds)
          .Int("work", c.viewers).Int("cpu", cpu)
          .Int("events", static_cast<int64_t>(c.events))
          .Str("digest", Hex(Fnv1a(r.text))).Bool("in_prefix", j < min_jobs)
          .Int("resumes", c.resumes).Int("releases", c.releases)
          .Int("refused", c.refused).Int("granted", c.granted)
          .Int("queued", c.queued).Int("queue_grants", c.queue_grants)
          .Int("forced_reclaims", c.forced_reclaims)
          .Int("disk_failures", c.disk_failures).Num("mean_live", c.mean_live)
          .Num("phit", r.phit).Print();
    }
    rotation.Restore();
    // Untimed identity passes on job 0.
    if (*workload == Workload::kCatalogShardedFaults) {
      ++attempted;
      const int parallel = ParallelThreads();
      auto wide = RunShardedServerSimulation(
          in.movies, ShardedOptions(in, JobSeed(args.seed, 0), kShards, parallel));
      const bool ok = wide.ok() && wide->ToString() == first_text;
      if (!ok) ++failed;
      EmitCheck("job0.thread_count_identical", ok,
                wide.ok() ? (ok ? "byte-identical at " +
                                      std::to_string(parallel) + " threads vs " +
                                      std::to_string(kJobThreads)
                                : "report differs at " +
                                      std::to_string(parallel) + " threads")
                          : wide.status().ToString());
    }
    if (*workload != Workload::kFig7Mixed) {
      ++attempted;
      Result<std::string> audited = Status::Internal("unset");
      if (*workload == Workload::kCatalogSerial) {
        auto options = CatalogOptions(in, JobSeed(args.seed, 0));
        options.audit.enabled = true;
        auto r = RunServerSimulation(in.movies, options);
        audited = r.ok() ? Result<std::string>(r->ToString())
                         : Result<std::string>(r.status());
      } else {
        auto options =
            ShardedOptions(in, JobSeed(args.seed, 0), kShards, kJobThreads);
        options.base.audit.enabled = true;
        auto r = RunShardedServerSimulation(in.movies, options);
        audited = r.ok() ? Result<std::string>(r->ToString())
                         : Result<std::string>(r.status());
      }
      const bool ok = audited.ok() && *audited == first_text;
      if (!ok) ++failed;
      EmitCheck("job0.audited_identical", ok,
                audited.ok() ? (ok ? "conservation audit clean, report identical"
                                   : "audited report differs")
                             : audited.status().ToString());
    }
  }

  if (args.trace) {
    if (*workload == Workload::kSizing) {
      std::vector<PartitionLayout> layouts;
      std::vector<MovieSizingSpec> specs;
      for (size_t i = 0; i < 64 && i < in.queries.size(); ++i) {
        auto choice = MinimumBufferChoice(in.queries[i]);
        if (!choice.ok()) continue;
        auto layout = PartitionLayout::FromBuffer(
            in.queries[i].length_minutes, choice->streams,
            choice->buffer_minutes);
        if (!layout.ok()) continue;
        specs.push_back(in.queries[i]);
        layouts.push_back(*layout);
      }
      RunCoreLadder(specs, layouts, &tracer);
      auto fig7 = BuildInputs(Workload::kFig7Mixed, args.seed);
      if (fig7.ok()) {
        failed += RunSimLadder(*fig7, args.seed, &tracer, true, std::nan(""));
      }
    } else {
      std::vector<PartitionLayout> layouts;
      std::vector<MovieSizingSpec> specs;
      SimWorkloadSpecs(in, &specs, &layouts);
      RunCoreLadder(specs, layouts, &tracer);
      failed += RunSimLadder(in, args.seed, &tracer, false,
                             timed_ns_per_viewer.empty()
                                 ? std::nan("")
                                 : Median(timed_ns_per_viewer));
    }
    tracer.Flush();
  }

  JsonLine("rss").Int("peak_kib", PeakRssKib()).Print();
  JsonLine("end").Int("attempted", attempted).Int("failed", failed).Print();
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace vod

int main(int argc, char** argv) { return vod::perfbench::Main(argc, argv); }
