/// Pipeline benchmark: simulate -> CLG5 logs -> six-stage synthesis
/// -> CADJ -> Fig 3-5 analysis, timed per CLI step and per layer call.
///
///   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--size full|tiny] [--corrupt-cadj] [--source-id <id>]
///
/// One run: set up the workload's inputs three times (setup_s is the
/// median), run one discarded warm-up pass, then timed passes until
/// --seconds have elapsed. Every pass is checked against the references
/// made in set-up; a pass that throws or fails a check counts as failed.
/// --trace 1 alternates traced and untraced passes: per-layer metrics come
/// from the traced ones, and the gap between the two pass kinds' wall_s is
/// the tracing overhead. The last stdout line is the JSON result.
///
/// --size tiny shrinks every workload to run in seconds (self-tests);
/// --corrupt-cadj flips one CADJ byte after each pass so the self-tests can
/// prove the output checks fail when they should.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chisimnet/chisimnet.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using namespace chisimnet;
using pipebench::Span;
using pipebench::Tracer;

namespace {

// ---------------------------------------------------------------- workloads

/// Synthesis workers (threads or TCP ranks) on every workload: the host's
/// core count the benchmark was defined on.
constexpr unsigned kWorkers = 4;

struct Spec {
  std::string name;
  std::uint32_t persons = 0;
  std::uint32_t weeks = 1;
  int ranks = 4;
  bool disease = false;
  table::Hour windowStart = 0;
  table::Hour windowEnd = 168;
  /// Synthesis on the mp backend over loopback TCP, streamed to the CADJ
  /// by synthesizeToFile under a memory budget (else: shared backend, in
  /// memory, then toTriplets + saveTriplets).
  bool spill = false;
  std::uint64_t budgetBytes = 0;
  std::uint32_t mergeRowsPerShard = 0;  ///< 0 = the library's auto width
  /// Fig 3-5 analysis: clustering + transitivity, Louvain, ego network,
  /// per-age-group networks (else: degree fits and components only).
  bool figures = false;
  /// Free disk space a run asks for before it starts: one pass's logs and
  /// CADJ, the set-up's reference and, for the spill workload, its runs.
  std::uint64_t scratchMiB = 64;
};

std::vector<Spec> specs(bool tiny) {
  const auto scale = [tiny](std::uint32_t full, std::uint32_t small) {
    return tiny ? small : full;
  };
  // city-week simulates four weeks and synthesizes the last: a one-week
  // simulation of this city takes ~40 ms, and its median moved by a quarter
  // from run to run with the host's speed; four weeks average that out.
  Spec cityWeek;
  cityWeek.name = "city-week";
  cityWeek.weeks = tiny ? 1 : 4;
  cityWeek.windowStart = tiny ? 0 : 3 * 168;
  cityWeek.windowEnd = tiny ? 168 : 4 * 168;
  cityWeek.persons = scale(10'000, 2'000);
  cityWeek.scratchMiB = scale(200, 64);

  Spec spill;
  spill.name = "city-week-spill";
  spill.persons = scale(15'000, 2'000);
  spill.ranks = 1;  // a tens-of-milliseconds simulation: keep rank hand-offs out of it
  spill.spill = true;
  spill.budgetBytes = tiny ? (1ull << 20) : (12ull << 20);
  spill.mergeRowsPerShard = scale(1u << 13, 512);
  spill.scratchMiB = scale(400, 64);

  Spec figs;
  figs.name = "fig-analysis";
  figs.persons = scale(1'500, 1'200);
  figs.figures = true;
  figs.ranks = 1;

  Spec month;
  month.name = "abm-month";
  month.persons = scale(40'000, 2'000);
  month.weeks = 4;
  month.disease = true;
  month.scratchMiB = scale(300, 64);
  month.windowStart = 20 * 24;  // the third Sunday (days 5, 6 of a week are the weekend)
  month.windowEnd = 21 * 24;
  return {cityWeek, spill, figs, month};
}

// ----------------------------------------------------------- measurement

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of reaped children (TCP workers), user + system.
double childrenCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// VmHWM of a process in KiB (0 when it is gone).
std::uint64_t peakRssKiB(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Returns freed heap to the OS, then resets this process's VmHWM to its
/// current RSS, so a pass's peak does not depend on how much memory the
/// allocator happened to keep from the passes before it.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Polls /proc for this process's children and keeps each one's VmHWM, so
/// a pass's peak can fold in TCP workers that exit before it ends. A child
/// that grows in its last poll interval is under-counted by that growth.
class ChildPeakSampler {
 public:
  ChildPeakSampler() : thread_([this] { loop(); }) {}
  ~ChildPeakSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  ChildPeakSampler(const ChildPeakSampler&) = delete;
  ChildPeakSampler& operator=(const ChildPeakSampler&) = delete;

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    peaks_.clear();
  }

  /// Σ over children seen since reset() of their peak RSS, in KiB.
  std::uint64_t sumKiB() {
    sample();
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& [pid, kib] : peaks_) {
      total += kib;
    }
    return total;
  }

 private:
  void sample() {
    const std::string self = std::to_string(::getpid());
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator("/proc", ec)) {
      const std::string pid = entry.path().filename().string();
      if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      std::ifstream stat(entry.path() / "stat");
      std::string text;
      std::getline(stat, text);
      const auto close = text.rfind(')');
      if (close == std::string::npos) {
        continue;
      }
      std::istringstream fields(text.substr(close + 1));
      std::string state;
      std::string ppid;
      fields >> state >> ppid;
      if (ppid != self) {
        continue;
      }
      const std::uint64_t kib = peakRssKiB(pid);
      std::lock_guard<std::mutex> lock(mutex_);
      peaks_[pid] = std::max(peaks_[pid], kib);
    }
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      sample();
      lock.lock();
      wake_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stop_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::map<std::string, std::uint64_t> peaks_;
  std::thread thread_;
};

struct Summary {
  double median = 0.0;
  /// Highest whole percentile with at least ten samples above it (needs
  /// more than ten samples); -1 = none.
  int percentile = -1;
  double percentileValue = 0.0;
  std::size_t count = 0;
};

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  s.median = quantile(values, 0.5);
  if (values.size() > 10) {
    s.percentile = static_cast<int>(100 * (values.size() - 10) / values.size());
    s.percentileValue = quantile(values, s.percentile / 100.0);
  }
  return s;
}

// ------------------------------------------------------------- utilities

void require(bool condition, const std::string& what) {
  if (!condition) {
    throw std::runtime_error("check failed: " + what);
  }
}

std::vector<std::byte> readBytes(const fs::path& path) {
  std::vector<std::byte> bytes(fs::file_size(path));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  require(in.good(), "could not read " + path.string());
  return bytes;
}

std::uint32_t crcOf(const std::vector<std::byte>& bytes) {
  return util::crc32(std::span<const std::byte>(bytes.data(), bytes.size()));
}

void flipByte(const fs::path& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  const std::streamoff at = size / 2;
  char byte = 0;
  file.seekg(at);
  file.get(byte);
  file.seekp(at);
  file.put(static_cast<char>(byte ^ 0x5a));
}

/// The city of a workload is fixed (the library's default population seed),
/// like a census input: at a few thousand persons a new city per seed moves
/// the network's density, and so every timing, by more than any bound a
/// benchmark could hold. --seed drives what the persons do: schedules, the
/// epidemic and Louvain's visit order.
pop::SyntheticPopulation makePopulation(const Spec& spec) {
  pop::PopulationConfig config;
  config.personCount = spec.persons;
  return pop::SyntheticPopulation::generate(config);
}

abm::ModelStats simulate(const Spec& spec, std::uint64_t seed,
                         const pop::SyntheticPopulation& population,
                         const fs::path& logs) {
  abm::ModelConfig config;
  config.logDirectory = logs;
  config.rankCount = spec.ranks;
  config.weeks = spec.weeks;
  config.scheduleSeed = seed ^ 0x5eedULL;
  config.core = abm::ModelCore::kEventDriven;
  if (!spec.disease) {
    return abm::runModel(population, config);
  }
  abm::DiseaseConfig disease;
  disease.seed = seed + 1;
  abm::DiseaseStats epidemic;
  return abm::runModel(population, config, disease, epidemic);
}

net::SynthesisConfig sharedConfig(const Spec& spec) {
  net::SynthesisConfig config;
  config.windowStart = spec.windowStart;
  config.windowEnd = spec.windowEnd;
  config.workers = kWorkers;
  return config;
}

// ------------------------------------------------------------------ set-up

struct Reference {
  std::vector<std::byte> cadj;  ///< expected CADJ bytes of every pass
  std::uint64_t eventsLogged = 0;
};

/// Makes the workload's logs and its reference CADJ: brute force on the
/// window's events, or for the spill workload the dense shared-backend
/// path on the same logs.
Reference prepare(const Spec& spec, std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  const auto population = makePopulation(spec);
  const auto stats = simulate(spec, seed, population, dir / "logs");
  const auto files = elog::listLogFiles(dir / "logs");
  const fs::path cadj = dir / "reference.cadj";
  if (spec.spill) {
    net::NetworkSynthesizer dense(sharedConfig(spec));
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), cadj);
  } else {
    const auto events = elog::loadEvents(files, spec.windowStart, spec.windowEnd);
    sparse::saveAdjacency(
        net::bruteForceAdjacency(events, spec.windowStart, spec.windowEnd), cadj);
  }
  Reference reference;
  reference.cadj = readBytes(cadj);
  reference.eventsLogged = stats.eventsLogged;
  fs::remove_all(dir);
  return reference;
}

// -------------------------------------------------------------------- pass

struct PassResult {
  double wall = 0.0;
  double simulate = 0.0;
  double synthesize = 0.0;
  double analyze = 0.0;
  double peakRssMiB = 0.0;
  std::map<std::string, double> layer;  ///< per-layer metric -> value
  std::uint32_t cadjCrc = 0;
};

/// Reports the library's per-stage totals as child spans of the synthesis
/// call, laid end to end from its start (the stages interleave across
/// batches and overlap the prefetched load, so positions are nominal).
void addStageSpans(Tracer& tracer, const Span& call,
                   const net::SynthesisReport& report) {
  tracer.addReported("elog.load", call.id(), call.startUs(), report.loadSeconds);
  double at = call.startUs() + report.loadExposedSeconds * 1e6;
  const std::pair<const char*, double> stages[] = {
      {"net.subset", report.subsetSeconds},
      {"net.collocation", report.collocationSeconds},
      {"net.partition", report.partitionSeconds},
      {"net.adjacency", report.adjacencySeconds},
      {"net.reduce", report.reduceSeconds},
  };
  for (const auto& [name, seconds] : stages) {
    tracer.addReported(name, call.id(), at, seconds);
    at += seconds * 1e6;
  }
}

void recordSynthesisReport(const net::SynthesisReport& report,
                           std::map<std::string, double>& layer) {
  layer["elog.load_exposed_s"] = report.loadExposedSeconds;
  layer["elog.entries_loaded"] = static_cast<double>(report.logEntriesLoaded);
  layer["net.partition_imbalance"] = report.partitionImbalance;
  layer["net.busy_imbalance"] = report.adjacencyBusyImbalance;
  layer["net.places"] = static_cast<double>(report.placesProcessed);
  layer["net.collocation_nnz"] = static_cast<double>(report.collocationNnz);
  layer["net.edges"] = static_cast<double>(report.edges);
  layer["sparse.kernel_updates"] = static_cast<double>(report.kernelPairHourUpdates);
  layer["sparse.kernel_emits"] = static_cast<double>(report.kernelGlobalEmits);
  layer["runtime.bytes_scattered"] = static_cast<double>(report.bytesScattered);
  layer["runtime.bytes_returned"] = static_cast<double>(report.bytesReturned);
  layer["runtime.recoveries"] = static_cast<double>(
      report.commandRetries + report.workersRespawned + report.workersReconnected +
      static_cast<std::uint64_t>(report.ranksLost));
  layer["sparse.spill_runs"] = static_cast<double>(report.spillRunsWritten);
  layer["sparse.spilled_bytes"] = static_cast<double>(report.spilledBytes);
  layer["sparse.spill_amplification"] =
      report.edges == 0 ? 0.0
                        : static_cast<double>(report.spilledTriplets) /
                              static_cast<double>(report.edges);
  layer["sparse.compactions"] = static_cast<double>(report.spillCompactions);
  layer["sparse.peak_accumulator_bytes"] =
      static_cast<double>(report.peakAccumulatorBytes);
  layer["sparse.merge_cpu_s"] = report.mergeSeconds;
  layer["sparse.merge_segments"] = static_cast<double>(report.mergeSegmentsWritten);
}

struct Figures {
  std::vector<double> coefficients;
  double transitivity = 0.0;
  graph::CommunityAssignment communities;
  graph::Vertex egoSource = 0;
  graph::Graph ego;
  std::vector<std::vector<sparse::AdjacencyTriplet>> groupNetworks;
};

/// The lowest-id vertex of median degree: a typical person, whose radius-2
/// ego network (Figs 1-2) stays well inside the graph.
graph::Vertex egoSource(const std::vector<std::uint64_t>& degrees) {
  require(!degrees.empty(), "the network has no vertices");
  std::vector<std::uint64_t> sorted = degrees;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  const std::uint64_t median = sorted[sorted.size() / 2];
  const auto it = std::find(degrees.begin(), degrees.end(), median);
  return static_cast<graph::Vertex>(it - degrees.begin());
}

/// Edges of `network` with both endpoints selected by `keep`.
template <typename Keep>
std::uint64_t edgesWithin(const graph::Graph& network, Keep keep) {
  std::uint64_t count = 0;
  for (graph::Vertex v = 0; v < network.vertexCount(); ++v) {
    if (keep(v)) {
      for (const graph::Vertex w : network.neighbors(v)) {
        count += w > v && keep(w) ? 1 : 0;
      }
    }
  }
  return count;
}

/// Checks the Fig 1-5 outputs; returns the triangle count.
std::uint64_t checkFigures(const graph::Graph& network,
                           const pop::SyntheticPopulation& population,
                           const Figures& figures) {
  // Local clustering against a neighbour-pair oracle on a fixed sample.
  const graph::Vertex n = network.vertexCount();
  for (graph::Vertex k = 0; k < 32 && k < n; ++k) {
    const graph::Vertex v = static_cast<graph::Vertex>(
        static_cast<std::uint64_t>(k) * n / std::min<graph::Vertex>(32, n));
    const auto nbrs = network.neighbors(v);
    double expected = 0.0;
    if (nbrs.size() >= 2) {
      std::uint64_t closed = 0;
      for (std::size_t a = 0; a < nbrs.size(); ++a) {
        for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
          closed += network.hasEdge(nbrs[a], nbrs[b]) ? 1 : 0;
        }
      }
      const double d = static_cast<double>(nbrs.size());
      expected = static_cast<double>(closed) / (d * (d - 1.0) / 2.0);
    }
    require(std::fabs(figures.coefficients[v] - expected) <= 1e-12,
            "local clustering of vertex " + std::to_string(v) + " vs oracle");
  }
  // Global transitivity = 3 x triangles / triples, with each vertex's
  // triangles recovered from its coefficient.
  std::uint64_t triangles3 = 0;
  double triples = 0.0;
  for (graph::Vertex v = 0; v < n; ++v) {
    const double d = static_cast<double>(network.degree(v));
    const double pairs = d * (d - 1.0) / 2.0;
    triangles3 += static_cast<std::uint64_t>(std::llround(figures.coefficients[v] * pairs));
    triples += pairs;
  }
  require(triangles3 % 3 == 0, "per-vertex triangles sum to a multiple of 3");
  require(triples == 0.0 ||
              std::fabs(static_cast<double>(triangles3) / triples -
                        figures.transitivity) <= 1e-9,
          "global transitivity vs local clustering triangles");
  // Louvain modularity recomputed independently.
  const double q = graph::modularity(network, figures.communities.communityOf);
  require(std::fabs(q - figures.communities.modularity) <= 1e-9,
          "louvain modularity vs graph::modularity");
  // Every ego edge exists in the parent graph with the same weight, every
  // parent edge among the ego's vertices is in the ego (induced), and the
  // vertices are those within two hops of the source.
  require(figures.ego.vertexCount() > 0, "ego network is empty");
  std::vector<bool> inEgo(n, false);
  for (graph::Vertex u = 0; u < figures.ego.vertexCount(); ++u) {
    const auto pu = network.vertexForLabel(figures.ego.label(u));
    require(pu.has_value(), "ego vertex missing from parent graph");
    inEgo[*pu] = true;
    const auto nbrs = figures.ego.neighbors(u);
    const auto weights = figures.ego.edgeWeights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const auto pv = network.vertexForLabel(figures.ego.label(nbrs[e]));
      require(pv.has_value() && network.weightBetween(*pu, *pv) == weights[e],
              "ego edge missing from parent graph");
    }
  }
  require(edgesWithin(network, [&](graph::Vertex v) { return inEgo[v]; }) ==
              figures.ego.edgeCount(),
          "ego network misses parent edges among its vertices");
  std::vector<bool> twoHops(n, false);
  twoHops[figures.egoSource] = true;
  for (const graph::Vertex w : network.neighbors(figures.egoSource)) {
    twoHops[w] = true;
    for (const graph::Vertex x : network.neighbors(w)) {
      twoHops[x] = true;
    }
  }
  require(twoHops == inEgo, "ego vertices differ from the radius-2 neighbourhood");
  // A within-group network is the full network restricted to the group.
  for (std::size_t g = 0; g < figures.groupNetworks.size(); ++g) {
    const auto group = static_cast<pop::AgeGroup>(g);
    const auto inGroup = [&](std::uint32_t person) {
      return population.person(person).group == group;
    };
    for (const auto& t : figures.groupNetworks[g]) {
      const auto u = network.vertexForLabel(t.i);
      const auto v = network.vertexForLabel(t.j);
      require(inGroup(t.i) && inGroup(t.j) && u && v &&
                  network.weightBetween(*u, *v) == t.weight,
              "age-group edge differs from the full network");
    }
    require(edgesWithin(network, [&](graph::Vertex v) {
              return inGroup(network.label(v));
            }) == figures.groupNetworks[g].size(),
            "age-group network misses edges of the full network");
  }
  return triangles3 / 3;
}

PassResult runPass(const Spec& spec, std::uint64_t seed, const fs::path& dir,
                   Tracer& tracer, const Reference& reference, bool corrupt,
                   ChildPeakSampler* children) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path logs = dir / "logs";
  const fs::path cadj = dir / "network.cadj";
  const std::uint64_t firstSpan = tracer.lastId();
  PassResult result;
  resetPeakRss();
  if (children != nullptr) {
    children->reset();
  }

  Span pass(tracer, "pass");

  // chisim simulate: population + ABM until the logs are on disk.
  Span simulatePhase(tracer, "simulate");
  Span generate(tracer, "pop.generate");
  const auto population = makePopulation(spec);
  generate.arg("persons", static_cast<double>(population.persons().size()));
  generate.close();
  Span run(tracer, "abm.run");
  double cpu0 = processCpuSeconds();
  const abm::ModelStats stats = simulate(spec, seed, population, logs);
  result.layer["abm.cpu_s"] = processCpuSeconds() - cpu0;
  result.layer["abm.events_logged"] = static_cast<double>(stats.eventsLogged);
  result.layer["abm.hours_active"] = static_cast<double>(stats.hoursActive);
  result.layer["abm.migrations"] = static_cast<double>(stats.migrations);
  result.layer["abm.peak_queue_depth"] = static_cast<double>(stats.peakQueueDepth);
  result.layer["elog.bytes_written"] = static_cast<double>(stats.logBytes);
  run.arg("events", static_cast<double>(stats.eventsLogged));
  run.arg("log_bytes", static_cast<double>(stats.logBytes));
  run.close();
  result.simulate = simulatePhase.close();

  // chisim synthesize: logs -> CADJ on disk.
  const auto files = elog::listLogFiles(logs);
  Span synthesizePhase(tracer, "synthesize");
  {
    net::SynthesisConfig config = sharedConfig(spec);
    if (spec.spill) {
      config.backend = net::SynthesisBackend::kMessagePassing;
      config.transport = net::MpTransport::kTcp;
      config.memoryBudgetBytes = spec.budgetBytes;
      config.spillDir = dir / "spill";
      config.mergeRowsPerShard = spec.mergeRowsPerShard;
    }
    cpu0 = processCpuSeconds();
    const double children0 = childrenCpuSeconds();
    Span call(tracer, "net.synthesize");
    net::SynthesisReport report;
    std::optional<sparse::SymmetricAdjacency> adjacency;
    {
      net::NetworkSynthesizer synthesizer(config);
      if (spec.spill) {
        synthesizer.synthesizeToFile(files, cadj);
      } else {
        adjacency.emplace(synthesizer.synthesizeAdjacency(files));
      }
      report = synthesizer.report();
    }  // worker threads joined, TCP workers reaped
    result.layer["net.cpu_s"] =
        processCpuSeconds() - cpu0 + childrenCpuSeconds() - children0;
    call.arg("edges", static_cast<double>(report.edges));
    call.close();
    addStageSpans(tracer, call, report);
    recordSynthesisReport(report, result.layer);
    if (adjacency) {
      Span toTriplets(tracer, "sparse.to_triplets");
      const auto triplets = adjacency->toTriplets();
      toTriplets.close();
      adjacency.reset();
      Span save(tracer, "sparse.save");
      sparse::saveTriplets(triplets, cadj);
    }
  }
  result.synthesize = synthesizePhase.close();

  // chisim analyze: CADJ on disk -> figure statistics.
  Span analyzePhase(tracer, "analyze");
  cpu0 = processCpuSeconds();
  Span load(tracer, "sparse.load");
  auto triplets = sparse::loadTriplets(cadj);
  load.close();
  Span build(tracer, "graph.build");
  const graph::Graph network = graph::Graph::fromTriplets(triplets);
  build.close();
  triplets = {};
  result.layer["graph.memory_bytes"] = static_cast<double>(network.memoryBytes());
  Span fits(tracer, "stats.degree_fits");
  const auto degrees = graph::degreeSequence(network);
  const auto distribution = stats::frequencyDistribution(degrees);
  const auto powerLaw = stats::fitPowerLaw(distribution);
  const auto truncated = stats::fitTruncatedPowerLaw(distribution);
  const auto exponential = stats::fitExponential(distribution);
  fits.arg("alpha", powerLaw.alpha);
  fits.close();
  Span componentsCall(tracer, "graph.components");
  const auto components = graph::connectedComponents(network);
  componentsCall.close();
  Figures figures;
  if (spec.figures) {
    Span clustering(tracer, "graph.clustering");
    figures.coefficients = graph::localClusteringCoefficients(network);
    stats::Histogram histogram(0.0, 1.0, 20);
    histogram.addAll(figures.coefficients);
    clustering.close();
    Span transitivity(tracer, "graph.transitivity");
    figures.transitivity = graph::globalTransitivity(network);
    transitivity.close();
    Span louvain(tracer, "graph.louvain");
    util::Rng rng(seed);
    figures.communities = graph::louvain(network, rng);
    louvain.arg("levels", figures.communities.iterations);
    louvain.close();
    Span ego(tracer, "graph.ego");
    figures.egoSource = egoSource(degrees);
    figures.ego = graph::egoNetwork(network, figures.egoSource, 2);
    ego.close();
    Span ageGroups(tracer, "net.age_groups");
    Span loadEvents(tracer, "elog.load");
    const auto events = elog::loadEvents(files, spec.windowStart, spec.windowEnd);
    loadEvents.close();
    net::NetworkSynthesizer synthesizer(sharedConfig(spec));
    for (std::size_t g = 0; g < pop::kAgeGroupCount; ++g) {
      const auto groupEvents =
          net::eventsForAgeGroup(events, population, static_cast<pop::AgeGroup>(g));
      figures.groupNetworks.push_back(
          synthesizer.synthesizeAdjacency(groupEvents).toTriplets());
    }
    ageGroups.close();
    result.layer["graph.louvain_levels"] = figures.communities.iterations;
  }
  result.layer["graph.cpu_s"] = processCpuSeconds() - cpu0;
  result.analyze = analyzePhase.close();
  result.wall = pass.close();

  std::uint64_t peakKiB = peakRssKiB("self");
  if (children != nullptr) {
    peakKiB += children->sumKiB();
  }
  result.peakRssMiB = static_cast<double>(peakKiB) / 1024.0;

  // Per-layer times: Σ span seconds per name over this pass.
  for (const auto& [name, seconds] : tracer.secondsByName(firstSpan)) {
    result.layer[name + "_s"] = seconds;
  }

  // ---- output checks (untimed) ----
  if (corrupt) {
    flipByte(cadj);
  }
  const auto bytes = readBytes(cadj);
  result.cadjCrc = crcOf(bytes);
  result.layer["sparse.cadj_bytes"] = static_cast<double>(bytes.size());
  require(bytes == reference.cadj,
          spec.spill ? "CADJ bytes vs the dense path on the same logs"
                     : "CADJ bytes vs saveTriplets(bruteForceAdjacency)");
  require(stats.eventsLogged == reference.eventsLogged,
          "events logged vs the set-up simulation");
  std::uint64_t totalEntries = 0;
  for (const auto& file : files) {
    totalEntries += elog::ChunkedLogReader(file).totalEntries();
  }
  require(totalEntries == stats.eventsLogged,
          "sum of file totalEntries vs ModelStats::eventsLogged");
  result.layer["elog.selectivity"] =
      result.layer["elog.entries_loaded"] / static_cast<double>(totalEntries);
  require(network.edgeCount() == result.layer["net.edges"],
          "graph edges vs synthesized edges");
  std::uint64_t covered = 0;
  for (const std::uint64_t size : components.sizes) {
    covered += size;
  }
  require(covered == network.vertexCount(), "components cover every vertex");
  require(std::isfinite(truncated.alpha) && std::isfinite(exponential.cutoff),
          "degree fits are finite");
  if (spec.figures) {
    result.layer["graph.triangles"] =
        static_cast<double>(checkFigures(network, population, figures));
  }
  fs::remove_all(dir);
  return result;
}

// -------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s"},          {"simulate_s", "s"},    {"synthesize_s", "s"},
    {"analyze_s", "s"},       {"peak_rss_mib", "MiB"}, {"setup_s", "s"},
};

const std::vector<Metric> kPerLayer = {
    {"pop.generate_s", "s"},
    {"abm.run_s", "s"},
    {"abm.cpu_s", "s"},
    {"abm.events_logged", "count"},
    {"abm.hours_active", "count"},
    {"abm.migrations", "count"},
    {"abm.peak_queue_depth", "count"},
    {"elog.bytes_written", "bytes"},
    {"elog.load_s", "s"},
    {"elog.load_exposed_s", "s"},
    {"elog.entries_loaded", "count"},
    {"elog.selectivity", "ratio"},
    {"net.synthesize_s", "s"},
    {"net.subset_s", "s"},
    {"net.collocation_s", "s"},
    {"net.partition_s", "s"},
    {"net.adjacency_s", "s"},
    {"net.reduce_s", "s"},
    {"net.cpu_s", "s"},
    {"net.partition_imbalance", "ratio"},
    {"net.busy_imbalance", "ratio"},
    {"net.places", "count"},
    {"net.collocation_nnz", "count"},
    {"net.edges", "count"},
    {"net.age_groups_s", "s"},
    {"sparse.kernel_updates", "count"},
    {"sparse.kernel_emits", "count"},
    {"runtime.bytes_scattered", "bytes"},
    {"runtime.bytes_returned", "bytes"},
    {"runtime.recoveries", "count"},
    {"sparse.spill_runs", "count"},
    {"sparse.spilled_bytes", "bytes"},
    {"sparse.spill_amplification", "ratio"},
    {"sparse.compactions", "count"},
    {"sparse.peak_accumulator_bytes", "bytes"},
    {"sparse.merge_cpu_s", "s"},
    {"sparse.merge_segments", "count"},
    {"sparse.to_triplets_s", "s"},
    {"sparse.save_s", "s"},
    {"sparse.load_s", "s"},
    {"sparse.cadj_bytes", "bytes"},
    {"graph.build_s", "s"},
    {"graph.memory_bytes", "bytes"},
    {"graph.components_s", "s"},
    {"stats.degree_fits_s", "s"},
    {"graph.clustering_s", "s"},
    {"graph.transitivity_s", "s"},
    {"graph.triangles", "count"},
    {"graph.louvain_s", "s"},
    {"graph.louvain_levels", "count"},
    {"graph.ego_s", "s"},
    {"graph.cpu_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

std::string formatNumber(double value) {
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

void printMetric(const Metric& metric, const Summary& s) {
  std::cout << "  " << std::left << std::setw(32) << metric.name << std::right
            << " median " << std::setw(14) << formatNumber(s.median) << ' '
            << std::left << std::setw(6) << metric.unit << std::right;
  if (s.percentile >= 0) {
    std::cout << " p" << s.percentile << ' ' << formatNumber(s.percentileValue);
  } else {
    std::cout << " p-  (no percentile has 10 samples above it)";
  }
  std::cout << "  n=" << s.count << '\n';
}

// -------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string sourceId = "unknown";
};

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
      haveWorkload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      options.trace = v == "1";
    } else if (flag == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--size expects full or tiny");
      }
      options.tiny = v == "tiny";
    } else if (flag == "--corrupt-cadj") {
      options.corrupt = true;
    } else if (flag == "--source-id") {
      options.sourceId = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

/// Optimisation state read at compile time.
struct BuildState {
  bool optimized = false;
  bool ndebug = false;
  bool sanitized = false;
};

constexpr BuildState buildState() {
  BuildState state;
#ifdef __OPTIMIZE__
  state.optimized = true;
#endif
#ifdef NDEBUG
  state.ndebug = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  state.sanitized = true;
#endif
  return state;
}

constexpr int kMmapThreshold = 256 * 1024;

/// Removes the run's temp root on every exit path.
struct TempRoot {
  fs::path path;
  ~TempRoot() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

int runBenchmark(const Options& options) {
  const std::vector<Spec> all = specs(options.tiny);
  const auto found = std::find_if(all.begin(), all.end(), [&](const Spec& s) {
    return s.name == options.workload;
  });
  if (found == all.end()) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  const Spec& spec = *found;

  constexpr BuildState state = buildState();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "host: nproc=" << nproc << " compiler=\"" << __VERSION__
            << "\" source=" << options.sourceId
            << " optimize=" << (state.optimized ? 1 : 0)
            << " ndebug=" << (state.ndebug ? 1 : 0)
            << " sanitizer=" << (state.sanitized ? 1 : 0) << '\n';
  if (!state.optimized || !state.ndebug || state.sanitized) {
    std::cerr << "refusing to report: pipebench was built without "
                 "optimisation/NDEBUG or with a sanitizer\n";
    return 3;
  }
  std::cout << "workload: " << spec.name << " persons=" << spec.persons
            << " weeks=" << spec.weeks << " ranks=" << spec.ranks
            << " disease=" << spec.disease << " window=[" << spec.windowStart
            << ',' << spec.windowEnd << ") workers=" << kWorkers
            << (spec.spill ? " backend=mp/tcp spill budget=" +
                                 std::to_string(spec.budgetBytes >> 20) + "MiB"
                           : " backend=shared")
            << " figures=" << spec.figures << " seed=" << options.seed
            << (options.tiny ? " size=tiny" : "") << '\n';

  // Fix glibc's mmap threshold (here and, through the environment, in the
  // TCP workers) so freed large blocks go back to the OS. With the default
  // dynamic threshold the heap kept a varying amount of freed memory, and
  // one seed's pass peaks ranged 170-220 MiB on abm-month; fixed, 128-135.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  ::setenv("MALLOC_MMAP_THRESHOLD_", std::to_string(kMmapThreshold).c_str(), 1);

  TempRoot root;
  root.path = fs::current_path() / ".bench_tmp" /
              ("run-" + std::to_string(::getpid()));
  fs::remove_all(root.path);
  fs::create_directories(root.path);
  // TCP workers spill into temp_directory_path(): keep that in the root.
  ::setenv("TMPDIR", root.path.c_str(), 1);

  const fs::space_info space = fs::space(root.path);
  if (space.available < (spec.scratchMiB << 20)) {
    std::cerr << "not enough free space under " << root.path << ": need "
              << spec.scratchMiB << " MiB, have " << (space.available >> 20)
              << " MiB\n";
    return 1;
  }

  // Set-up, three times; setup_s is the median.
  std::vector<double> setupSeconds;
  Reference reference;
  for (int k = 0; k < 3; ++k) {
    const auto started = std::chrono::steady_clock::now();
    Reference made = prepare(spec, options.seed, root.path / "setup");
    setupSeconds.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count());
    if (k > 0 && made.cadj != reference.cadj) {
      std::cerr << "set-up is not deterministic: reference CADJ differs\n";
      return 1;
    }
    reference = std::move(made);
  }
  std::unique_ptr<ChildPeakSampler> children;
  if (spec.spill) {
    children = std::make_unique<ChildPeakSampler>();
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint32_t> firstCrc;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  Tracer quiet(false);
  Tracer tracer(true);  // keeps the spans of every traced pass
  const auto runOne = [&](bool withTrace) {
    ++attempted;
    try {
      PassResult result =
          runPass(spec, options.seed, root.path / "pass", withTrace ? tracer : quiet,
                  reference, options.corrupt, children.get());
      require(!firstCrc || result.cadjCrc == *firstCrc,
              "CADJ CRC differs from the first pass");
      firstCrc = result.cadjCrc;
      return std::optional<PassResult>(std::move(result));
    } catch (const std::exception& error) {
      ++failed;
      std::cerr << "pass " << attempted << " failed: " << error.what() << '\n';
      return std::optional<PassResult>();
    }
  };

  runOne(false);  // warm-up: checked, not timed
  const auto started = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const bool withTrace = options.trace && i % 2 == 0;
    if (auto result = runOne(withTrace)) {
      std::cout << "pass " << attempted << (withTrace ? " traced" : "")
                << ": wall " << formatNumber(result->wall) << " s, simulate "
                << formatNumber(result->simulate) << " s, synthesize "
                << formatNumber(result->synthesize) << " s, analyze "
                << formatNumber(result->analyze) << " s, peak "
                << formatNumber(result->peakRssMiB) << " MiB\n";
      (withTrace ? traced : untraced).push_back(std::move(*result));
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    // A traced run ends on an untraced pass so both kinds are measured.
    if (elapsed >= options.seconds && (!options.trace || i % 2 == 1)) {
      break;
    }
  }

  const auto collect = [](const std::vector<PassResult>& passes, auto field) {
    std::vector<double> values;
    for (const PassResult& pass : passes) {
      values.push_back(field(pass));
    }
    return values;
  };
  std::map<std::string, Summary> e2e;
  const std::pair<const char*, double PassResult::*> passMetrics[] = {
      {"wall_s", &PassResult::wall},
      {"simulate_s", &PassResult::simulate},
      {"synthesize_s", &PassResult::synthesize},
      {"analyze_s", &PassResult::analyze},
      {"peak_rss_mib", &PassResult::peakRssMiB},
  };
  for (const auto& [name, field] : passMetrics) {
    e2e[name] = summarize(collect(untraced, [field](const PassResult& p) { return p.*field; }));
  }
  e2e["setup_s"] = summarize(setupSeconds);

  std::map<std::string, Summary> layers;
  if (options.trace) {
    for (const Metric& metric : kPerLayer) {
      layers[metric.name] = summarize(collect(traced, [&](const PassResult& p) {
        const auto it = p.layer.find(metric.name);
        return it == p.layer.end() ? 0.0 : it->second;
      }));
    }
    const double tracedWall =
        summarize(collect(traced, [](const PassResult& p) { return p.wall; })).median;
    Summary& overhead = layers["trace.overhead_frac"];
    overhead.median = e2e["wall_s"].median > 0.0
                          ? tracedWall / e2e["wall_s"].median - 1.0
                          : 0.0;
    overhead.count = traced.size();
  }

  const bool correct = failed == 0 && !untraced.empty() &&
                       (!options.trace || !traced.empty());
  std::cout << "end to end (untraced passes; warm-up discarded):\n";
  for (const Metric& metric : kEndToEnd) {
    printMetric(metric, e2e[metric.name]);
  }
  std::cout << "  failed_frac " << formatNumber(static_cast<double>(failed) /
                                                static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " passes)\n";
  if (options.trace) {
    std::cout << "per layer (traced passes):\n";
    for (const Metric& metric : kPerLayer) {
      printMetric(metric, layers[metric.name]);
    }
    fs::create_directories(".bench_out");
    const std::string tracePath = ".bench_out/trace-" + spec.name + "-seed" +
                                  std::to_string(options.seed) + ".json";
    tracer.write(tracePath, {{"workload", spec.name},
                             {"seed", std::to_string(options.seed)},
                             {"source", options.sourceId},
                             {"nproc", std::to_string(nproc)},
                             {"compiler", __VERSION__}});
    std::cout << "trace: " << tracer.spans().size() << " spans -> "
              << tracePath << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const auto& names = options.trace ? kPerLayer : kEndToEnd;
  const auto& values = options.trace ? layers : e2e;
  for (std::size_t k = 0; k < names.size(); ++k) {
    json << (k == 0 ? "" : ", ") << '"' << names[k].name << "\": {\"value\": "
         << formatNumber(values.at(names[k].name).median) << ", \"unit\": \""
         << names[k].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // TCP workers re-exec /proc/self/exe; they must become workers before
  // anything else runs.
  if (const auto workerExit = net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  try {
    return runBenchmark(parseOptions(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "pipebench: " << error.what() << '\n';
    return 2;
  }
}
