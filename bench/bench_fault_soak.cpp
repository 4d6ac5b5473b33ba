/// FAULT-SOAK — randomized fault-injection soak across backends and
/// transports.
///
/// The paper's synthesis runs are long batch jobs on shared clusters where
/// stragglers, torn messages, and killed processes are routine; the repo's
/// recovery machinery (retry, quarantine, respawn, reassignment,
/// checkpointing) exists to make those runs finish with the *same* network.
/// This soak generates a seeded probabilistic fault plan per iteration,
/// cycles through the shared-memory backend, the in-process message-passing
/// transport, and the loopback TCP transport, and requires every faulted
/// run to produce adjacency triplets bit-identical to a clean run.
///
/// Per-column recoverability rules (a plan must only inject faults the
/// column can survive):
///   shared      delays only — the shared-memory pool has no retry layer
///   mp-inproc   delays + command throws + torn frames + scripted rank
///               kills, under degrade policy with a command timeout
///   mp-tcp      the mp-inproc set plus real connection drops and torn
///               wire frames (the worker re-dials — the reconnect path)
///               and worker-side kill-process, absorbed by respawn and,
///               once the respawn budget drains, loss reassignment
///   abm-ckpt    the simulation side: a checkpointing ABM run killed at a
///               seeded random simulated hour (abm.step throw), resumed
///               from the last committed checkpoint, and required to
///               produce CLG5/CLX5 logs bit-identical to an uninterrupted
///               run — randomized over core, rank count and disease layer
///
/// Runs nightly in CI (not tier-1): ~24 seeds by default, --seeds N to
/// change, --smoke for a 6-seed PR-sized pass. Honors CHISIMNET_SCALE for
/// the input size only; the seed count is explicit so the nightly plan
/// stays >= 20 seeds regardless of scale.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chisimnet/abm/sim_checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/runtime/fault.hpp"

namespace {

using namespace chisimnet;
using runtime::FaultAction;
using runtime::FaultPlan;
using runtime::FaultSpec;

enum class Column { kShared, kMpInproc, kMpTcp, kAbmCkpt };
inline constexpr std::uint64_t kColumnCount = 4;

const char* columnName(Column column) {
  switch (column) {
    case Column::kShared:
      return "shared";
    case Column::kMpInproc:
      return "mp-inproc";
    case Column::kMpTcp:
      return "mp-tcp";
    case Column::kAbmCkpt:
      return "abm-ckpt";
  }
  return "?";
}

/// Fills a seeded probabilistic plan obeying the column's recoverability
/// rules. (FaultPlan owns a mutex, so it is filled in place, not returned.)
void makePlan(FaultPlan& plan, Column column, util::Rng& rng) {
  // Stragglers are survivable everywhere: short probabilistic delays on
  // the driver stages and the prefetch producer.
  for (const char* site : {"driver.load", "driver.collocation",
                           "driver.adjacency", "prefetch.decode"}) {
    if (rng.bernoulli(0.5)) {
      plan.at(site,
              FaultSpec{.action = FaultAction::kDelay,
                        .probability = rng.uniformReal(0.05, 0.3),
                        .delayMs = static_cast<std::uint32_t>(
                            1 + rng.uniformBelow(15))});
    }
  }
  if (column == Column::kShared) {
    return;  // delays only
  }
  // Message-passing columns: command failures and torn frames feed the
  // retry loop; scripted rank kills feed loss reassignment.
  if (rng.bernoulli(0.6)) {
    plan.at("mp.service.command",
            FaultSpec{.action = FaultAction::kThrow,
                      .probability = rng.uniformReal(0.02, 0.15)});
  }
  if (rng.bernoulli(0.5)) {
    plan.at("mp.send",
            FaultSpec{.action = FaultAction::kTruncate,
                      .probability = rng.uniformReal(0.02, 0.1),
                      .truncateTo = rng.uniformBelow(12)});
  }
  if (column == Column::kMpInproc) {
    if (rng.bernoulli(0.4)) {
      // Silent death of one scripted service rank (simulated in-process).
      plan.at("mp.service.command",
              FaultSpec{.action = FaultAction::kKillRank,
                        .hit = 1 + rng.uniformBelow(6),
                        .rank = static_cast<int>(1 + rng.uniformBelow(3))});
    }
    return;
  }
  // TCP column: real connection drops. A scripted kKillRank at tcp.drop
  // severs one live connection (the worker re-dials — the reconnect
  // path); probabilistic frame tears poison the worker's read side into a
  // re-dial as well; and a worker-side kill-process is a real process
  // death, absorbed by respawn (the plan is replayed into the respawned
  // child, so a hot streak can drain the budget into loss reassignment,
  // still recoverable).
  if (rng.bernoulli(0.6)) {
    plan.at("tcp.drop",
            FaultSpec{.action = FaultAction::kKillRank,
                      .hit = 1 + rng.uniformBelow(8)});
  }
  if (rng.bernoulli(0.4)) {
    plan.at("tcp.drop",
            FaultSpec{.action = FaultAction::kTruncate,
                      .probability = rng.uniformReal(0.01, 0.05),
                      .truncateTo = rng.uniformBelow(12)});
  }
  if (rng.bernoulli(0.3)) {
    plan.at("mp.service.command",
            FaultSpec{.action = FaultAction::kKillProcess,
                      .probability = rng.uniformReal(0.02, 0.1),
                      .rank = static_cast<int>(1 + rng.uniformBelow(3))});
  }
}

net::SynthesisConfig makeConfig(Column column, util::Rng& rng) {
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = 4;
  config.filesPerBatch = rng.bernoulli(0.5) ? 0 : 2 + rng.uniformBelow(3);
  config.prefetch = rng.bernoulli(0.7);
  if (column == Column::kShared) {
    return config;
  }
  config.backend = net::SynthesisBackend::kMessagePassing;
  config.faultPolicy = net::FaultPolicy::kDegrade;
  config.commandTimeoutMs = 600;
  config.commandMaxAttempts = 8;
  config.commandBackoffMs = 1;
  if (column == Column::kMpTcp) {
    config.transport = net::MpTransport::kTcp;
    config.heartbeatMs = 100;
    config.connectTimeoutMs = 2000;
    config.connectRetries = 3;
    config.reconnectGraceMs = 1500;
  }
  return config;
}

/// Every regular file in `dir`, name -> raw bytes.
std::map<std::string, std::string> readRawFiles(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[entry.path().filename().string()] = bytes.str();
  }
  return out;
}

/// One abm-ckpt soak iteration: clean run, killed-and-checkpointed run,
/// resume, byte compare. Returns "identical" or a failure description.
std::string soakAbmCheckpoint(const pop::SyntheticPopulation& population,
                              std::uint64_t seed, util::Rng& rng) {
  const auto scratch = std::filesystem::temp_directory_path() /
                       ("chisimnet_soak_abm_" + std::to_string(seed));
  std::filesystem::remove_all(scratch);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{scratch};

  abm::ModelConfig config;
  config.logDirectory = scratch / "clean";
  config.rankCount = 1 << rng.uniformBelow(3);  // 1, 2 or 4
  config.weeks = 1;
  config.scheduleSeed = 1000 + seed;
  config.core = rng.bernoulli(0.5) ? abm::ModelCore::kEventDriven
                                   : abm::ModelCore::kHourly;
  const bool disease = rng.bernoulli(0.5);
  const table::Hour killHour =
      static_cast<table::Hour>(20 + rng.uniformBelow(140));
  abm::DiseaseConfig diseaseConfig;
  diseaseConfig.seed = seed * 31 + 7;

  const auto run = [&](const abm::ModelConfig& modelConfig) {
    if (disease) {
      abm::DiseaseStats stats;
      return abm::runModel(population, modelConfig, diseaseConfig, stats);
    }
    return abm::runModel(population, modelConfig);
  };

  run(config);  // uninterrupted reference

  abm::ModelConfig crash = config;
  crash.logDirectory = scratch / "crash";
  crash.checkpointDir = scratch / "ckpt";
  crash.checkpointEveryHours = 12 + rng.uniformBelow(36);
  bool killed = false;
  try {
    FaultPlan plan(seed);
    plan.at("abm.step", FaultSpec{.action = FaultAction::kThrow,
                                  .hit = killHour});
    runtime::fault::ScopedFaultPlan scoped(plan);
    run(crash);
  } catch (const std::exception&) {
    killed = true;  // the injected kill; resume below
  }
  // The event core may skip the kill hour entirely when it is globally
  // quiet; the run then completes and the resume replays its tail from
  // the last checkpoint — still a valid byte-identity check.
  crash.resume = true;
  const abm::ModelStats stats = run(crash);
  if (killed && !stats.resumed) {
    return "NO-RESUME: killed run left no committed checkpoint";
  }

  const auto got = readRawFiles(crash.logDirectory);
  const auto want = readRawFiles(config.logDirectory);
  if (got.size() != want.size()) {
    return "MISMATCH: file count";
  }
  for (const auto& [name, bytes] : want) {
    const auto it = got.find(name);
    if (it == got.end() || it->second != bytes) {
      return "MISMATCH: " + name;
    }
  }
  return "identical";
}

}  // namespace

int main(int argc, char** argv) {
  // The TCP column re-enters this binary for its workers.
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  using namespace chisimnet;
  using namespace chisimnet::bench;

  std::uint64_t seedCount = 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      seedCount = 6;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seedCount = std::stoull(argv[++i]);
    } else {
      std::cerr << "usage: bench_fault_soak [--seeds N] [--smoke]\n";
      return 2;
    }
  }

  printHeader("FAULT-SOAK randomized fault injection",
              "§V: batch jobs on shared clusters must yield one network");

  const auto population = makePopulation(scaledPersons(4000));
  const SimulatedLogs logs = simulate(population, 6);
  std::cout << "log files: " << logs.files.size() << ", "
            << fmtCount(logs.stats.eventsLogged) << " entries, "
            << seedCount << " soak seeds\n\n";

  // Clean reference — every backend/transport/batching must match it
  // exactly (differential-tested in tier-1), so one run suffices.
  net::SynthesisConfig cleanConfig;
  cleanConfig.windowEnd = pop::kHoursPerWeek;
  cleanConfig.workers = 4;
  net::NetworkSynthesizer clean(cleanConfig);
  const auto reference = clean.synthesizeAdjacency(logs.files);
  const auto referenceTriplets = reference.toTriplets();
  std::cout << "clean reference: " << reference.edgeCount() << " edges\n\n";

  JsonReport json("fault_soak");
  json.put("bench", "fault_soak");
  json.put("seeds", seedCount);
  json.put("reference_edges", reference.edgeCount());

  std::uint64_t failures = 0;
  std::uint64_t abmSeeds = 0;
  std::uint64_t abmFailures = 0;
  std::uint64_t totalRetries = 0;
  std::uint64_t totalRespawns = 0;
  std::uint64_t totalReconnects = 0;
  std::uint64_t totalRanksLost = 0;
  std::cout
      << "  seed  column      result     retries  respawns  reconn  lost\n";
  for (std::uint64_t seed = 0; seed < seedCount; ++seed) {
    const Column column = static_cast<Column>(seed % kColumnCount);
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);

    std::string result = "identical";
    std::uint64_t retries = 0;
    std::uint64_t respawns = 0;
    std::uint64_t reconnects = 0;
    int ranksLost = 0;
    if (column == Column::kAbmCkpt) {
      // The simulation column exercises its own kill/checkpoint/resume
      // cycle instead of the synthesis fault plan.
      try {
        result = soakAbmCheckpoint(population, seed, rng);
      } catch (const std::exception& error) {
        result = std::string("THROW: ") + error.what();
      }
      ++abmSeeds;
      if (result != "identical") {
        ++failures;
        ++abmFailures;
      }
      std::cout << "  " << seed << "     " << columnName(column) << "  "
                << result << "  0  0  0  0\n";
      continue;
    }
    FaultPlan plan(seed);
    makePlan(plan, column, rng);
    net::SynthesisConfig config = makeConfig(column, rng);

    try {
      runtime::fault::ScopedFaultPlan scoped(plan);
      net::NetworkSynthesizer synthesizer(config);
      const auto adjacency = synthesizer.synthesizeAdjacency(logs.files);
      const auto& report = synthesizer.report();
      retries = report.commandRetries;
      respawns = report.workersRespawned;
      reconnects = report.workersReconnected;
      ranksLost = report.ranksLost;
      if (adjacency.toTriplets() != referenceTriplets) {
        result = "MISMATCH";
        ++failures;
      }
    } catch (const std::exception& error) {
      result = std::string("THROW: ") + error.what();
      ++failures;
    }
    totalRetries += retries;
    totalRespawns += respawns;
    totalReconnects += reconnects;
    totalRanksLost += static_cast<std::uint64_t>(ranksLost);
    std::cout << "  " << seed << "     " << columnName(column) << "  "
              << result << "  " << retries << "  " << respawns << "  "
              << reconnects << "  " << ranksLost << "\n";
  }

  json.put("failures", failures);
  json.put("abm_ckpt_seeds", abmSeeds);
  json.put("abm_ckpt_failures", abmFailures);
  json.put("total_command_retries", totalRetries);
  json.put("total_workers_respawned", totalRespawns);
  json.put("total_workers_reconnected", totalReconnects);
  json.put("total_ranks_lost", totalRanksLost);
  const auto jsonPath = json.write();
  std::cout << "\nsoak: " << seedCount << " seeds, " << failures
            << " failures, " << totalRetries << " retries, " << totalRespawns
            << " respawns, " << totalReconnects << " reconnects, "
            << totalRanksLost << " ranks lost\n"
            << "json: " << jsonPath.string() << "\n";
  if (failures > 0) {
    std::cout << "FAULT-SOAK FAILED\n";
    return 1;
  }
  std::cout << "all faulted runs bit-identical to the clean reference\n";
  return 0;
}
