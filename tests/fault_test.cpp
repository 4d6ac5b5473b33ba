#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/elog/prefetch.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/rng.hpp"
#include "scratch_dir.hpp"

/// Fault-tolerance suite: the deterministic injection framework itself,
/// the hardened comm layer, CLG5 decode-error context, input quarantine,
/// rank retry / loss recovery on the message-passing backend, and batch
/// checkpoint / kill-and-resume — including the two acceptance cases of
/// the fault-tolerant synthesis work: a permanently lost rank must not
/// change the output, and a killed-and-resumed run must be bit-identical
/// to an uninterrupted one on both backends.

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultInjected;
using runtime::FaultPlan;
using runtime::FaultSite;
using runtime::FaultSpec;
using table::Event;
using table::Hour;

// ---- local copies of the fuzz-harness fixtures (each test binary keeps
// its helpers in its own anonymous namespace) ----

struct FuzzCase {
  table::EventTable events;
  Hour windowStart = 0;
  Hour windowEnd = 0;
};

FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons = static_cast<std::uint32_t>(8 + rng.uniformBelow(48));
  const auto places = static_cast<std::uint32_t>(3 + rng.uniformBelow(10));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(8));
  out.windowEnd = out.windowStart + 24 + static_cast<Hour>(rng.uniformBelow(48));
  const std::size_t count = 80 + rng.uniformBelow(120);
  for (std::size_t i = 0; i < count; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(out.windowEnd + 8));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

std::vector<std::filesystem::path> writePlacePartitionedFiles(
    const table::EventTable& events, const std::filesystem::path& dir,
    int fileCount) {
  std::vector<std::vector<Event>> buffers(
      static_cast<std::size_t>(fileCount));
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const Event event = events.row(row);
    buffers[event.place % static_cast<std::uint32_t>(fileCount)].push_back(
        event);
  }
  std::vector<std::filesystem::path> files;
  for (int i = 0; i < fileCount; ++i) {
    const auto path = elog::logFilePath(dir, i);
    elog::ChunkedLogWriter writer(path);
    auto& buffer = buffers[static_cast<std::size_t>(i)];
    std::sort(buffer.begin(), buffer.end());
    for (std::size_t begin = 0; begin < buffer.size(); begin += 32) {
      const std::size_t end = std::min(buffer.size(), begin + 32);
      writer.writeChunk(
          std::span<const Event>(buffer.data() + begin, end - begin));
    }
    writer.close();
    files.push_back(path);
  }
  return files;
}

using testutil::ScratchDir;

void expectEqualAdjacency(const sparse::SymmetricAdjacency& got,
                          const sparse::SymmetricAdjacency& want,
                          const std::string& label) {
  EXPECT_EQ(got.edgeCount(), want.edgeCount()) << label;
  EXPECT_EQ(got.toTriplets(), want.toTriplets()) << label;
}

/// Truncates a CLG5 file to half its size: the footer is gone, so the
/// reader fails at header/footer level (chunkIndex -1).
void truncateFile(const std::filesystem::path& path) {
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
}

std::vector<Event> rowsOf(const table::EventTable& table) {
  std::vector<Event> rows;
  rows.reserve(table.size());
  for (std::uint64_t row = 0; row < table.size(); ++row) {
    rows.push_back(table.row(row));
  }
  return rows;
}

bool hasFault(const SynthesisReport& report, FaultEvent::Kind kind) {
  return std::any_of(
      report.faults.begin(), report.faults.end(),
      [kind](const FaultEvent& event) { return event.kind == kind; });
}

// ---- fault-injection framework ----

TEST(FaultPlanTest, IdleSitesAreInert) {
  ASSERT_FALSE(runtime::fault::armed());
  EXPECT_EQ(runtime::fault::hit("nowhere"), FaultAction::kNone);
}

TEST(FaultPlanTest, OrdinalFiresExactlyOnThatHit) {
  FaultPlan plan;
  plan.at("stage", FaultSpec{.action = FaultAction::kThrow, .hit = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);
  ASSERT_TRUE(runtime::fault::armed());
  EXPECT_EQ(runtime::fault::hit("stage"), FaultAction::kNone);
  try {
    runtime::fault::hit("stage");
    FAIL() << "hit 2 should have thrown";
  } catch (const FaultInjected& error) {
    EXPECT_EQ(error.site(), "stage");
    EXPECT_EQ(error.hit(), 2u);
    EXPECT_NE(std::string(error.what()).find("stage"), std::string::npos);
  }
  EXPECT_EQ(runtime::fault::hit("stage"), FaultAction::kNone);
  EXPECT_EQ(plan.hitCount("stage"), 3u);
  EXPECT_EQ(plan.actedCount("stage"), 1u);
  EXPECT_EQ(plan.hitCount("other"), 0u);
}

TEST(FaultPlanTest, RankFilterRestrictsFiring) {
  FaultPlan plan;
  plan.at("site", FaultSpec{.action = FaultAction::kKillRank, .rank = 3});
  runtime::fault::ScopedFaultPlan scoped(plan);
  FaultSite wrongRank{.rank = 2};
  EXPECT_EQ(runtime::fault::hit("site", wrongRank), FaultAction::kNone);
  FaultSite rightRank{.rank = 3};
  EXPECT_EQ(runtime::fault::hit("site", rightRank), FaultAction::kKillRank);
  EXPECT_EQ(plan.hitCount("site"), 2u);
  EXPECT_EQ(plan.actedCount("site"), 1u);
}

TEST(FaultPlanTest, TruncateShrinksThePayloadInPlace) {
  FaultPlan plan;
  plan.at("wire",
          FaultSpec{.action = FaultAction::kTruncate, .truncateTo = 4});
  runtime::fault::ScopedFaultPlan scoped(plan);
  std::vector<std::byte> payload(10, std::byte{0xAB});
  FaultSite site{.payload = &payload};
  EXPECT_EQ(runtime::fault::hit("wire", site), FaultAction::kTruncate);
  EXPECT_EQ(payload.size(), 4u);
  // A payload-less site treats truncation as a no-op, not a crash.
  EXPECT_EQ(runtime::fault::hit("wire"), FaultAction::kNone);
}

TEST(FaultPlanTest, SeededProbabilityIsDeterministic) {
  const auto decisions = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.at("soak", FaultSpec{.action = FaultAction::kDelay,
                              .probability = 0.5,
                              .delayMs = 0});
    runtime::fault::ScopedFaultPlan scoped(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(runtime::fault::hit("soak") == FaultAction::kDelay);
    }
    return fired;
  };
  const auto first = decisions(7);
  EXPECT_EQ(first, decisions(7));
  EXPECT_NE(first, decisions(8));
  // p = 0.5 over 64 draws: both outcomes occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST(FaultPlanTest, ScopedInstallRestoresThePreviousPlan) {
  FaultPlan outer;
  outer.at("x", FaultSpec{.action = FaultAction::kKillRank});
  runtime::fault::ScopedFaultPlan outerScope(outer);
  {
    FaultPlan inner;  // no specs: hits are counted but nothing acts
    runtime::fault::ScopedFaultPlan innerScope(inner);
    EXPECT_EQ(runtime::fault::hit("x"), FaultAction::kNone);
    EXPECT_EQ(inner.hitCount("x"), 1u);
    EXPECT_EQ(outer.hitCount("x"), 0u);
  }
  EXPECT_EQ(runtime::fault::hit("x"), FaultAction::kKillRank);
  EXPECT_EQ(outer.hitCount("x"), 1u);
}

// ---- hardened comm layer ----

TEST(CommHardeningTest, PayloadLengthValidation) {
  EXPECT_NO_THROW(runtime::validatePayloadLength(0));
  EXPECT_NO_THROW(runtime::validatePayloadLength(
      static_cast<std::int64_t>(runtime::kMaxPayloadBytes)));
  EXPECT_THROW(runtime::validatePayloadLength(-1), std::exception);
  EXPECT_THROW(runtime::validatePayloadLength(
                   static_cast<std::int64_t>(runtime::kMaxPayloadBytes) + 1),
               std::exception);
  try {
    runtime::validatePayloadLength(-5);
    FAIL();
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("payload"), std::string::npos);
  }
}

TEST(CommHardeningTest, RecvForTimesOutThenDelivers) {
  runtime::Communicator::run(2, [](runtime::RankHandle& handle) {
    constexpr int kTag = 7;
    if (handle.rank() == 1) {
      // Nothing sent yet: the deadline must expire, not hang.
      const auto before = std::chrono::steady_clock::now();
      EXPECT_FALSE(
          handle.recvFor(std::chrono::milliseconds(30), 0, kTag).has_value());
      EXPECT_GE(std::chrono::steady_clock::now() - before,
                std::chrono::milliseconds(25));
    }
    handle.barrier();
    if (handle.rank() == 0) {
      const std::uint64_t value = 42;
      handle.sendValue(1, kTag, value);
    } else {
      const auto message =
          handle.recvFor(std::chrono::milliseconds(5000), 0, kTag);
      ASSERT_TRUE(message.has_value());
      EXPECT_EQ(message->value<std::uint64_t>(), 42u);
    }
  });
}

TEST(CommHardeningTest, RankTeamHealthBookkeeping) {
  runtime::RankTeam team(3, [](runtime::RankHandle& handle) {
    handle.recv(0, 1);  // park until the stop message
  });
  EXPECT_EQ(team.liveCount(), 3);
  EXPECT_TRUE(team.isLive(1));
  team.markLost(1);
  team.markLost(1);  // idempotent
  EXPECT_FALSE(team.isLive(1));
  EXPECT_EQ(team.health(1), runtime::RankTeam::RankHealth::kLost);
  EXPECT_EQ(team.liveCount(), 2);
  EXPECT_EQ(team.lostCount(), 1);
  EXPECT_THROW(team.markLost(0), std::exception);  // the driver cannot die
  for (int rank = 1; rank < 3; ++rank) {
    team.root().sendValue(rank, 1, std::uint32_t{0});
  }
}

// ---- CLG5 decode errors carry file/chunk/offset context ----

TEST(Clg5ErrorTest, HeaderFailureNamesFileAndOffset) {
  ScratchDir scratch("fault_clg5_header");
  const auto path = scratch.path() / "garbage.clg5";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a clg5 file at all";
  }
  try {
    elog::ChunkedLogReader reader(path);
    FAIL() << "garbage header must not parse";
  } catch (const elog::Clg5Error& error) {
    EXPECT_EQ(error.file(), path);
    EXPECT_EQ(error.chunkIndex(), -1);
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos);
    EXPECT_NE(what.find("byte"), std::string::npos);
    EXPECT_FALSE(error.reason().empty());
  }
}

TEST(Clg5ErrorTest, ChunkFailureNamesChunkAndFirstRecord) {
  const FuzzCase fuzz = makeCase(12);
  ScratchDir scratch("fault_clg5_chunk");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 1);
  std::uint64_t chunkOffset = 0;
  std::uint32_t firstChunkEntries = 0;
  {
    elog::ChunkedLogReader reader(files[0]);
    ASSERT_GE(reader.chunks().size(), 2u) << "need a second chunk to corrupt";
    chunkOffset = reader.chunks()[1].offset;
    firstChunkEntries = reader.chunks()[0].entryCount;
  }
  {
    // Flip one payload byte of chunk 1 (24-byte chunk header, then payload)
    // so its CRC check fails.
    std::fstream file(files[0],
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(chunkOffset) + 26);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(static_cast<std::streamoff>(chunkOffset) + 26);
    file.write(&byte, 1);
  }
  elog::ChunkedLogReader reader(files[0]);
  EXPECT_NO_THROW(reader.readChunk(0));
  try {
    reader.readChunk(1);
    FAIL() << "corrupted chunk must not decode";
  } catch (const elog::Clg5Error& error) {
    EXPECT_EQ(error.chunkIndex(), 1);
    EXPECT_EQ(error.firstRecord(), firstChunkEntries);
    EXPECT_EQ(error.byteOffset(), chunkOffset);
    const std::string what = error.what();
    EXPECT_NE(what.find("chunk 1"), std::string::npos);
    EXPECT_NE(what.find(files[0].string()), std::string::npos);
  }
}

// ---- input quarantine ----

TEST(QuarantineTest, SerialAndParallelLoadersAgreeWithSurvivors) {
  const FuzzCase fuzz = makeCase(31);
  ScratchDir scratch("fault_quarantine");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  truncateFile(files[2]);

  std::vector<std::filesystem::path> survivors = files;
  survivors.erase(survivors.begin() + 2);
  const table::EventTable reference = elog::loadEvents(survivors, 0, 0xFFFFFFFFu);

  std::vector<elog::QuarantinedFile> quarantined;
  const table::EventTable serial =
      elog::loadEventsQuarantining(files, 0, 0xFFFFFFFFu, quarantined);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].file, files[2]);
  EXPECT_EQ(quarantined[0].chunkIndex, -1);
  EXPECT_FALSE(quarantined[0].reason.empty());
  // All-or-nothing: the surviving table equals a clean load over exactly
  // the other files.
  EXPECT_EQ(rowsOf(serial), rowsOf(reference));

  runtime::ThreadPool pool(3);
  std::vector<elog::QuarantinedFile> quarantinedParallel;
  const table::EventTable parallel = elog::loadEventsQuarantiningParallel(
      files, 0, 0xFFFFFFFFu, pool, quarantinedParallel);
  EXPECT_EQ(rowsOf(parallel), rowsOf(serial));
  ASSERT_EQ(quarantinedParallel.size(), 1u);
  EXPECT_EQ(quarantinedParallel[0].file, files[2]);
}

TEST(QuarantineTest, PrefetchLoaderReportsQuarantinePerBatch) {
  const FuzzCase fuzz = makeCase(45);
  ScratchDir scratch("fault_prefetch_quarantine");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);
  truncateFile(files[1]);

  elog::PrefetchingLoader::Options options;
  options.filesPerBatch = 1;
  options.quarantineCorrupt = true;
  elog::PrefetchingLoader loader(files, options);
  std::size_t batches = 0;
  std::size_t quarantinedTotal = 0;
  while (auto batch = loader.next()) {
    EXPECT_EQ(batch->filesInBatch, 1u);
    if (batches == 1) {
      ASSERT_EQ(batch->quarantined.size(), 1u);
      EXPECT_EQ(batch->quarantined[0].file, files[1]);
      EXPECT_EQ(batch->table.size(), 0u);
    }
    quarantinedTotal += batch->quarantined.size();
    ++batches;
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(quarantinedTotal, 1u);
}

// ---- PrefetchingLoader destructor regression ----

TEST(PrefetchDestructorTest, DestroyWithBufferedDecodeErrorDoesNotHang) {
  const FuzzCase fuzz = makeCase(52);
  ScratchDir scratch("fault_prefetch_dtor_err");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);
  truncateFile(files[0]);
  elog::PrefetchingLoader::Options options;
  options.filesPerBatch = 1;
  options.depth = 1;
  {
    elog::PrefetchingLoader loader(files, options);
    // Give the producer time to park the decode exception in the buffer,
    // then destroy without ever calling next(). The join must not hang or
    // rethrow on the destructor path.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(PrefetchDestructorTest, DestroyWhileWorkersAreMidDecodeDoesNotHang) {
  const FuzzCase fuzz = makeCase(53);
  ScratchDir scratch("fault_prefetch_dtor_busy");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  FaultPlan plan;
  plan.at("prefetch.decode",
          FaultSpec{.action = FaultAction::kDelay, .delayMs = 100});
  runtime::fault::ScopedFaultPlan scoped(plan);
  elog::PrefetchingLoader::Options options;
  options.filesPerBatch = 1;
  options.depth = 1;
  options.decodeWorkers = 2;
  {
    elog::PrefetchingLoader loader(files, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Producer is inside the delayed decode; destruction must cancel and
    // join without consuming the remaining batches.
  }
  EXPECT_GE(plan.hitCount("prefetch.decode"), 1u);
}

// ---- synthesis degrade mode: quarantined inputs ----

TEST(SynthesisDegradeTest, QuarantinedFileIsExcludedAndReported) {
  const FuzzCase fuzz = makeCase(61);
  ScratchDir scratch("fault_degrade");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  truncateFile(files[1]);
  std::vector<std::filesystem::path> survivors = files;
  survivors.erase(survivors.begin() + 1);
  const table::EventTable survivorEvents =
      elog::loadEvents(survivors, fuzz.windowStart, fuzz.windowEnd);
  const auto reference =
      bruteForceAdjacency(survivorEvents, fuzz.windowStart, fuzz.windowEnd);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.filesPerBatch = 2;
  config.faultPolicy = FaultPolicy::kDegrade;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    for (const bool prefetch : {false, true}) {
      config.backend = backend;
      config.prefetch = prefetch;
      NetworkSynthesizer synthesizer(config);
      const auto adjacency = synthesizer.synthesizeAdjacency(files);
      const std::string label = std::string(backendName(backend)) +
                                (prefetch ? " prefetch" : " serial");
      expectEqualAdjacency(adjacency, reference, label);
      const SynthesisReport& report = synthesizer.report();
      ASSERT_EQ(report.quarantined.size(), 1u) << label;
      EXPECT_EQ(report.quarantined[0].file, files[1]) << label;
      EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kFileQuarantined))
          << label;
    }
  }
}

TEST(SynthesisDegradeTest, QuarantineLimitAbortsTheRun) {
  const FuzzCase fuzz = makeCase(62);
  ScratchDir scratch("fault_degrade_limit");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  truncateFile(files[0]);
  truncateFile(files[2]);
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.prefetch = false;
  config.filesPerBatch = 1;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.maxQuarantinedFiles = 1;
  NetworkSynthesizer synthesizer(config);
  EXPECT_THROW(synthesizer.synthesizeAdjacency(files), std::exception);
}

TEST(SynthesisDegradeTest, FaultConfigIsValidated) {
  SynthesisConfig config;
  config.maxQuarantinedFiles = 3;  // requires kDegrade
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
  config = SynthesisConfig{};
  config.resume = true;  // requires checkpointDir
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
  config = SynthesisConfig{};
  config.commandMaxAttempts = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

// ---- message-passing backend: retry and rank loss ----

TEST(RankRetryTest, WorkerCommandFailureIsRetriedUnderDegrade) {
  const FuzzCase fuzz = makeCase(71);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandBackoffMs = 1;

  // The first command any service rank processes throws; the worker stays
  // in its loop and answers status=failed, and the root must retry.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kThrow, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(fuzz.events),
                       reference, "retry after worker throw");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_GE(report.commandRetries, 1u);
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kCommandRetry));
  EXPECT_EQ(plan.actedCount("mp.service.command"), 1u);
}

TEST(RankRetryTest, TruncatedCommandFrameIsRetried) {
  const FuzzCase fuzz = makeCase(72);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandBackoffMs = 1;

  // Torn wire frame: the first command sent to a worker is cut below even
  // its header. The worker answers failed with the epoch-0 wildcard and
  // the root resends an intact frame.
  FaultPlan plan;
  plan.at("mp.send", FaultSpec{.action = FaultAction::kTruncate,
                               .hit = 1,
                               .truncateTo = 6});
  runtime::fault::ScopedFaultPlan scoped(plan);
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(fuzz.events),
                       reference, "retry after truncated frame");
  EXPECT_GE(synthesizer.report().commandRetries, 1u);
}

TEST(RankRetryTest, FailFastSurfacesTheWorkerError) {
  const FuzzCase fuzz = makeCase(73);
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.backend = SynthesisBackend::kMessagePassing;
  // Default policy: fail fast.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kThrow, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);
  NetworkSynthesizer synthesizer(config);
  try {
    synthesizer.synthesizeAdjacency(fuzz.events);
    FAIL() << "fail-fast must surface the worker error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("failed on rank"),
              std::string::npos);
  }
  // The synthesizer (and its rank team) must still shut down cleanly after
  // the failure — covered by scope exit under ASan/TSan.
}

/// Acceptance: a worker rank dies permanently mid-run; the run completes
/// on the survivors, the output is unchanged, and the report says exactly
/// what happened.
TEST(RankLossTest, PermanentRankLossCompletesOnSurvivors) {
  const FuzzCase fuzz = makeCase(74);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("fault_rank_loss");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 4;
  config.backend = SynthesisBackend::kMessagePassing;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 250;
  config.commandMaxAttempts = 2;
  config.commandBackoffMs = 1;
  config.filesPerBatch = 2;

  // Rank 2 dies silently on its first command and never answers again.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kKillRank, .rank = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "rank loss");

  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kRankLost));
  for (const FaultEvent& event : report.faults) {
    if (event.kind == FaultEvent::Kind::kRankLost) {
      EXPECT_EQ(event.rank, 2);
      EXPECT_FALSE(event.detail.empty());
    }
  }
  EXPECT_EQ(report.batches, 2u);
  // Later batches are partitioned across the 3 survivors only.
  EXPECT_EQ(report.partitionLoads.size(), 3u);
  EXPECT_TRUE(report.quarantined.empty());

  // The same (degraded) synthesizer keeps working for further runs.
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(fuzz.events),
                       reference, "rank loss, second run");
}

// ---- batch checkpoint / resume ----

TEST(CheckpointTest, ManifestRoundTrips) {
  ScratchDir scratch("fault_manifest");
  sparse::SymmetricAdjacency adjacency(64);
  adjacency.add(1, 2, 3);
  adjacency.add(0, 5, 7);
  CheckpointManifest manifest;
  manifest.filesConsumed = 4;
  manifest.batchesDone = 2;
  manifest.configHash = 0xDEADBEEF;
  manifest.quarantined.push_back(elog::QuarantinedFile{
      "/logs/rank_0003.clg5", 7, 4096, "chunk crc mismatch, want 1 got 2"});
  saveCheckpoint(scratch.path(), manifest, adjacency);

  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->filesConsumed, 4u);
  EXPECT_EQ(loaded->batchesDone, 2u);
  EXPECT_EQ(loaded->configHash, 0xDEADBEEF);
  ASSERT_EQ(loaded->quarantined.size(), 1u);
  EXPECT_EQ(loaded->quarantined[0].file, "/logs/rank_0003.clg5");
  EXPECT_EQ(loaded->quarantined[0].chunkIndex, 7);
  EXPECT_EQ(loaded->quarantined[0].byteOffset, 4096u);
  EXPECT_EQ(loaded->quarantined[0].reason,
            "chunk crc mismatch, want 1 got 2");
  const auto restored = loadCheckpointAdjacency(scratch.path(), *loaded);
  EXPECT_EQ(restored.toTriplets(), adjacency.toTriplets());

  // A second checkpoint supersedes the first and GCs its adjacency file.
  manifest.filesConsumed = 6;
  saveCheckpoint(scratch.path(), manifest, adjacency);
  std::size_t adjacencyFiles = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    adjacencyFiles +=
        entry.path().filename().string().starts_with("adjacency.") ? 1 : 0;
  }
  EXPECT_EQ(adjacencyFiles, 1u);
  EXPECT_EQ(loadCheckpointManifest(scratch.path())->filesConsumed, 6u);
}

TEST(CheckpointTest, MissingCheckpointIsNullopt) {
  ScratchDir scratch("fault_no_manifest");
  EXPECT_FALSE(loadCheckpointManifest(scratch.path()).has_value());
}

/// Acceptance: kill the run between batches, resume, and require the
/// resumed result to be bit-identical to an uninterrupted run — on both
/// backends.
TEST(CheckpointTest, KillAndResumeIsBitIdentical) {
  const FuzzCase fuzz = makeCase(81);
  ScratchDir scratch("fault_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    const std::string label = backendName(backend);
    ScratchDir checkpoints("fault_resume_ckpt_" + label);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.backend = backend;
    config.filesPerBatch = 2;  // 3 batches over 6 files

    // Reference: one uninterrupted run, no checkpointing involved.
    NetworkSynthesizer uninterrupted(config);
    const auto reference = uninterrupted.synthesizeAdjacency(files);

    // Interrupted run: crash (injected throw) right after the second
    // batch's checkpoint hits disk.
    config.checkpointDir = checkpoints.path();
    {
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files), FaultInjected)
          << label;
      EXPECT_GE(interrupted.report().checkpointsWritten, 2u) << label;
    }
    const auto manifest = loadCheckpointManifest(checkpoints.path());
    ASSERT_TRUE(manifest.has_value()) << label;
    EXPECT_EQ(manifest->filesConsumed, 4u) << label;
    EXPECT_EQ(manifest->batchesDone, 2u) << label;

    // Resume and require bit-identical output.
    config.resume = true;
    NetworkSynthesizer resumed(config);
    const auto adjacency = resumed.synthesizeAdjacency(files);
    EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets()) << label;
    const SynthesisReport& report = resumed.report();
    EXPECT_TRUE(report.resumed) << label;
    EXPECT_EQ(report.filesSkippedByResume, 4u) << label;
    EXPECT_EQ(report.batches, 3u) << label;
    EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kResume)) << label;
    EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kCheckpoint)) << label;
  }
}

TEST(CheckpointTest, ResumeRejectsAMismatchedRun) {
  const FuzzCase fuzz = makeCase(82);
  ScratchDir scratch("fault_resume_mismatch");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  ScratchDir checkpoints("fault_resume_mismatch_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.filesPerBatch = 2;
  config.checkpointDir = checkpoints.path();
  {
    NetworkSynthesizer synthesizer(config);
    synthesizer.synthesizeAdjacency(files);
  }
  // Same checkpoint, different output-relevant config: refuse to resume.
  config.resume = true;
  config.windowEnd += 1;
  NetworkSynthesizer mismatched(config);
  EXPECT_THROW(mismatched.synthesizeAdjacency(files), std::runtime_error);

  // Resume against an empty directory: also a hard error, not a silent
  // from-scratch run.
  config.windowEnd -= 1;
  ScratchDir empty("fault_resume_empty_ckpt");
  config.checkpointDir = empty.path();
  NetworkSynthesizer missing(config);
  EXPECT_THROW(missing.synthesizeAdjacency(files), std::runtime_error);
}

// ---- memory-bounded (spill-mode) checkpointing ----

TEST(CheckpointTest, SpillManifestRoundTrips) {
  ScratchDir scratch("fault_spill_manifest");
  const auto spillDir = scratch.path() / "spill";
  std::filesystem::create_directories(spillDir);

  // Two real runs the manifest references, plus an orphan run and a .tmp
  // husk that the checkpoint GC must sweep.
  std::vector<sparse::SpillRunInfo> runs;
  for (int i = 0; i < 2; ++i) {
    sparse::SpillRunWriter writer(spillDir /
                                  ("run." + std::to_string(i) + ".spl"));
    writer.append(sparse::AdjacencyTriplet{
        static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + 3), 5});
    runs.push_back(writer.finish());
  }
  {
    sparse::SpillRunWriter orphan(spillDir / "run.9.spl");
    orphan.append(sparse::AdjacencyTriplet{7, 8, 1});
    orphan.finish();
    std::ofstream husk(spillDir / "run.5.spl.tmp");
    husk << "torn";
  }

  CheckpointManifest manifest;
  manifest.spillMode = true;
  manifest.filesConsumed = 4;
  manifest.batchesDone = 2;
  manifest.configHash = 0xFEEDFACE;
  for (const auto& run : runs) {
    manifest.spillRuns.push_back(SpillRunEntry{
        run.file.filename().string(), run.triplets, run.bytes});
  }
  saveSpillCheckpoint(scratch.path(), manifest, spillDir);

  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->spillMode);
  EXPECT_TRUE(loaded->adjacencyFile.empty());
  EXPECT_EQ(loaded->filesConsumed, 4u);
  EXPECT_EQ(loaded->batchesDone, 2u);
  EXPECT_EQ(loaded->configHash, 0xFEEDFACE);
  ASSERT_EQ(loaded->spillRuns.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded->spillRuns[i].file, runs[i].file.filename().string());
    EXPECT_EQ(loaded->spillRuns[i].triplets, runs[i].triplets);
    EXPECT_EQ(loaded->spillRuns[i].bytes, runs[i].bytes);
  }
  // A spill-mode manifest has no dense snapshot to load.
  EXPECT_THROW(loadCheckpointAdjacency(scratch.path(), *loaded),
               std::exception);

  // GC: referenced runs survive, the orphan and the .tmp husk are gone.
  EXPECT_TRUE(std::filesystem::exists(runs[0].file));
  EXPECT_TRUE(std::filesystem::exists(runs[1].file));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "run.9.spl"));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "run.5.spl.tmp"));
}

/// Acceptance: crash *inside a spill write* — after a spill-mode
/// checkpoint is durable — then resume, and require the resumed
/// memory-bounded run to be bit-identical to the unbounded dense path.
/// The budget is large so the only spill.write hits are the one-run-per-
/// batch checkpoint spills, which makes hit 2 land deterministically in
/// batch 2 on both backends: the crash tears batch 2's run file (the
/// writer unwinds its .tmp) while batch 1's manifest still resolves.
TEST(CheckpointTest, KillDuringSpillResumesBitIdentical) {
  const FuzzCase fuzz = makeCase(83);
  ScratchDir scratch("fault_spill_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);

  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    const std::string label = std::string(backendName(backend));
    ScratchDir checkpoints("fault_spill_resume_ckpt_" + label);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.backend = backend;
    config.filesPerBatch = 2;  // 3 batches over 6 files
    config.memoryBudgetBytes = std::uint64_t{64} << 20;
    config.checkpointDir = checkpoints.path();
    {
      FaultPlan plan;
      plan.at("spill.write",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files), FaultInjected)
          << label;
      EXPECT_GE(interrupted.report().checkpointsWritten, 1u) << label;
    }
    const auto manifest = loadCheckpointManifest(checkpoints.path());
    ASSERT_TRUE(manifest.has_value()) << label;
    EXPECT_TRUE(manifest->spillMode) << label;
    EXPECT_EQ(manifest->filesConsumed, 2u) << label;
    EXPECT_EQ(manifest->batchesDone, 1u) << label;
    ASSERT_FALSE(manifest->spillRuns.empty()) << label;
    for (const SpillRunEntry& run : manifest->spillRuns) {
      EXPECT_TRUE(std::filesystem::exists(checkpoints.path() / "spill" /
                                          run.file))
          << label << " " << run.file;
    }

    config.resume = true;
    NetworkSynthesizer resumed(config);
    const auto adjacency = resumed.synthesizeAdjacency(files);
    expectEqualAdjacency(adjacency, reference, label + " spill resume");
    const SynthesisReport& report = resumed.report();
    EXPECT_TRUE(report.resumed) << label;
    EXPECT_EQ(report.filesSkippedByResume, 2u) << label;
    EXPECT_GT(report.spillRunsWritten, 0u) << label;
    EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kResume)) << label;
  }
}

/// Kill during run compaction (the spill.merge site): the crash happens
/// before any compacted output replaces the inputs, so every input run is
/// still on disk, and an accumulator rebuilt over those runs — the resume
/// path's restoreRunFile — merges to exactly the pre-crash totals.
TEST(SpillFaultTest, KillDuringCompactionLeavesRunsRestorable) {
  ScratchDir scratch("fault_spill_merge");
  util::Rng rng(7);
  sparse::SymmetricAdjacency expected(64);

  sparse::SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.maxLiveRuns = 2;
  options.deferDeletes = true;
  sparse::SpillingAccumulator victim(options);

  FaultPlan plan;
  plan.at("spill.merge", FaultSpec{.action = FaultAction::kThrow, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  // Three spills of overlapping keys; the third pushes the live-run count
  // past maxLiveRuns and the injected fault kills the compaction.
  bool threw = false;
  for (int slice = 0; slice < 3; ++slice) {
    for (int n = 0; n < 400; ++n) {
      const auto i = static_cast<std::uint32_t>(rng.uniformBelow(40));
      auto j = static_cast<std::uint32_t>(rng.uniformBelow(40));
      if (i == j) j = (j + 1) % 40;
      const std::uint64_t weight = 1 + rng.uniformBelow(9);
      victim.add(i, j, weight);
      expected.add(i, j, weight);
    }
    try {
      victim.spillAll();
    } catch (const FaultInjected&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw);
  ASSERT_EQ(victim.liveRuns().size(), 3u);
  std::vector<sparse::SpillRunInfo> survivors = victim.liveRuns();
  for (const auto& run : survivors) {
    EXPECT_TRUE(std::filesystem::exists(run.file)) << run.file;
  }

  // "Resume": a fresh accumulator restores the surviving runs by name
  // (compaction now succeeds — the plan's single shot is spent) and the
  // merged stream matches the unbounded reference bit for bit.
  sparse::SpillingAccumulator resumed(options);
  for (const auto& run : survivors) {
    resumed.restoreRunFile(run);
  }
  const auto merged = resumed.finishMerge();
  std::vector<sparse::AdjacencyTriplet> drained;
  sparse::AdjacencyTriplet triplet;
  while (merged->next(triplet)) {
    drained.push_back(triplet);
  }
  EXPECT_EQ(drained, expected.toTriplets());
}

// ---- payload-cap regression ----

/// Regression for the silent scale ceiling: a stage-5 reply whose inline
/// triplets would exceed runtime::maxPayloadBytes() must come back as a
/// spilled run file, not abort the send. One crowded place gives ~4000
/// pairs (64 KiB inline) against a 16 KiB test cap.
TEST(PayloadCapTest, OversizedStageFiveReplySpillsInsteadOfAborting) {
  struct CapGuard {
    explicit CapGuard(std::uint64_t bytes) {
      runtime::setMaxPayloadBytesForTesting(bytes);
    }
    ~CapGuard() { runtime::setMaxPayloadBytesForTesting(0); }
  } guard(16 * 1024);

  table::EventTable events;
  for (std::uint32_t person = 0; person < 90; ++person) {
    events.append(Event{1, 5, person, 0, 0});
  }
  const auto reference = bruteForceAdjacency(events, 0, 8);
  ASSERT_GT(reference.edgeCount() * 16, std::uint64_t{16} * 1024);

  ScratchDir scratch("fault_payload_cap");
  const auto files = writePlacePartitionedFiles(events, scratch.path(), 2);

  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1}}) {
    SynthesisConfig config;
    config.windowStart = 0;
    config.windowEnd = 8;
    config.workers = 2;
    config.backend = SynthesisBackend::kMessagePassing;
    config.memoryBudgetBytes = budget;
    NetworkSynthesizer synthesizer(config);
    expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                         "payload cap, budget " + std::to_string(budget));
  }
}

}  // namespace
}  // namespace chisimnet::net
