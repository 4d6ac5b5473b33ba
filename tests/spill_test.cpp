#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/rng.hpp"
#include "scratch_dir.hpp"

/// Disk-spilling accumulation suite: the k-way loser-tree merge against a
/// brute-force sum, the CSPL1 run container (round trip, truncation and
/// bit-flip rejection with file + byte-offset context), and the
/// SpillingAccumulator's budget guarantee — peak resident bytes must never
/// exceed the configured cap, asserted here as a test, not just observed
/// in a bench.

namespace chisimnet::sparse {
namespace {

using testutil::ScratchDir;

/// A strictly key-ascending random run: distinct (i, j) pairs, sorted.
std::vector<AdjacencyTriplet> makeRun(util::Rng& rng, std::size_t size,
                                      std::uint32_t personSpace) {
  std::map<std::uint64_t, std::uint64_t> byKey;
  while (byKey.size() < size) {
    const auto a = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    const auto b = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    if (a == b) {
      continue;
    }
    byKey[packPair(a, b)] += 1 + rng.uniformBelow(100);
  }
  std::vector<AdjacencyTriplet> run;
  run.reserve(byKey.size());
  for (const auto& [key, weight] : byKey) {
    run.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return run;
}

/// Brute-force reference: sum every run into one key-ordered map.
std::vector<AdjacencyTriplet> bruteForceSum(
    const std::vector<std::vector<AdjacencyTriplet>>& runs) {
  std::map<std::uint64_t, std::uint64_t> sum;
  for (const auto& run : runs) {
    for (const AdjacencyTriplet& triplet : run) {
      sum[packPair(triplet.i, triplet.j)] += triplet.weight;
    }
  }
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(sum.size());
  for (const auto& [key, weight] : sum) {
    merged.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return merged;
}

std::vector<AdjacencyTriplet> drain(TripletSource& source) {
  std::vector<AdjacencyTriplet> out;
  AdjacencyTriplet triplet;
  while (source.next(triplet)) {
    out.push_back(triplet);
  }
  return out;
}

// ---- k-way merge properties ----

TEST(TripletMergerTest, RandomRunsMatchBruteForceSum) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(seed * 7919 + 3);
    const std::size_t runCount = rng.uniformBelow(9);  // 0..8 runs
    std::vector<std::vector<AdjacencyTriplet>> runs;
    for (std::size_t r = 0; r < runCount; ++r) {
      // Small person space forces key overlap across runs.
      runs.push_back(makeRun(rng, rng.uniformBelow(300), 40));
    }
    std::vector<std::span<const AdjacencyTriplet>> spans(runs.begin(),
                                                         runs.end());
    EXPECT_EQ(mergeKSortedTriplets(spans), bruteForceSum(runs))
        << "seed " << seed << ", " << runCount << " runs";
  }
}

TEST(TripletMergerTest, DuplicatePairsAcrossManyRunsSum) {
  // The same pair in five runs must come out once, with the summed weight.
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (std::uint64_t r = 0; r < 5; ++r) {
    runs.push_back({AdjacencyTriplet{2, 9, 10 + r},
                    AdjacencyTriplet{3, 7, 1}});
  }
  runs.push_back({AdjacencyTriplet{1, 2, 4}});
  std::vector<std::span<const AdjacencyTriplet>> spans(runs.begin(),
                                                       runs.end());
  const std::vector<AdjacencyTriplet> merged = mergeKSortedTriplets(spans);
  const std::vector<AdjacencyTriplet> want = {AdjacencyTriplet{1, 2, 4},
                                              AdjacencyTriplet{2, 9, 60},
                                              AdjacencyTriplet{3, 7, 5}};
  EXPECT_EQ(merged, bruteForceSum(runs));
  EXPECT_EQ(merged, want);
}

TEST(TripletMergerTest, DegenerateInputs) {
  // No sources at all.
  EXPECT_TRUE(mergeKSortedTriplets({}).empty());

  // A single run passes through unchanged.
  util::Rng rng(17);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 100, 64);
  const std::vector<std::span<const AdjacencyTriplet>> one = {run};
  EXPECT_EQ(mergeKSortedTriplets(one), run);

  // Empty runs beside real ones contribute nothing.
  const std::vector<AdjacencyTriplet> empty;
  const std::vector<std::span<const AdjacencyTriplet>> mixed = {empty, run,
                                                                empty};
  EXPECT_EQ(mergeKSortedTriplets(mixed), run);

  // Only empty runs.
  const std::vector<std::span<const AdjacencyTriplet>> empties = {empty,
                                                                  empty};
  EXPECT_TRUE(mergeKSortedTriplets(empties).empty());
}

TEST(TripletMergerTest, RejectsMisorderedSource) {
  const std::vector<AdjacencyTriplet> bad = {AdjacencyTriplet{5, 9, 1},
                                             AdjacencyTriplet{1, 2, 1}};
  SpanTripletSource source(bad);
  TripletMerger merger(std::vector<TripletSource*>{&source});
  // The merger validates as it advances; the violation surfaces while
  // draining (possibly on the very first pull, which pre-reads heads).
  EXPECT_THROW(drain(merger), std::runtime_error);
}

// ---- CSPL1 run container ----

TEST(SpillRunTest, RoundTripsAcrossFrameBoundaries) {
  ScratchDir scratch("spill_roundtrip");
  util::Rng rng(23);
  // > one frame (64 Ki rows) so the reader crosses a frame boundary.
  const std::vector<AdjacencyTriplet> run =
      makeRun(rng, kSpillFrameTriplets + 1000, 1u << 20);

  const std::filesystem::path path = scratch.path() / "run.0.spl";
  SpillRunWriter writer(path);
  writer.append(std::span<const AdjacencyTriplet>(run));
  const SpillRunInfo info = writer.finish();
  EXPECT_EQ(info.file, path);
  EXPECT_EQ(info.triplets, run.size());
  EXPECT_EQ(info.bytes, std::filesystem::file_size(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  SpillRunReader reader(path);
  EXPECT_EQ(reader.tripletCount(), run.size());
  EXPECT_EQ(drain(reader), run);
}

TEST(SpillRunTest, EmptyRunRoundTrips) {
  ScratchDir scratch("spill_empty");
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  SpillRunWriter writer(path);
  const SpillRunInfo info = writer.finish();
  EXPECT_EQ(info.triplets, 0u);
  SpillRunReader reader(path);
  EXPECT_TRUE(drain(reader).empty());
}

TEST(SpillRunTest, WriterRejectsMisorderedAppend) {
  ScratchDir scratch("spill_misordered");
  SpillRunWriter writer(scratch.path() / "run.0.spl");
  writer.append(AdjacencyTriplet{4, 8, 1});
  EXPECT_THROW(writer.append(AdjacencyTriplet{1, 2, 1}), std::runtime_error);
  // Duplicate keys are mis-ordered too (strictly ascending).
  EXPECT_THROW(writer.append(AdjacencyTriplet{4, 8, 2}), std::runtime_error);
}

TEST(SpillRunTest, AbandonedWriterLeavesNoFile) {
  ScratchDir scratch("spill_abandoned");
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(AdjacencyTriplet{1, 2, 3});
    // No finish(): models a crash mid-spill.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(SpillRunTest, TruncationIsRejectedWithFileAndOffset) {
  ScratchDir scratch("spill_truncated");
  util::Rng rng(29);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 5000, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Cut mid-frame: the payload read comes up short.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "truncated run should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}

TEST(SpillRunTest, HeaderCountMismatchIsRejected) {
  ScratchDir scratch("spill_count_mismatch");
  util::Rng rng(31);
  // Exactly one frame, then chop whole frames off by truncating at the
  // frame boundary: the per-frame CRCs still pass, but the header count
  // doesn't, which the clean-EOF path must catch.
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 100, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Header is 16 bytes; drop the single frame entirely.
  std::filesystem::resize_file(path, 16);
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "count mismatch should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("declares"), std::string::npos) << what;
  }
}

TEST(SpillRunTest, BitFlipIsRejectedWithCrcContext) {
  ScratchDir scratch("spill_bitflip");
  util::Rng rng(37);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 4000, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Flip one bit deep inside the frame payload (past header + frame
  // header), leaving structure intact so only the CRC can notice.
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(1024);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(1024);
    file.write(&byte, 1);
  }
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "bit-flipped run should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
  }
}

// ---- SpillingAccumulator ----

TEST(SpillingAccumulatorTest, MatchesBruteForceAcrossSpills) {
  ScratchDir scratch("spill_acc_bruteforce");
  util::Rng rng(41);
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 20000, 2000);

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.budgetBytes = 64 * 1024;  // tiny: forces many spills
  SpillingAccumulator accumulator(options);
  // Shuffled insert order must not matter.
  std::vector<AdjacencyTriplet> shuffled = adds;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniformBelow(i)]);
  }
  for (const AdjacencyTriplet& triplet : shuffled) {
    accumulator.add(triplet.i, triplet.j, triplet.weight);
  }
  EXPECT_GT(accumulator.stats().runsWritten, 0u);
  const auto merged = accumulator.finishMerge();
  EXPECT_EQ(drain(*merged), bruteForceSum({adds}));
}

TEST(SpillingAccumulatorTest, PeakNeverExceedsTheBudget) {
  // The tested guarantee, not a bench observation: with a budget of at
  // least a few MiB (above the 4 KiB threshold floor), the accumulator's
  // peak resident bytes — shard tables plus the spill-sort transient —
  // stay at or below the cap.
  ScratchDir scratch("spill_acc_budget");
  util::Rng rng(43);
  const std::uint64_t budget = 1 << 20;  // 1 MiB

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.budgetBytes = budget;
  SpillingAccumulator accumulator(options);
  std::map<std::uint64_t, std::uint64_t> reference;
  for (std::size_t i = 0; i < 300000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.uniformBelow(1u << 20));
    const auto b = static_cast<std::uint32_t>(rng.uniformBelow(1u << 20));
    if (a == b) {
      continue;
    }
    accumulator.add(a, b, 1);
    reference[packPair(a, b)] += 1;
    ASSERT_LE(accumulator.residentBytes(), budget);
  }
  EXPECT_GT(accumulator.stats().runsWritten, 0u);
  EXPECT_LE(accumulator.stats().peakResidentBytes, budget);

  std::vector<AdjacencyTriplet> want;
  want.reserve(reference.size());
  for (const auto& [key, weight] : reference) {
    want.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  const auto merged = accumulator.finishMerge();
  EXPECT_EQ(drain(*merged), want);
  // The merge-time spill counts toward the same peak guarantee.
  EXPECT_LE(accumulator.stats().peakResidentBytes, budget);
}

TEST(SpillingAccumulatorTest, CompactionBoundsLiveRuns) {
  ScratchDir scratch("spill_acc_compact");
  util::Rng rng(47);
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 6000, 500);

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.maxLiveRuns = 3;
  SpillingAccumulator accumulator(options);
  // Force many runs via explicit spillAll between slices.
  const std::size_t slice = adds.size() / 10;
  for (std::size_t begin = 0; begin < adds.size(); begin += slice) {
    const std::size_t end = std::min(adds.size(), begin + slice);
    for (std::size_t i = begin; i < end; ++i) {
      accumulator.add(adds[i].i, adds[i].j, adds[i].weight);
    }
    accumulator.spillAll();
    EXPECT_LE(accumulator.liveRuns().size(), options.maxLiveRuns);
  }
  EXPECT_GT(accumulator.stats().compactions, 0u);
  const auto merged = accumulator.finishMerge();
  EXPECT_EQ(drain(*merged), adds);
}

TEST(SpillingAccumulatorTest, AdoptRenamesIntoOwnNamespace) {
  ScratchDir scratch("spill_acc_adopt");
  // A worker-named run: after a resume, worker names restart from zero,
  // so adoption must move the file out of the collidable namespace.
  const std::filesystem::path workerFile = scratch.path() / "w0.b0.0.spl";
  SpillRunInfo info;
  {
    SpillRunWriter writer(workerFile);
    writer.append(AdjacencyTriplet{1, 2, 5});
    info = writer.finish();
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  accumulator.adoptRunFile(info);
  EXPECT_FALSE(std::filesystem::exists(workerFile));
  ASSERT_EQ(accumulator.liveRuns().size(), 1u);
  const std::string adopted =
      accumulator.liveRuns()[0].file.filename().string();
  EXPECT_TRUE(adopted.starts_with("run.")) << adopted;
  const auto merged = accumulator.finishMerge();
  EXPECT_EQ(drain(*merged),
            (std::vector<AdjacencyTriplet>{AdjacencyTriplet{1, 2, 5}}));
}

TEST(SpillingAccumulatorTest, RestoreKeepsTheManifestName) {
  ScratchDir scratch("spill_acc_restore");
  const std::filesystem::path runFile = scratch.path() / "run.3.spl";
  SpillRunInfo info;
  {
    SpillRunWriter writer(runFile);
    writer.append(AdjacencyTriplet{4, 9, 2});
    info = writer.finish();
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  accumulator.restoreRunFile(info);
  // Name preserved (the current manifest references it), and new runs
  // number above it instead of colliding.
  EXPECT_TRUE(std::filesystem::exists(runFile));
  accumulator.add(1, 2, 1);
  accumulator.spillAll();
  ASSERT_EQ(accumulator.liveRuns().size(), 2u);
  EXPECT_EQ(accumulator.liveRuns()[1].file.filename().string(), "run.4.spl");
}

}  // namespace
}  // namespace chisimnet::sparse
