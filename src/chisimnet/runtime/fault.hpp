#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// Deterministic fault injection for the synthesis pipeline.
///
/// Long multi-rank synthesis runs fail in ways unit tests never exercise:
/// a worker rank dies mid-stage, a payload arrives truncated, a decode
/// stalls. This module lets tests (and benches) script those failures at
/// named injection points — sites — that are compiled in permanently:
///
///   prefetch.decode     PrefetchingLoader producer, before each batch decode
///   driver.load         serial (non-prefetch) batch load in the driver
///   driver.subset       driver stage 2 (slice + place index + scatter)
///   driver.collocation  driver stage 3
///   driver.partition    driver stage 4
///   driver.adjacency    driver stage 5
///   driver.reduce       driver stage 6
///   driver.batch        after a batch completes (post-checkpoint)
///   mp.service.command  command service loop (RankTeam thread or TCP
///                       worker process), on each received command
///   mp.send             MessagePassingExecutor root, before each command send
///   mp.collect          MessagePassingExecutor root, before each reply wait
///   tcp.accept          TcpTransport root, per parsed worker hello (kThrow
///                       refuses the dial)
///   tcp.connect         TcpWorkerLink, per dial attempt (kThrow fails it)
///   tcp.delay           TcpTransport root, per outgoing wire frame (kDelay)
///   tcp.drop            TcpTransport root, per outgoing wire frame
///                       (kTruncate = torn write; kKillRank = drop the
///                       destination's connection, so the worker re-dials)
///   spill.write         SpillRunWriter::finish, after the run body is on
///                       disk but BEFORE the tmp→final rename (kThrow models
///                       a crash mid-spill leaving only a .tmp orphan)
///   spill.merge         SpillingAccumulator compaction, before the k-way
///                       merge of live runs begins
///   abm.step            ABM rank loop, top of each simulated hour (both
///                       cores); ordinal = the simulated hour, so a spec's
///                       exact hit means "at hour H" regardless of thread
///                       interleaving
///   abm.migrate.send    ABM rank loop, before each migration batch send;
///                       ordinal = the simulated hour
///   abm.log.flush       EventLogger::flush, before the chunk write;
///                       ordinal = the 1-based flush number of that logger
///   abm.ckpt.write      sim-checkpoint save, before a rank's state file is
///                       written; ordinal = the checkpointed hour
///
/// A site costs one relaxed atomic load when no plan is installed — the
/// hooks are always present, never a build flavor — and sites fire at
/// batch/command granularity, never inside per-row loops.
///
/// Plans are deterministic: a spec fires on an exact 1-based hit ordinal of
/// its site (optionally restricted to one rank), or on every hit, or — for
/// randomized soak runs — with a seeded probability whose draw sequence
/// depends only on the plan seed and the hit order.

namespace chisimnet::runtime {

enum class FaultAction : std::uint32_t {
  kNone = 0,
  /// Throw FaultInjected at the site.
  kThrow,
  /// Sleep `delayMs` at the site (models a straggler / stalled I/O).
  kDelay,
  /// Shrink the site's payload to `truncateTo` bytes (models a torn wire
  /// frame); sites without a payload treat it as kNone.
  kTruncate,
  /// Returned to the caller, which must simulate a dead rank (a service
  /// loop returns without replying and stays silent forever). At tcp.drop
  /// it severs the destination worker's connection instead.
  kKillRank,
  /// Raises SIGKILL against the *current* process — a real, unhandleable
  /// crash. Only meaningful inside a transport worker process (shipped
  /// there via the CHISIM_FAULT_PLAN environment plan); installing it in
  /// the root process kills the whole run.
  kKillProcess,
};

const char* faultActionName(FaultAction action) noexcept;

/// The exception kThrow raises. Derives from std::runtime_error so every
/// existing catch path treats it like a real runtime failure.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(std::string_view site, std::uint64_t hit);

  const std::string& site() const noexcept { return site_; }
  std::uint64_t hit() const noexcept { return hit_; }

 private:
  std::string site_;
  std::uint64_t hit_;
};

/// One scripted fault at one site.
struct FaultSpec {
  FaultAction action = FaultAction::kThrow;
  /// Fire on exactly this 1-based hit of the site; 0 = consider every hit.
  std::uint64_t hit = 0;
  /// When hit == 0: fire with this probability per hit (seeded, so the
  /// decision sequence is deterministic for a given plan seed). 1.0 fires
  /// on every hit.
  double probability = 1.0;
  /// Only fire when the site reports this rank; -1 matches any rank.
  int rank = -1;
  /// kDelay: milliseconds to sleep.
  std::uint32_t delayMs = 0;
  /// kTruncate: payload size to shrink to (no-op if already smaller).
  std::size_t truncateTo = 0;
};

/// Context a site passes to the plan. Everything is optional; a site that
/// has no rank or payload passes the defaults.
struct FaultSite {
  int rank = -1;
  /// Mutable payload for kTruncate sites (the bytes about to be sent).
  std::vector<std::byte>* payload = nullptr;
  /// Deterministic hit ordinal supplied by the site (e.g. the simulated
  /// hour at the ABM sites). When nonzero, an exact-hit spec matches
  /// `spec.hit == ordinal` instead of the global per-site hit counter —
  /// which interleaves nondeterministically when several rank threads
  /// fire the same site. 0 keeps the counter semantics.
  std::uint64_t ordinal = 0;
};

/// A scripted (or seeded-random) set of faults. Install with
/// fault::install / fault::ScopedFaultPlan; sites consult the installed
/// plan through fault::hit().
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0);

  /// Adds a fault at `site`; chainable. Thread-safe against firing sites.
  FaultPlan& at(std::string site, FaultSpec spec);

  /// Serializes seed + specs to a single line safe to ship through an
  /// environment variable across exec (CHISIM_FAULT_PLAN), so worker
  /// processes fault under the same plan as the root. Hit/acted counters
  /// are not carried: each process counts its own hits from zero.
  std::string encode() const;

  /// Inverse of encode(). Throws on malformed input.
  static std::unique_ptr<FaultPlan> decode(std::string_view text);

  /// Called by injection points. Applies kThrow (throws FaultInjected),
  /// kDelay (sleeps) and kTruncate (shrinks ctx.payload) internally;
  /// returns the action so callers can implement kKillRank.
  FaultAction fire(std::string_view site, FaultSite& ctx);

  /// Times `site` has fired fire() so far (hit, not necessarily acted on).
  std::uint64_t hitCount(std::string_view site) const;

  /// Times any spec actually acted at `site`.
  std::uint64_t actedCount(std::string_view site) const;

 private:
  mutable std::mutex mutex_;
  // std::map (not unordered_map) keeps lookups allocation-free for the
  // string_view -> string comparison via transparent less<>.
  std::map<std::string, std::vector<FaultSpec>, std::less<>> specs_;
  std::map<std::string, std::uint64_t, std::less<>> hits_;
  std::map<std::string, std::uint64_t, std::less<>> acted_;
  std::uint64_t seed_;
  std::uint64_t rngState_;
};

namespace fault {

/// Installs `plan` process-wide (nullptr uninstalls); returns the previous
/// plan. The caller keeps ownership and must keep the plan alive while
/// installed.
FaultPlan* install(FaultPlan* plan) noexcept;

/// True when a plan is installed. One relaxed atomic load — the entire
/// per-site cost when fault injection is idle.
bool armed() noexcept;

/// The currently installed plan (nullptr when disarmed). Used by the TCP
/// transport to forward the plan to spawned workers.
FaultPlan* current() noexcept;

/// Fires the installed plan at `site`; returns kNone when no plan is
/// installed. This is the function injection points call.
FaultAction hit(std::string_view site, FaultSite& ctx);
FaultAction hit(std::string_view site);

/// RAII plan installer for tests: installs on construction, restores the
/// previous plan on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan& plan) : previous_(install(&plan)) {}
  ~ScopedFaultPlan() { install(previous_); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan* previous_;
};

}  // namespace fault

}  // namespace chisimnet::runtime
