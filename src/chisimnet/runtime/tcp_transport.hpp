#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/wire.hpp"

/// Multi-process TCP transport.
///
/// The paper's synthesis runs on real MPI processes; this transport is the
/// corresponding process boundary for chisimnet. Rank 0 listens; the N-1
/// workers dial in over TCP and speak the CSF1 framing of runtime/wire.hpp,
/// with TCP_NODELAY + keepalive on every connection. Workers are launched
/// three ways:
///
///   - loopback mode (default): the root fork/execs local worker processes
///     (re-entering this binary via a hidden `--worker` mode driven by
///     environment variables) pointed at its own 127.0.0.1 ephemeral port:
///     same machine, separate processes, real TCP;
///   - a job file of per-rank `host:port` connect targets (the CLI turns
///     spawning off and waits for workers launched out-of-band against
///     those addresses; with spawnWorkers the transport can instead fork
///     local workers pointed at them);
///   - externally: `chisim worker --connect host:port --rank N` on any
///     machine, with the root started under `--tcp-listen host:port`.
///
/// ## Handshake
///
/// The WORKER sends the hello: kind=hello, tag=rank, payload=[claimed
/// epoch u64] (0 on the first dial, the last granted epoch on a re-dial,
/// the slot's current epoch for a respawned child). The root validates
/// (rank in range, slot not live, claimed epoch matches the slot's: a
/// stale-epoch zombie or a double-connect is refused by closing the
/// socket) and answers kind=hello-ack, tag=granted epoch,
/// payload=application hello bytes (serialized stage parameters). Because
/// TCP preserves per-connection order, the worker holds the parameters
/// before any command can arrive.
///
/// ## Liveness: the slot machine
///
/// Each slot moves through:
///
///   connecting -> live -> disconnected -> reconnecting -+-> live
///                                                       +-> respawning
///                                                       +-> permanently
///                                                           dead
///
/// Death signals are socket EOF / torn frame in the pump, and ping silence
/// (heartbeatMissLimit * heartbeatMs without any frame), which poisons the
/// connection. A worker that re-dials within reconnectGraceMs replays the
/// hello with its last epoch, gets a bumped one, and resumes: the driver's
/// per-command timeout/retry re-sends anything lost mid-flight, which the
/// epoch-stamped reply protocol already tolerates.
///
/// The respawn arm applies to loopback children only (spawn mode); the
/// root cannot re-exec an external worker. A child reaped by waitpid
/// cannot re-dial, and a live child still silent when the grace window
/// closes is SIGKILLed. Either way, while the rank has spawned fewer than
/// maxRespawns replacements, a fresh child is exec'd for it. It carries
/// the slot's current epoch in its environment, so its first hello passes
/// the epoch check like a re-dial. The replacement gets
/// max(reconnectGraceMs, connectTimeoutMs) to dial in. Nothing is respawned
/// once the transport is quiesced or the rank forsaken. A slot with no
/// respawn left (or an external slot) whose window closes is declared
/// permanently dead, and recvFor() on it fails fast, so the driver
/// converges to markLost + reassignment.
///
/// ## Fault sites
///
///   tcp.accept    root, per parsed hello (rank known)   kThrow refuses
///   tcp.connect   worker, per dial attempt              kThrow fails it
///   tcp.delay     root send path, per frame             kDelay stalls
///   tcp.drop      root send path, per frame             kKillRank drops
///                 the connection (the live worker re-dials: the
///                 reconnect path); kTruncate tears the frame (the worker
///                 poisons its read side and re-dials)
///
/// Addressing is `host:port` strings end to end; the transport trusts its
/// network (see DESIGN.md §3.10 for the TLS seam).

namespace chisimnet::runtime {

/// Environment variables that carry the worker bootstrap across exec.
inline constexpr const char* kWorkerTcpEnv = "CHISIM_WORKER_TCP";
inline constexpr const char* kWorkerRankEnv = "CHISIM_WORKER_RANK";
inline constexpr const char* kWorkerRankCountEnv = "CHISIM_WORKER_RANKS";
inline constexpr const char* kWorkerEpochEnv = "CHISIM_WORKER_EPOCH";
inline constexpr const char* kWorkerFaultPlanEnv = "CHISIM_FAULT_PLAN";
inline constexpr const char* kWorkerConnectTimeoutEnv =
    "CHISIM_WORKER_CONNECT_TIMEOUT_MS";
inline constexpr const char* kWorkerConnectRetriesEnv =
    "CHISIM_WORKER_CONNECT_RETRIES";

/// Splits "host:port" (the last ':' separates the port, so bracketless
/// IPv6 is not supported — documented). Throws on malformed input.
std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec);

/// Dials host:port once with a poll()-based timeout (non-blocking connect,
/// restored to blocking on success). Returns the connected fd, already
/// configured via wire::configureStreamSocket(fd, /*tcp=*/true). Throws on
/// failure or timeout. Fires fault site "tcp.connect" (rank = `rank`) per
/// attempt when a plan is armed.
int dialOnce(const std::string& host, std::uint16_t port,
             std::chrono::milliseconds timeout, int rank);

/// dialOnce with `1 + retries` total attempts and exponential backoff
/// (base `backoffMs`, doubling, capped) between them. Throws when every
/// attempt fails.
int dialWithRetry(const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds perAttemptTimeout, int retries,
                  std::uint64_t backoffMs, int rank);

struct TcpTransportOptions {
  /// Total ranks including the local root (rank 0).
  int rankCount = 0;

  /// Monitor cadence: ping period and silence-detection granularity.
  std::uint64_t heartbeatMs = 250;

  /// A connection silent for heartbeatMissLimit * heartbeatMs is presumed
  /// half-open and poisoned (shutdown; the worker, if alive, re-dials).
  int heartbeatMissLimit = 8;

  /// Spawn mode: times a rank's child may be re-exec'd after it dies (or
  /// stays silent past the grace window). 0 disables respawn.
  int maxRespawns = 1;

  /// Per-attempt connect/handshake timeout.
  std::uint64_t connectTimeoutMs = 5000;

  /// Additional dial attempts after the first (worker side, propagated to
  /// spawned workers; also bounds the root's wait for initial connects).
  int connectRetries = 5;

  /// How long a disconnected worker may take to re-dial before the rank
  /// is declared permanently dead. 0 = no grace: first disconnect is
  /// permanent loss.
  std::uint64_t reconnectGraceMs = 3000;

  /// Listen address. Port 0 binds an ephemeral port (loopback CI mode).
  std::string listenHost = "127.0.0.1";
  std::uint16_t listenPort = 0;

  /// Loopback mode: fork/exec one local worker process per rank, pointed
  /// at connectAddresses[rank-1] (or this root's own listen address when
  /// the list is empty/short). false = external workers dial in on their
  /// own (`chisim worker --connect`).
  bool spawnWorkers = true;

  /// Per-worker connect targets, one per rank 1..rankCount-1 (the "job
  /// file" of host:port slots). Empty entries and missing tails default
  /// to the root's own listen address.
  std::vector<std::string> connectAddresses;

  /// Worker binary for spawn mode; empty means /proc/self/exe.
  std::string executable;

  /// Application handshake payload carried in every hello-ack (e.g.
  /// serialized stage parameters), including reconnect replays.
  std::vector<std::byte> helloPayload;
};

/// Root side of the TCP transport (rank 0 is the calling process).
class TcpTransport final : public Transport {
 public:
  /// Binds, listens, and (in spawn mode) launches the local workers. Does
  /// NOT wait for them to connect — call waitForWorkers() before first
  /// use so external workers can be started against the bound port.
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  /// The bound listen port (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until every worker slot has completed its first handshake;
  /// false on timeout.
  bool waitForWorkers(std::chrono::milliseconds timeout);

  int size() const noexcept override { return options_.rankCount; }
  void send(int self, int dest, int tag,
            std::span<const std::byte> payload) override;
  Message recv(int self, int source, int tag) override;
  std::optional<Message> recvFor(int self, std::chrono::milliseconds timeout,
                                 int source, int tag) override;
  bool tryRecv(int self, Message& out, int source, int tag) override;
  std::size_t pendingMessages(int self) const override;
  void barrier(int self) override;
  void abort() noexcept override;
  void quiesce() noexcept override;
  void forsakeRank(int rank) override;

  /// True once `rank` is past its reconnect grace with no respawn left (or
  /// forsaken): the driver should mark it lost.
  bool isPermanentlyDead(int rank) const;

  /// Spawn mode: current pid of the local worker backing `rank`, or -1
  /// (always -1 for external workers). Lets tests deliver a raw SIGKILL.
  pid_t workerPid(int rank) const;

  /// Worker lifecycle events since the last drain (for the driver's fault
  /// log / SynthesisReport counters).
  struct WorkerEvent {
    enum class Kind { kReconnect, kRespawn, kPermanentDeath };
    Kind kind = Kind::kReconnect;
    int rank = -1;
    std::string detail;
  };
  std::vector<WorkerEvent> drainEvents();

 private:
  struct Slot {
    std::mutex writeMutex;     // serializes frame writes; guards fd for I/O
    int fd = -1;               // -1 when no live connection
    pid_t pid = -1;            // spawn-mode child; -1 for external workers
    std::uint64_t epoch = 0;   // last granted epoch; bumped per hello
    bool live = false;         // handshake done, pump running
    bool deadPending = false;  // pump noticed death; monitor classifies
    bool reconnecting = false;  // waiting out the grace window
    std::chrono::steady_clock::time_point disconnectAt{};
    bool permanentlyDead = false;
    bool forsaken = false;
    bool processGone = false;  // spawn mode: child reaped; no re-dial can come
    int respawns = 0;          // spawn mode: replacement children exec'd
    bool respawning = false;   // a replacement is booting; its hello is
                               // admitted as a respawn, not a reconnect
    std::string lastDeathDetail;
  };

  Slot& slot(int rank) const;

  /// fork/exec one local worker pointed at `connectAddresses[rank-1]`,
  /// claiming the slot's current epoch in its first hello.
  void spawnWorker(int rank);

  /// Accept-loop thread body: accepts dials and re-dials for the life of
  /// the transport, running the hello handshake inline (deadline reads; a
  /// bad, oversize, stale-epoch, or double-connect hello just closes that
  /// socket — the transport itself is never poisoned by a bad dialer).
  void acceptLoop();

  /// Validates one parsed hello and, if granted, installs the connection
  /// into its slot (ack written, pump started). Returns false when the
  /// dial was refused (caller closes the fd).
  bool admitWorker(int fd, int rank, std::uint64_t claimedEpoch);

  /// Reader thread for one worker connection; posts data frames into the
  /// root queue and flags death on EOF / torn frames.
  void pumpLoop(int rank, std::uint64_t epoch, int fd);

  /// Poisons the connection so the pump wakes with EOF; does not close.
  void shutdownSlotFd(Slot& s) noexcept;

  /// Closes the slot's fd under the write mutex (safe against in-flight
  /// sends; prevents fd-number reuse races).
  void closeSlotFd(Slot& s) noexcept;

  void monitorTick();
  void flagDeath(int rank, std::uint64_t epoch, const std::string& detail);
  void noteEvent(WorkerEvent::Kind kind, int rank, std::string detail);
  std::string connectAddressFor(int rank) const;

  TcpTransportOptions options_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
  MessageQueue rootQueue_;
  HeartbeatBook beats_;

  mutable std::mutex stateMutex_;  // slot lifecycle fields + events
  std::vector<WorkerEvent> events_;
  std::vector<std::thread> retiredPumps_;
  std::vector<std::thread> pumps_;  // one live pump per slot, joined in dtor

  std::atomic<bool> aborted_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread acceptThread_;
  std::unique_ptr<PeriodicTask> monitor_;
};

/// Private scratch directory of the worker process `pid` serving `rank`:
/// <tmp>/chisim-tcp-worker-<rank>-<pid>. A worker creates it when it needs
/// local disk and removes it on an orderly exit; in spawn mode the root
/// also removes it after reaping the child, so a SIGKILLed worker leaves
/// nothing behind.
std::filesystem::path workerScratchDir(int rank, pid_t pid);

/// Worker-process end of the TCP transport: dials the root, replays the
/// hello on reconnect, and serves the synthesis worker loop's recv/send.
class TcpWorkerLink {
 public:
  /// True when this process was launched as a TCP transport worker
  /// (CHISIM_WORKER_TCP present).
  static bool isTcpWorkerProcess();

  /// Bootstraps from the environment (spawn mode / `chisim worker` after
  /// it seeds the env).
  TcpWorkerLink();
  ~TcpWorkerLink();

  TcpWorkerLink(const TcpWorkerLink&) = delete;
  TcpWorkerLink& operator=(const TcpWorkerLink&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return rankCount_; }

  struct Hello {
    std::uint64_t epoch = 0;
    std::vector<std::byte> payload;
  };

  /// Dials (with per-attempt timeout + exponential backoff), sends the
  /// worker hello, reads the ack, and starts the background pump — which
  /// answers pings, queues data frames, and on connection loss re-dials
  /// transparently, replaying the hello with the last granted epoch.
  /// Call exactly once, before recv/send.
  Hello handshake();

  /// Next data message from the root. Blocks across reconnects; throws
  /// only when the link is permanently down (re-dial budget exhausted or
  /// the root refused re-admission) — the worker's cue to exit.
  Message recv();

  /// Sends a data frame to the root. A failed write (connection mid-drop)
  /// is swallowed: the root's per-command retry re-requests after the
  /// reconnect, and command execution is idempotent.
  void send(int tag, std::span<const std::byte> payload);

 private:
  struct Dialed {
    int fd = -1;
    std::uint64_t epoch = 0;
    std::vector<std::byte> payload;
  };

  /// dial + hello + ack as one retried unit (a refused handshake counts
  /// as a failed attempt). Throws when the budget is exhausted.
  Dialed dialAndHello(std::uint64_t claimedEpoch);

  void pumpLoop();

  std::string host_;
  std::uint16_t port_ = 0;
  int rank_ = -1;
  int rankCount_ = 0;
  std::uint64_t connectTimeoutMs_ = 5000;
  int connectRetries_ = 5;
  std::uint64_t epoch_ = 0;
  int fd_ = -1;
  std::mutex writeMutex_;  // serializes frame writes; guards fd_ swap
  MessageQueue queue_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread pump_;
};

}  // namespace chisimnet::runtime
