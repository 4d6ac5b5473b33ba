#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "chisimnet/util/error.hpp"

/// Message-passing substrate (the MPI substitute).
///
/// The paper runs chiSIM on Repast HPC over MPI: places live on ranks,
/// agents migrate between ranks by message, and each rank logs its own
/// events. This module reproduces that structure behind a pluggable
/// `Transport`: the default `Communicator` keeps ranks as threads and
/// mailboxes as the wire, while `TcpTransport` (tcp_transport.hpp) moves
/// ranks into separate OS processes over TCP. Every rank-level algorithm (migration,
/// scatter/reduce synthesis) runs unchanged on either. Semantics follow
/// MPI where it matters: point-to-point messages between a (source, dest,
/// tag) triple are non-overtaking, recv blocks, collectives are executed
/// by all ranks in the same order (SPMD).

namespace chisimnet::runtime {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags at or above this value are reserved for collectives.
inline constexpr int kReservedTagBase = 1 << 24;

/// Default ceiling on a single message payload. In-process this bounds a
/// runaway serialization bug; on the socket transport it is the value a
/// received length header is validated against before any allocation
/// happens. At city scale a whole-matrix stage-5 reply CAN legitimately
/// approach this, which is why oversized synthesis replies spill to run
/// files and cross the wire as paths (net/mp_protocol) instead of aborting
/// against the cap.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

/// The effective payload ceiling: kMaxPayloadBytes unless overridden by
/// the CHISIMNET_MAX_PAYLOAD_BYTES environment variable (read once, so
/// exec'd worker processes inherit the root's value) or by
/// setMaxPayloadBytesForTesting(). Tests lower it to force the spill-reply
/// path without gigabyte fixtures.
std::uint64_t maxPayloadBytes() noexcept;

/// Overrides the effective ceiling for this process (0 restores the
/// env/default resolution on the next query).
void setMaxPayloadBytesForTesting(std::uint64_t bytes) noexcept;

/// Validates a payload length as read off a wire header (or any untrusted
/// framing) BEFORE it is used to size an allocation. Rejects negative
/// lengths and lengths above maxPayloadBytes() with a clear error naming
/// both, instead of letting vector::resize() abort the process or OOM.
void validatePayloadLength(std::int64_t declaredBytes);

struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> payload;

  /// Reinterprets the payload as a vector of trivially copyable T.
  template <typename T>
  std::vector<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    CHISIM_CHECK(payload.size() % sizeof(T) == 0,
                 "payload size not a multiple of element size");
    std::vector<T> values(payload.size() / sizeof(T));
    if (!payload.empty()) {
      std::memcpy(values.data(), payload.data(), payload.size());
    }
    return values;
  }

  template <typename T>
  T value() const {
    static_assert(std::is_trivially_copyable_v<T>);
    CHISIM_CHECK(payload.size() == sizeof(T), "payload is not a single T");
    T out;
    std::memcpy(&out, payload.data(), sizeof(T));
    return out;
  }
};

/// Thread-safe mailbox of messages matched by (source, tag), FIFO per
/// pair. Shared by the in-process Communicator (one per rank) and the
/// socket transport (one for the root endpoint, fed by reader threads).
class MessageQueue {
 public:
  void post(Message message);

  /// Wakes every waiter so it re-evaluates its `interrupted` predicate.
  /// Call after changing any external state a waiter might be gated on
  /// (abort flags, rank death).
  void notifyAll() noexcept;

  std::size_t pending() const;

  bool tryRecv(Message& out, int source, int tag);

  enum class WaitResult { kMessage, kTimeout, kInterrupted };

  /// Waits until a message matching (source, tag) arrives (-> kMessage,
  /// `out` filled), `deadline` passes (-> kTimeout), or `interrupted()`
  /// returns true (-> kInterrupted). Pass nullopt as the deadline for an
  /// unbounded wait. A queued match always wins over both timeout and
  /// interruption: messages delivered before an abort are still received.
  WaitResult wait(
      Message& out, int source, int tag,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      const std::function<bool()>& interrupted);

 private:
  bool matchAndPop(int source, int tag, Message& out);

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Message> messages_;
};

/// The wire under a rank group. `self` is the calling rank; in-process
/// every rank calls in, on the TCP transport only the root endpoint
/// (rank 0) lives in this process and workers speak the frame protocol
/// directly (see TcpWorkerLink).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int size() const noexcept = 0;
  virtual void send(int self, int dest, int tag,
                    std::span<const std::byte> payload) = 0;
  virtual Message recv(int self, int source, int tag) = 0;
  virtual std::optional<Message> recvFor(int self,
                                         std::chrono::milliseconds timeout,
                                         int source, int tag) = 0;
  virtual bool tryRecv(int self, Message& out, int source, int tag) = 0;
  virtual std::size_t pendingMessages(int self) const = 0;
  virtual void barrier(int self) = 0;

  /// Wakes every blocked receive with an error; used on teardown after a
  /// failure so no thread deadlocks in recv.
  virtual void abort() noexcept = 0;

  /// Announces orderly shutdown: from here on, peers disappearing is
  /// expected and must not be treated as failure (no respawn, no error).
  /// Called by drivers before they send stop commands. No-op in-process.
  virtual void quiesce() noexcept {}

  /// Permanently gives up on `rank`: stop monitoring it, stop respawning
  /// it, reap whatever backs it. Called when a driver marks the rank
  /// lost. No-op in-process (the service thread exits via abort/stop).
  virtual void forsakeRank(int /*rank*/) {}
};

/// A single rank's endpoint. All methods are called from that rank's
/// thread. A thin, copyable view over a Transport.
class RankHandle {
 public:
  RankHandle(Transport* transport, int rank)
      : transport_(transport), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return transport_->size(); }

  /// Sends bytes to `dest` (non-blocking, buffered).
  void send(int dest, int tag, std::span<const std::byte> payload);

  /// Sends a trivially copyable value.
  template <typename T>
  void sendValue(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, std::as_bytes(std::span<const T>(&value, 1)));
  }

  /// Sends a contiguous vector of trivially copyable elements.
  template <typename T>
  void sendVector(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, std::as_bytes(values));
  }

  /// Blocks until a message matching (source, tag) arrives; kAnySource /
  /// kAnyTag act as wildcards. Matching is FIFO per (source, tag) pair.
  Message recv(int source = kAnySource, int tag = kAnyTag);

  /// recv with a deadline: blocks at most `timeout` and returns nullopt if
  /// no matching message arrived by then. The per-command deadline the
  /// fault-tolerant executor uses to detect lost ranks. On the socket
  /// transport this also returns nullopt early once `source` is known to
  /// be permanently dead.
  std::optional<Message> recvFor(std::chrono::milliseconds timeout,
                                 int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking receive.
  bool tryRecv(Message& out, int source = kAnySource, int tag = kAnyTag);

  /// Number of queued messages (diagnostic).
  std::size_t pendingMessages() const;

  // ---- collectives (all ranks must call in the same order) ----

  void barrier();

  /// Gathers each rank's bytes at root; returns size() buffers at root
  /// (indexed by rank), empty elsewhere.
  std::vector<std::vector<std::byte>> gather(int root,
                                             std::span<const std::byte> bytes);

  /// Broadcasts root's bytes to every rank; returns the bytes everywhere.
  std::vector<std::byte> broadcast(int root, std::span<const std::byte> bytes);

  /// Reduces a u64 with a binary op at root (returned at every rank via a
  /// follow-up broadcast, i.e. allreduce semantics).
  std::uint64_t allReduceU64(std::uint64_t value,
                             const std::function<std::uint64_t(
                                 std::uint64_t, std::uint64_t)>& op);

  /// allReduceU64 with min — the agreement primitive of the event-driven
  /// ABM core's first lookahead round.
  std::uint64_t allReduceMinU64(std::uint64_t value);

 private:
  Transport* transport_;
  int rank_;
};

/// Shared state for a fixed-size group of in-process ranks (threads).
class Communicator : public Transport {
 public:
  explicit Communicator(int rankCount);

  int size() const noexcept override {
    return static_cast<int>(mailboxes_.size());
  }
  RankHandle handle(int rank);

  void send(int self, int dest, int tag,
            std::span<const std::byte> payload) override;
  Message recv(int self, int source, int tag) override;
  std::optional<Message> recvFor(int self, std::chrono::milliseconds timeout,
                                 int source, int tag) override;
  bool tryRecv(int self, Message& out, int source, int tag) override;
  std::size_t pendingMessages(int self) const override;
  void barrier(int self) override;
  void abort() noexcept override;

  /// Runs `body(rankHandle)` on `rankCount` threads, one per rank, and
  /// joins. The first exception thrown by any rank is rethrown after all
  /// threads finish (remaining ranks may deadlock-free drain because all
  /// blocking recvs are woken by the abort flag).
  static void run(int rankCount,
                  const std::function<void(RankHandle&)>& body);

 private:
  bool aborted() const noexcept { return aborted_; }

  std::vector<std::unique_ptr<MessageQueue>> mailboxes_;

  // Generation-counting barrier.
  std::mutex barrierMutex_;
  std::condition_variable barrierReady_;
  int barrierWaiting_ = 0;
  std::uint64_t barrierGeneration_ = 0;

  std::atomic<bool> aborted_ = false;
};

/// Persistent rank group for iterative root-driven algorithms.
///
/// Communicator::run spawns and joins one thread per rank for a single SPMD
/// body — fine for one-shot jobs, wasteful for pipelines that issue many
/// rounds of scatter/compute/reduce (one batch per round). RankTeam keeps
/// the ranks alive instead: the constructing thread acts as rank 0 and
/// drives the group through `root()`, while ranks 1..rankCount-1 each run
/// `service(handle)` on a background thread. A service is typically a
/// command loop — recv a command from rank 0, perform a stage, repeat until
/// a stop command — so the same threads serve every round.
///
/// Alternatively a team can be built over an external Transport (the
/// socket transport) whose workers live in other OS processes; the team
/// then owns no service threads and the transport owns worker lifetime.
///
/// Shutdown: the service must return for the team to join cleanly (send it
/// a stop command before destruction). The destructor additionally aborts
/// the transport, so services blocked mid-recv (e.g. after a root-side
/// failure) wake, throw, and exit rather than deadlock the join. Messages
/// already delivered are matched before the abort flag is checked, so a
/// stop command sent just before destruction is always honored.
///
/// A service body that throws records the first error (retrievable via
/// serviceError()/rethrowServiceError()) and aborts the communicator, which
/// makes the root's next blocking call throw "communicator aborted".
///
/// Health: each rank carries a health state so a fault-tolerant driver can
/// route around a worker that died or stopped answering. The team itself
/// never marks a rank — detection (reply deadline, failed reply, silent
/// exit) lives in the executor, which calls markLost(); the team just keeps
/// the book so every stage sees one consistent live set. markLost also
/// forsakes the rank at the transport (kills and stops respawning a worker
/// process; no-op in-process).
class RankTeam {
 public:
  enum class RankHealth { kHealthy, kLost };

  /// In-process team: ranks 1..rankCount-1 run `service` on threads.
  RankTeam(int rankCount, std::function<void(RankHandle&)> service);

  /// Team over an external transport (worker ranks live elsewhere, e.g.
  /// in other processes). The team owns the transport and no threads.
  explicit RankTeam(std::unique_ptr<Transport> transport);

  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  int size() const noexcept { return transport_->size(); }

  /// The calling thread's endpoint (rank 0). Only the constructing thread
  /// may use it.
  RankHandle& root() noexcept { return root_; }

  /// The wire under the team (for quiesce() before orderly shutdown).
  Transport& transport() noexcept { return *transport_; }

  /// First exception thrown by a service thread, if any.
  std::exception_ptr serviceError() const;

  /// Rethrows the first service error; no-op when none occurred.
  void rethrowServiceError();

  /// Marks `rank` permanently lost; idempotent. Rank 0 (the caller) cannot
  /// be marked lost.
  void markLost(int rank);
  bool isLive(int rank) const;
  RankHealth health(int rank) const;
  /// Ranks still healthy (always >= 1: rank 0).
  int liveCount() const;
  /// Ranks marked lost so far.
  int lostCount() const { return size() - liveCount(); }

 private:
  std::unique_ptr<Transport> transport_;
  RankHandle root_;
  mutable std::mutex errorMutex_;
  std::exception_ptr firstError_;
  mutable std::mutex healthMutex_;
  std::vector<RankHealth> health_;
  std::vector<std::thread> threads_;
};

}  // namespace chisimnet::runtime
