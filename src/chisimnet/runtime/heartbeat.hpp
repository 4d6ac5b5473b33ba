#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// Liveness primitives for the TCP transport.
///
/// The root process decides a worker is dead from two signals: the kernel
/// (SIGCHLD/waitpid, socket EOF) and silence (no pong for too long). The
/// HeartbeatBook keeps the per-peer "last heard from" clock that backs the
/// silence signal, and PeriodicTask runs the monitor loop that pings,
/// reaps, and respawns on a fixed cadence.

namespace chisimnet::runtime {

/// Thread-safe per-peer last-beat clock.
class HeartbeatBook {
 public:
  /// All peers start "just heard from" so a freshly spawned peer is not
  /// instantly overdue.
  explicit HeartbeatBook(int peerCount);

  int peerCount() const noexcept { return static_cast<int>(last_.size()); }

  /// Records a beat (pong received, frame received — any proof of life).
  void beat(int peer);

  /// Time since the last beat.
  std::chrono::steady_clock::duration age(int peer) const;

  /// True when `peer` has been silent longer than `limit`.
  bool overdue(int peer, std::chrono::milliseconds limit) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::chrono::steady_clock::time_point> last_;
};

/// Runs `tick` every `period` on a dedicated thread until stopped or
/// destroyed. The first tick fires one period after construction. stop()
/// (and the destructor) waits for an in-flight tick to finish.
class PeriodicTask {
 public:
  PeriodicTask(std::chrono::milliseconds period, std::function<void()> tick);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop() noexcept;

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace chisimnet::runtime
