#include "chisimnet/runtime/tcp_transport.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "chisimnet/runtime/fault.hpp"

extern char** environ;

namespace chisimnet::runtime {

namespace {

/// Reconnect backoff base; doubles per failed attempt, capped well below
/// any sane grace window so a worker gets several shots inside it.
constexpr std::uint64_t kDialBackoffMs = 50;
constexpr std::uint64_t kDialBackoffCapMs = 2000;

std::uint64_t envU64Or(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

int envIntOr(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

int envIntRequired(const char* name) {
  const char* value = std::getenv(name);
  CHISIM_CHECK(value != nullptr,
               std::string("missing worker bootstrap variable ") + name);
  return std::atoi(value);
}

/// getaddrinfo for a numeric-or-named IPv4 host. Throws on failure.
sockaddr_in resolveIpv4(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &results);
  CHISIM_CHECK(rc == 0 && results != nullptr,
               "cannot resolve host '" + host + "': " + ::gai_strerror(rc));
  sockaddr_in address{};
  std::memcpy(&address, results->ai_addr, sizeof(address));
  ::freeaddrinfo(results);
  address.sin_port = htons(port);
  return address;
}

/// Spawn mode: removes a reaped child's scratch directory, which a child
/// killed by a signal could not remove itself.
void removeWorkerScratch(int rank, pid_t pid) {
  std::error_code ignored;
  std::filesystem::remove_all(workerScratchDir(rank, pid), ignored);
}

}  // namespace

std::filesystem::path workerScratchDir(int rank, pid_t pid) {
  return std::filesystem::temp_directory_path() /
         ("chisim-tcp-worker-" + std::to_string(rank) + "-" +
          std::to_string(pid));
}

std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  CHISIM_CHECK(colon != std::string::npos && colon > 0 &&
                   colon + 1 < spec.size(),
               "malformed address '" + spec + "' (expected host:port)");
  const long port = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
  CHISIM_CHECK(port > 0 && port <= 65535,
               "bad port in address '" + spec + "'");
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

int dialOnce(const std::string& host, std::uint16_t port,
             std::chrono::milliseconds timeout, int rank) {
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = rank;
    fault::hit("tcp.connect", ctx);  // kThrow fails this attempt
  }
  const sockaddr_in address = resolveIpv4(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CHISIM_CHECK(fd >= 0,
               std::string("socket() failed: ") + std::strerror(errno));
  wire::configureStreamSocket(fd, /*tcp=*/true);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address));
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + host + ":" +
                             std::to_string(port) + " failed: " + detail);
  }
  if (rc != 0) {
    // Await writability with the per-attempt deadline, then surface the
    // asynchronous connect result via SO_ERROR.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        ::close(fd);
        throw std::runtime_error("connect to " + host + ":" +
                                 std::to_string(port) + " timed out");
      }
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      if (ready > 0) {
        break;
      }
    }
    int soError = 0;
    socklen_t errorLen = sizeof(soError);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &errorLen);
    if (soError != 0) {
      ::close(fd);
      throw std::runtime_error("connect to " + host + ":" +
                               std::to_string(port) +
                               " failed: " + std::strerror(soError));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
  return fd;
}

int dialWithRetry(const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds perAttemptTimeout, int retries,
                  std::uint64_t backoffMs, int rank) {
  std::string lastError = "no attempts made";
  std::uint64_t backoff = backoffMs;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min<std::uint64_t>(backoff * 2, kDialBackoffCapMs);
    }
    try {
      return dialOnce(host, port, perAttemptTimeout, rank);
    } catch (const std::exception& error) {
      lastError = error.what();
    }
  }
  throw std::runtime_error("dial " + host + ":" + std::to_string(port) +
                           " exhausted " + std::to_string(retries + 1) +
                           " attempts; last error: " + lastError);
}

// -------------------------------------------------------------- root end

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)), beats_(options_.rankCount) {
  CHISIM_REQUIRE(options_.rankCount >= 1, "transport needs at least one rank");
  CHISIM_REQUIRE(options_.heartbeatMs >= 1, "heartbeat period must be >= 1ms");
  CHISIM_REQUIRE(options_.heartbeatMissLimit >= 2,
                 "heartbeat miss limit must be >= 2");
  CHISIM_REQUIRE(options_.connectTimeoutMs >= 1,
                 "connect timeout must be >= 1ms");
  CHISIM_REQUIRE(options_.connectRetries >= 0, "negative connect retries");
  CHISIM_REQUIRE(options_.maxRespawns >= 0, "negative respawn budget");
  slots_.reserve(static_cast<std::size_t>(options_.rankCount));
  for (int rank = 0; rank < options_.rankCount; ++rank) {
    slots_.push_back(std::make_unique<Slot>());
  }
  pumps_.resize(static_cast<std::size_t>(options_.rankCount));

  // Bind + listen before any worker exists so every dial target is valid.
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  CHISIM_CHECK(listenFd_ >= 0,
               std::string("socket() failed: ") + std::strerror(errno));
  wire::configureStreamSocket(listenFd_, /*tcp=*/false);  // CLOEXEC only
  int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address = resolveIpv4(options_.listenHost, options_.listenPort);
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listenFd_, options_.rankCount + 8) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("cannot listen on " + options_.listenHost + ":" +
                             std::to_string(options_.listenPort) + ": " +
                             detail);
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  port_ = ntohs(bound.sin_port);

  acceptThread_ = std::thread([this] { acceptLoop(); });
  try {
    if (options_.spawnWorkers) {
      for (int rank = 1; rank < options_.rankCount; ++rank) {
        spawnWorker(rank);
      }
    }
  } catch (...) {
    shuttingDown_ = true;
    ::shutdown(listenFd_, SHUT_RDWR);
    acceptThread_.join();
    for (int rank = 1; rank < options_.rankCount; ++rank) {
      Slot& s = slot(rank);
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        ::waitpid(s.pid, nullptr, 0);
        removeWorkerScratch(rank, s.pid);
      }
    }
    for (auto& s : slots_) {
      shutdownSlotFd(*s);
    }
    for (std::thread& pump : pumps_) {
      if (pump.joinable()) {
        pump.join();
      }
    }
    for (auto& s : slots_) {
      closeSlotFd(*s);
    }
    ::close(listenFd_);
    listenFd_ = -1;
    throw;
  }
  monitor_ = std::make_unique<PeriodicTask>(
      std::chrono::milliseconds(options_.heartbeatMs),
      [this] { monitorTick(); });
}

TcpTransport::~TcpTransport() {
  shuttingDown_ = true;
  monitor_.reset();  // joins the monitor thread
  ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) {
    acceptThread_.join();  // poll timeout bounds the wait either way
  }
  aborted_ = true;
  rootQueue_.notifyAll();

  // Spawn mode: after quiesce() + stop commands the local children exit on
  // their own; give them a moment before escalating to SIGKILL. External
  // workers are not ours to reap — closing their connections (below) is
  // their exit cue.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<std::pair<int, pid_t>> waiting;  // (rank, pid)
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (int rank = 1; rank < options_.rankCount; ++rank) {
      if (slot(rank).pid > 0) {
        waiting.emplace_back(rank, slot(rank).pid);
      }
    }
  }
  while (!waiting.empty() && std::chrono::steady_clock::now() < deadline) {
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (::waitpid(it->second, nullptr, WNOHANG) == it->second) {
        removeWorkerScratch(it->first, it->second);
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
    if (!waiting.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (const auto& [rank, pid] : waiting) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    removeWorkerScratch(rank, pid);
  }

  for (auto& s : slots_) {
    shutdownSlotFd(*s);  // wakes each pump with EOF
  }
  for (std::thread& pump : pumps_) {
    if (pump.joinable()) {
      pump.join();
    }
  }
  for (std::thread& pump : retiredPumps_) {
    if (pump.joinable()) {
      pump.join();
    }
  }
  for (auto& s : slots_) {
    closeSlotFd(*s);
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
  }
}

TcpTransport::Slot& TcpTransport::slot(int rank) const {
  CHISIM_REQUIRE(rank >= 1 && rank < options_.rankCount,
                 "invalid worker rank");
  return *slots_[static_cast<std::size_t>(rank)];
}

std::string TcpTransport::connectAddressFor(int rank) const {
  const std::size_t index = static_cast<std::size_t>(rank - 1);
  if (index < options_.connectAddresses.size() &&
      !options_.connectAddresses[index].empty()) {
    return options_.connectAddresses[index];
  }
  // Workers dial back to this root; an any-address bind is reachable via
  // loopback from spawned (local) children.
  const std::string host = options_.listenHost == "0.0.0.0"
                               ? std::string("127.0.0.1")
                               : options_.listenHost;
  return host + ":" + std::to_string(port_);
}

void TcpTransport::spawnWorker(int rank) {
  // Build argv/envp BEFORE fork: the child of a multithreaded parent may
  // only call async-signal-safe functions, so no allocation after fork.
  const std::string exe =
      options_.executable.empty() ? "/proc/self/exe" : options_.executable;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    epoch = slot(rank).epoch;
  }
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view view(*entry);
    if (view.starts_with(std::string(kWorkerTcpEnv) + "=") ||
        view.starts_with(std::string(kWorkerRankEnv) + "=") ||
        view.starts_with(std::string(kWorkerRankCountEnv) + "=") ||
        view.starts_with(std::string(kWorkerEpochEnv) + "=") ||
        view.starts_with(std::string(kWorkerConnectTimeoutEnv) + "=") ||
        view.starts_with(std::string(kWorkerConnectRetriesEnv) + "=") ||
        view.starts_with(std::string(kWorkerFaultPlanEnv) + "=")) {
      continue;
    }
    env.emplace_back(view);
  }
  env.push_back(std::string(kWorkerTcpEnv) + "=" + connectAddressFor(rank));
  env.push_back(std::string(kWorkerRankEnv) + "=" + std::to_string(rank));
  env.push_back(std::string(kWorkerRankCountEnv) + "=" +
                std::to_string(options_.rankCount));
  env.push_back(std::string(kWorkerEpochEnv) + "=" + std::to_string(epoch));
  env.push_back(std::string(kWorkerConnectTimeoutEnv) + "=" +
                std::to_string(options_.connectTimeoutMs));
  env.push_back(std::string(kWorkerConnectRetriesEnv) + "=" +
                std::to_string(options_.connectRetries));
  if (FaultPlan* plan = fault::current()) {
    env.push_back(std::string(kWorkerFaultPlanEnv) + "=" + plan->encode());
  }
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& entry : env) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::string exeArg = exe;
  std::string workerFlag = "--worker";
  char* argv[] = {exeArg.data(), workerFlag.data(), nullptr};

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(exe.c_str(), argv, envp.data());
    _exit(127);  // exec failed; the dial never comes, waitForWorkers fails
  }
  CHISIM_CHECK(pid > 0, std::string("fork failed: ") + std::strerror(errno));
  std::lock_guard<std::mutex> lock(stateMutex_);
  slot(rank).pid = pid;
}

void TcpTransport::acceptLoop() {
  while (!shuttingDown_.load()) {
    struct pollfd pfd = {listenFd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(options_.heartbeatMs));
    if (shuttingDown_.load()) {
      return;
    }
    if (ready <= 0) {
      continue;  // timeout or EINTR; loop re-checks the shutdown flag
    }
    // CLOEXEC from the start: the monitor may fork a respawn at any time.
    const int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      return;  // listen socket is gone (shutdown path)
    }
    wire::configureStreamSocket(fd, /*tcp=*/true);
    // Inline handshake with a deadline. A dialer that stalls, lies about
    // its rank or epoch, sends garbage, or claims an oversize payload is
    // dropped by closing ITS socket; the transport and every other
    // connection stay healthy.
    bool admitted = false;
    try {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(
              std::max<std::uint64_t>(1000, options_.connectTimeoutMs));
      wire::FrameReader reader(wire::deadlineReadFn(fd, deadline));
      auto frame = reader.next();
      CHISIM_CHECK(frame.has_value() &&
                       frame->kind == wire::FrameKind::kHello &&
                       frame->payload.size() == sizeof(std::uint64_t),
                   "malformed worker hello");
      const int rank = frame->tag;
      std::uint64_t claimed = 0;
      std::memcpy(&claimed, frame->payload.data(), sizeof(claimed));
      if (fault::armed()) {
        FaultSite ctx;
        ctx.rank = rank;
        fault::hit("tcp.accept", ctx);  // kThrow refuses this dial
      }
      admitted = admitWorker(fd, rank, claimed);
    } catch (...) {
      admitted = false;
    }
    if (!admitted) {
      ::close(fd);
    }
  }
}

bool TcpTransport::admitWorker(int fd, int rank, std::uint64_t claimedEpoch) {
  if (rank < 1 || rank >= options_.rankCount) {
    return false;
  }
  Slot& s = slot(rank);
  std::uint64_t granted = 0;
  bool isReconnect = false;
  std::string reconnectDetail;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    if (shuttingDown_.load() || quiesced_.load() || aborted_.load()) {
      return false;  // winding down: no new peers
    }
    if (s.permanentlyDead || s.forsaken) {
      return false;  // the driver already reassigned this rank's work
    }
    if (s.live || s.deadPending) {
      // live: double-connect for an occupied slot — refused. deadPending:
      // the previous connection's death is still being classified; the
      // dialer's backoff retry lands after the monitor's next tick.
      return false;
    }
    if (claimedEpoch != s.epoch) {
      return false;  // stale-epoch zombie (or an impostor guessing)
    }
    granted = s.epoch + 1;
    isReconnect = s.epoch > 0 && !s.respawning;
    reconnectDetail = s.lastDeathDetail;
  }

  // Ack (granted epoch + application payload) before the slot goes live:
  // per-connection ordering guarantees the worker holds its parameters
  // before the first command arrives.
  wire::Frame ack;
  ack.kind = wire::FrameKind::kHelloAck;
  ack.tag = static_cast<std::int32_t>(granted);
  ack.payload = options_.helloPayload;
  if (!wire::writeAllFd(fd, wire::encodeFrame(ack))) {
    return false;
  }

  {
    std::lock_guard<std::mutex> stateLock(stateMutex_);
    std::lock_guard<std::mutex> writeLock(s.writeMutex);
    s.fd = fd;
    s.epoch = granted;
    s.live = true;
    s.deadPending = false;
    s.reconnecting = false;
    s.respawning = false;
    s.lastDeathDetail.clear();
    if (isReconnect) {
      noteEvent(WorkerEvent::Kind::kReconnect, rank, reconnectDetail);
    }
  }
  beats_.beat(rank);
  {
    // Install the new pump under stateMutex_: the monitor moves a dead
    // connection's handle out under the same lock (before clearing
    // deadPending), so the slot's handle is either empty or a finished
    // thread here, and the assignment cannot race the monitor's join.
    std::lock_guard<std::mutex> lock(stateMutex_);
    if (pumps_[static_cast<std::size_t>(rank)].joinable()) {
      retiredPumps_.push_back(
          std::move(pumps_[static_cast<std::size_t>(rank)]));
    }
    pumps_[static_cast<std::size_t>(rank)] = std::thread(
        [this, rank, granted, fd] { pumpLoop(rank, granted, fd); });
  }
  return true;
}

void TcpTransport::pumpLoop(int rank, std::uint64_t epoch, int fd) {
  std::string detail = "socket EOF";
  try {
    wire::FrameReader reader(wire::fdReadFn(fd));
    while (true) {
      auto frame = reader.next();
      if (!frame.has_value()) {
        break;
      }
      beats_.beat(rank);
      switch (frame->kind) {
        case wire::FrameKind::kData: {
          Message message;
          message.source = rank;
          message.tag = frame->tag;
          message.payload = std::move(frame->payload);
          rootQueue_.post(std::move(message));
          break;
        }
        case wire::FrameKind::kPong:
          break;
        default:
          break;
      }
    }
  } catch (const std::exception& error) {
    detail = error.what();
  }
  flagDeath(rank, epoch, detail);
}

void TcpTransport::shutdownSlotFd(Slot& s) noexcept {
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd >= 0) {
    ::shutdown(s.fd, SHUT_RDWR);
  }
}

void TcpTransport::closeSlotFd(Slot& s) noexcept {
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd >= 0) {
    ::close(s.fd);
    s.fd = -1;
  }
}

void TcpTransport::flagDeath(int rank, std::uint64_t epoch,
                             const std::string& detail) {
  if (shuttingDown_.load()) {
    return;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  Slot& s = slot(rank);
  if (s.epoch != epoch || !s.live) {
    return;  // stale: the slot was already re-admitted or flagged
  }
  s.live = false;
  s.deadPending = true;
  s.lastDeathDetail = detail;
}

void TcpTransport::noteEvent(WorkerEvent::Kind kind, int rank,
                             std::string detail) {
  WorkerEvent event;
  event.kind = kind;
  event.rank = rank;
  event.detail = std::move(detail);
  events_.push_back(std::move(event));
}

void TcpTransport::monitorTick() {
  if (shuttingDown_.load() || aborted_.load()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();

  // Pass 1: a connection silent past the miss limit is presumed half-open
  // and poisoned; if the worker is actually alive it notices the EOF and
  // re-dials. Spawn-mode children are reaped here too (a reaped child can
  // never re-dial, which short-circuits its grace window), strictly guarded
  // on pid > 0 so external-worker slots never touch process APIs.
  const auto silenceLimit = std::chrono::milliseconds(
      options_.heartbeatMs *
      static_cast<std::uint64_t>(options_.heartbeatMissLimit));
  for (int rank = 1; rank < options_.rankCount; ++rank) {
    Slot& s = slot(rank);
    pid_t pid = -1;
    bool live = false;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      pid = s.pid;
      live = s.live;
    }
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
      removeWorkerScratch(rank, pid);
      std::lock_guard<std::mutex> lock(stateMutex_);
      s.pid = -1;  // reaped; never waited on again
      s.processGone = true;
    }
    if (live && beats_.overdue(rank, silenceLimit)) {
      shutdownSlotFd(s);  // pump turns the EOF into a flagged death
    }
  }

  // Pass 2: ping live workers.
  wire::Frame ping;
  ping.kind = wire::FrameKind::kPing;
  const std::vector<std::byte> pingBytes = wire::encodeFrame(ping);
  for (int rank = 1; rank < options_.rankCount; ++rank) {
    Slot& s = slot(rank);
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      if (!s.live) {
        continue;
      }
    }
    std::lock_guard<std::mutex> lock(s.writeMutex);
    if (s.fd >= 0 && !wire::writeAllFd(s.fd, pingBytes)) {
      ::shutdown(s.fd, SHUT_RDWR);
    }
  }

  // Pass 3: classify flagged deaths and closed windows. A fresh death opens
  // the reconnect window unless we are quiescing, the rank is forsaken, its
  // local child is known gone, or grace is disabled. A window that closes
  // (child reaped, or no re-dial within the grace) respawns the child while
  // the rank's budget lasts and is permanent loss otherwise.
  struct Closed {
    int fd;            // dead connection's descriptor, detached under lock
    std::thread pump;  // dead connection's reader, moved out under the lock
  };
  struct Respawn {
    int rank;
    pid_t stalePid;  // a live but silent child to SIGKILL first, or -1
    std::string detail;
  };
  std::vector<Closed> closed;
  std::vector<Respawn> respawns;
  bool lost = false;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    const bool silent = quiesced_.load();
    for (int rank = 1; rank < options_.rankCount; ++rank) {
      Slot& s = slot(rank);
      std::string ended;  // non-empty: no re-dial will come for this slot
      if (s.deadPending) {
        s.deadPending = false;
        // Detach the dead connection's fd and pump handle under the lock:
        // once deadPending clears, the accept thread may re-admit this
        // slot and install a fresh connection, which the close/join below
        // must never touch.
        {
          std::lock_guard<std::mutex> writeLock(s.writeMutex);
          closed.push_back({s.fd, std::move(pumps_[static_cast<std::size_t>(
                                      rank)])});
          s.fd = -1;
        }
        if (silent || s.forsaken) {
          s.permanentlyDead = true;
          lost = true;
          continue;
        }
        if (s.processGone || options_.reconnectGraceMs == 0) {
          ended = s.lastDeathDetail;
        } else {
          s.reconnecting = true;
          s.disconnectAt = now;
        }
      } else if (s.reconnecting) {
        const auto window = std::chrono::milliseconds(
            s.respawning ? std::max(options_.reconnectGraceMs,
                                    options_.connectTimeoutMs)
                         : options_.reconnectGraceMs);
        if (s.processGone) {
          ended = s.lastDeathDetail;
        } else if (now - s.disconnectAt > window) {
          ended = s.lastDeathDetail + "; reconnect grace expired";
        }
      }
      if (ended.empty()) {
        continue;
      }
      s.reconnecting = false;
      if (options_.spawnWorkers && !silent && !s.forsaken &&
          s.respawns < options_.maxRespawns) {
        // Respawn arm: state first, so the replacement's hello (which can
        // race the spawn below) finds a slot waiting for it.
        s.respawns += 1;
        s.respawning = true;
        s.reconnecting = true;
        s.disconnectAt = now;
        s.processGone = false;
        respawns.push_back({rank, s.pid, std::move(ended)});
        s.pid = -1;
        continue;
      }
      s.permanentlyDead = true;
      lost = true;
      noteEvent(WorkerEvent::Kind::kPermanentDeath, rank, ended);
    }
  }

  for (Closed& entry : closed) {
    // The pump for the dead connection has flagged its death and is
    // exiting; join it before the fd can be closed and its number reused.
    if (entry.pump.joinable()) {
      entry.pump.join();
    }
    if (entry.fd >= 0) {
      ::close(entry.fd);
    }
  }
  for (Respawn& respawn : respawns) {
    if (respawn.stalePid > 0) {
      ::kill(respawn.stalePid, SIGKILL);  // silent past its grace: hung
      ::waitpid(respawn.stalePid, nullptr, 0);
      removeWorkerScratch(respawn.rank, respawn.stalePid);
    }
    try {
      spawnWorker(respawn.rank);
      std::lock_guard<std::mutex> lock(stateMutex_);
      noteEvent(WorkerEvent::Kind::kRespawn, respawn.rank,
                std::move(respawn.detail));
    } catch (const std::exception& error) {
      std::lock_guard<std::mutex> lock(stateMutex_);
      Slot& s = slot(respawn.rank);
      s.reconnecting = false;
      s.permanentlyDead = true;
      lost = true;
      noteEvent(WorkerEvent::Kind::kPermanentDeath, respawn.rank,
                respawn.detail + "; respawn failed: " + error.what());
    }
  }
  if (lost) {
    rootQueue_.notifyAll();  // recvFor waiters re-check permanent death
  }
}

bool TcpTransport::waitForWorkers(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    bool allLive = true;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      for (int rank = 1; rank < options_.rankCount; ++rank) {
        if (!slot(rank).live) {
          allLive = false;
          break;
        }
      }
    }
    if (allLive) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline ||
        shuttingDown_.load() || aborted_.load()) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void TcpTransport::send(int self, int dest, int tag,
                        std::span<const std::byte> payload) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the tcp transport");
  CHISIM_REQUIRE(dest >= 0 && dest < options_.rankCount,
                 "invalid destination rank");
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  if (dest == 0) {
    Message message;
    message.source = 0;
    message.tag = tag;
    message.payload.assign(payload.begin(), payload.end());
    rootQueue_.post(std::move(message));
    return;
  }
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  std::vector<std::byte> encoded = wire::encodeFrame(frame);
  Slot& s = slot(dest);
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = dest;
    ctx.payload = &encoded;
    fault::hit("tcp.delay", ctx);  // kDelay stalls this frame
    if (fault::hit("tcp.drop", ctx) == FaultAction::kKillRank) {
      // Scripted connection drop (a partition, not a process death): the
      // pump sees EOF, the slot opens its grace window, and the — still
      // alive — worker re-dials. kTruncate instead tears the frame below,
      // which poisons the WORKER's read side and likewise forces a
      // re-dial.
      shutdownSlotFd(s);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd < 0) {
    // Disconnected or permanently dead: drop. The driver's per-command
    // timeout resends after backoff, which lands on the re-admitted
    // worker or times out into markLost.
    return;
  }
  if (!wire::writeAllFd(s.fd, encoded)) {
    ::shutdown(s.fd, SHUT_RDWR);  // poisoned; pump turns this into a death
  }
}

Message TcpTransport::recv(int self, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the tcp transport");
  Message out;
  const auto result = rootQueue_.wait(
      out, source, tag, std::nullopt, [this, source] {
        return aborted_.load() || (source >= 1 && isPermanentlyDead(source));
      });
  if (result == MessageQueue::WaitResult::kInterrupted) {
    CHISIM_CHECK(!aborted_.load(), "transport aborted while receiving");
    throw std::runtime_error("rank " + std::to_string(source) +
                             " is permanently lost; no reply will ever "
                             "arrive");
  }
  return out;
}

std::optional<Message> TcpTransport::recvFor(int self,
                                             std::chrono::milliseconds timeout,
                                             int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the tcp transport");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Message out;
  const auto result = rootQueue_.wait(
      out, source, tag, deadline, [this, source] {
        return aborted_.load() || (source >= 1 && isPermanentlyDead(source));
      });
  if (result == MessageQueue::WaitResult::kInterrupted) {
    CHISIM_CHECK(!aborted_.load(), "transport aborted while receiving");
    return std::nullopt;  // permanently dead source: fail fast, not at the
                          // deadline — the driver converges to markLost
  }
  if (result == MessageQueue::WaitResult::kTimeout) {
    return std::nullopt;
  }
  return out;
}

bool TcpTransport::tryRecv(int self, Message& out, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the tcp transport");
  return rootQueue_.tryRecv(out, source, tag);
}

std::size_t TcpTransport::pendingMessages(int self) const {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the tcp transport");
  return rootQueue_.pending();
}

void TcpTransport::barrier(int /*self*/) {
  throw std::runtime_error(
      "the tcp transport has no barrier (workers are root-driven)");
}

void TcpTransport::abort() noexcept {
  aborted_ = true;
  rootQueue_.notifyAll();
}

void TcpTransport::quiesce() noexcept { quiesced_ = true; }

void TcpTransport::forsakeRank(int rank) {
  if (rank == 0) {
    return;
  }
  Slot& s = slot(rank);
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    s.forsaken = true;
    s.permanentlyDead = true;
    s.reconnecting = false;
    s.live = false;
    pid = s.pid;
  }
  if (pid > 0) {
    ::kill(pid, SIGKILL);  // local spawn-mode child only; reaped later
  }
  shutdownSlotFd(s);
  rootQueue_.notifyAll();
}

bool TcpTransport::isPermanentlyDead(int rank) const {
  if (rank == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  return slot(rank).permanentlyDead;
}

pid_t TcpTransport::workerPid(int rank) const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  const Slot& s = slot(rank);
  return s.live ? s.pid : -1;
}

std::vector<TcpTransport::WorkerEvent> TcpTransport::drainEvents() {
  std::lock_guard<std::mutex> lock(stateMutex_);
  std::vector<WorkerEvent> out;
  out.swap(events_);
  return out;
}

// ------------------------------------------------------------ worker end

bool TcpWorkerLink::isTcpWorkerProcess() {
  return std::getenv(kWorkerTcpEnv) != nullptr;
}

TcpWorkerLink::TcpWorkerLink()
    : rank_(envIntRequired(kWorkerRankEnv)),
      rankCount_(envIntRequired(kWorkerRankCountEnv)),
      connectTimeoutMs_(envU64Or(kWorkerConnectTimeoutEnv, 5000)),
      connectRetries_(envIntOr(kWorkerConnectRetriesEnv, 5)),
      epoch_(envU64Or(kWorkerEpochEnv, 0)) {
  const char* spec = std::getenv(kWorkerTcpEnv);
  CHISIM_CHECK(spec != nullptr,
               std::string("missing worker bootstrap variable ") +
                   kWorkerTcpEnv);
  std::tie(host_, port_) = parseHostPort(spec);
  CHISIM_CHECK(rank_ >= 1 && rank_ < rankCount_, "invalid worker rank");
  CHISIM_CHECK(connectTimeoutMs_ >= 1, "connect timeout must be >= 1ms");
  CHISIM_CHECK(connectRetries_ >= 0, "negative connect retries");
}

TcpWorkerLink::~TcpWorkerLink() {
  shuttingDown_ = true;
  {
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  if (pump_.joinable()) {
    pump_.join();
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

TcpWorkerLink::Dialed TcpWorkerLink::dialAndHello(std::uint64_t claimedEpoch) {
  // The dial and the hello exchange retry as one unit: a refused handshake
  // (the root closing our socket — stale epoch, occupied slot, a death
  // still being classified) counts as a failed attempt, so the backoff
  // naturally paces re-admission against the root's monitor cadence.
  std::string lastError = "no attempts made";
  std::uint64_t backoff = kDialBackoffMs;
  for (int attempt = 0; attempt <= connectRetries_; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min<std::uint64_t>(backoff * 2, kDialBackoffCapMs);
    }
    int fd = -1;
    try {
      fd = dialOnce(host_, port_,
                    std::chrono::milliseconds(connectTimeoutMs_), rank_);
      wire::Frame hello;
      hello.kind = wire::FrameKind::kHello;
      hello.tag = rank_;
      hello.payload.resize(sizeof(std::uint64_t));
      std::memcpy(hello.payload.data(), &claimedEpoch, sizeof(claimedEpoch));
      CHISIM_CHECK(wire::writeAllFd(fd, wire::encodeFrame(hello)),
                   "failed to send worker hello");
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(connectTimeoutMs_);
      wire::FrameReader reader(wire::deadlineReadFn(fd, deadline));
      auto ack = reader.next();
      CHISIM_CHECK(ack.has_value() &&
                       ack->kind == wire::FrameKind::kHelloAck,
                   "root refused the hello (connection closed)");
      Dialed out;
      out.fd = fd;
      out.epoch = static_cast<std::uint64_t>(ack->tag);
      out.payload = std::move(ack->payload);
      return out;
    } catch (const std::exception& error) {
      lastError = error.what();
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  throw std::runtime_error("worker rank " + std::to_string(rank_) +
                           " exhausted " +
                           std::to_string(connectRetries_ + 1) +
                           " connect attempts to " + host_ + ":" +
                           std::to_string(port_) +
                           "; last error: " + lastError);
}

TcpWorkerLink::Hello TcpWorkerLink::handshake() {
  CHISIM_REQUIRE(!pump_.joinable(), "handshake already performed");
  // 0 on a first boot; a respawned child claims its slot's current epoch.
  Dialed dialed = dialAndHello(epoch_);
  fd_ = dialed.fd;
  epoch_ = dialed.epoch;
  Hello hello;
  hello.epoch = dialed.epoch;
  hello.payload = std::move(dialed.payload);
  pump_ = std::thread([this] { pumpLoop(); });
  return hello;
}

void TcpWorkerLink::pumpLoop() {
  while (true) {
    try {
      wire::FrameReader reader(wire::fdReadFn(fd_));
      while (true) {
        auto frame = reader.next();
        if (!frame.has_value()) {
          break;  // root closed (or dropped) the connection
        }
        switch (frame->kind) {
          case wire::FrameKind::kData: {
            Message message;
            message.source = 0;
            message.tag = frame->tag;
            message.payload = std::move(frame->payload);
            queue_.post(std::move(message));
            break;
          }
          case wire::FrameKind::kPing: {
            wire::Frame pong;
            pong.kind = wire::FrameKind::kPong;
            pong.tag = frame->tag;
            std::lock_guard<std::mutex> lock(writeMutex_);
            (void)wire::writeAllFd(fd_, wire::encodeFrame(pong));
            break;
          }
          default:
            break;  // stray hello/ack/pong: ignore
        }
      }
    } catch (...) {
      // Torn or corrupt frame: this connection can no longer be trusted.
    }
    if (shuttingDown_.load()) {
      break;
    }
    // Connection lost while the worker is healthy: re-dial inside the
    // root's grace window, replaying the hello with the last granted
    // epoch. Commands lost mid-drop are re-sent by the root's retry path;
    // a reply torn mid-send is discarded root-side and regenerated when
    // the command is re-executed (stage bodies are pure).
    try {
      Dialed dialed = dialAndHello(epoch_);
      std::lock_guard<std::mutex> lock(writeMutex_);
      if (fd_ >= 0) {
        ::close(fd_);
      }
      fd_ = dialed.fd;
      epoch_ = dialed.epoch;
    } catch (...) {
      break;  // budget exhausted or the root gave up on us: exit
    }
  }
  closed_ = true;
  queue_.notifyAll();
}

Message TcpWorkerLink::recv() {
  Message out;
  const auto result = queue_.wait(out, 0, kAnyTag, std::nullopt,
                                  [this] { return closed_.load(); });
  CHISIM_CHECK(result == MessageQueue::WaitResult::kMessage,
               "root connection closed");
  return out;
}

void TcpWorkerLink::send(int tag, std::span<const std::byte> payload) {
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  const std::vector<std::byte> encoded = wire::encodeFrame(frame);
  std::lock_guard<std::mutex> lock(writeMutex_);
  // A failed or torn write means this connection is dying; the pump will
  // re-dial and the root's retry re-requests whatever was lost.
  (void)wire::writeAllFd(fd_, encoded);
}

}  // namespace chisimnet::runtime
