#include "chisimnet/runtime/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "chisimnet/util/error.hpp"

namespace chisimnet::runtime {

ThreadPool::ThreadPool(unsigned threadCount) {
  CHISIM_REQUIRE(threadCount >= 1, "thread pool needs at least one thread");
  threads_.reserve(threadCount);
  for (unsigned i = 0; i < threadCount; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  taskReady_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CHISIM_REQUIRE(!stopping_, "cannot submit to a stopping pool");
    queue_.push_back(std::move(task));
    ++inFlight_;
  }
  taskReady_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return inFlight_ == 0; });
  if (pendingError_) {
    std::exception_ptr error = std::exchange(pendingError_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      taskReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !pendingError_) {
        pendingError_ = error;
      }
      --inFlight_;
      if (inFlight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

void parallelFor(std::uint64_t count, unsigned workers,
                 const std::function<void(std::uint64_t)>& body) {
  parallelForWorkers(count, workers,
                     [&body](unsigned, std::uint64_t i) { body(i); });
}

void parallelForWorkers(
    std::uint64_t count, unsigned workers,
    const std::function<void(unsigned, std::uint64_t)>& body) {
  if (count == 0) {
    return;
  }
  workers = std::max(1u, workers);
  if (workers == 1 || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      body(0, i);
    }
    return;
  }

  std::atomic<std::uint64_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;
  // Chunk size balances scheduling overhead against dynamic balance.
  const std::uint64_t chunk = std::max<std::uint64_t>(1, count / (workers * 8));

  const auto drain = [&](unsigned worker) {
    while (true) {
      const std::uint64_t begin = next.fetch_add(chunk);
      if (begin >= count) {
        return;
      }
      const std::uint64_t end = std::min(count, begin + chunk);
      try {
        for (std::uint64_t i = begin; i < end; ++i) {
          body(worker, i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) {
          firstError = std::current_exception();
        }
        next.store(count);  // stop handing out work
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned worker = 1; worker < workers; ++worker) {
    threads.emplace_back(drain, worker);
  }
  drain(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (firstError) {
    std::rethrow_exception(firstError);
  }
}

}  // namespace chisimnet::runtime
