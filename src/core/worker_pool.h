#ifndef HETEX_CORE_WORKER_POOL_H_
#define HETEX_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace hetex::core {

/// \brief The System's host threads. Every per-query thread runs on it as a
/// task: each worker-group instance, each segmenter and each scheduled query.
///
/// Spawn() hands a task to a parked thread, or starts a new thread when none
/// is idle. It never queues a task behind a busy thread: an instance blocks on
/// bounded channels, so a queued instance could deadlock its producers. A
/// thread parks when its task returns and is reused by later tasks; the
/// destructor joins every thread. So a warm System starts no thread for a
/// query, and the pool holds as many threads as the most tasks ever live at
/// once. It has no size option.
class WorkerPool {
 public:
  /// A spawned task, like a std::thread: Join() returns once the task's
  /// function has returned and its captures are destroyed. Joining a joined
  /// ticket does nothing. Destroying a ticket joins it.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept = default;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Join(); }

    void Join();

   private:
    friend class WorkerPool;
    struct Done {
      std::mutex mu;
      std::condition_variable cv;
      bool returned = false;  ///< guarded by mu
    };
    std::shared_ptr<Done> done_;
  };

  struct Counters {
    uint64_t threads_started = 0;  ///< threads the pool ever started
    uint64_t tasks_run = 0;        ///< tasks whose function has returned
  };

  WorkerPool();
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `task` on an idle thread, or on a new one when every thread is busy.
  Ticket Spawn(std::function<void()> task);

  /// Called from one of this pool's tasks that returns without blocking:
  /// spawns `task` once the caller has returned and its thread has parked,
  /// so `task` never needs a new thread. It takes another parked thread when
  /// there is one, and the caller's otherwise. From any other thread, or for
  /// a second call by the same task, it is Spawn().
  Ticket SpawnAfterReturn(std::function<void()> task);

  Counters counters() const;

 private:
  struct Thread;
  void Loop(Thread* self, std::function<void()> task,
            std::shared_ptr<Ticket::Done> done);

  /// The pool thread running on this host thread; null elsewhere.
  static thread_local Thread* current_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;  ///< guarded by mu_
  std::vector<Thread*> idle_;                     ///< guarded by mu_
  bool stopping_ = false;                         ///< guarded by mu_
  Counters counters_;                             ///< guarded by mu_
};

}  // namespace hetex::core

#endif  // HETEX_CORE_WORKER_POOL_H_
