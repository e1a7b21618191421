#include "core/worker_pool.h"

#include <thread>
#include <utility>

namespace hetex::core {

/// One pool thread. `task`, `done` and `wake` are guarded by the pool's
/// mutex; `after` and `after_done` (see SpawnAfterReturn) are touched only by
/// the thread itself.
struct WorkerPool::Thread {
  WorkerPool* pool = nullptr;
  std::condition_variable wake;
  std::function<void()> task;
  std::shared_ptr<Ticket::Done> done;
  std::function<void()> after;
  std::shared_ptr<Ticket::Done> after_done;
  std::thread thread;
};

thread_local WorkerPool::Thread* WorkerPool::current_ = nullptr;

WorkerPool::Ticket& WorkerPool::Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    Join();
    done_ = std::move(other.done_);
  }
  return *this;
}

void WorkerPool::Ticket::Join() {
  if (done_ == nullptr) return;
  {
    std::unique_lock<std::mutex> lock(done_->mu);
    done_->cv.wait(lock, [&] { return done_->returned; });
  }
  done_.reset();
}

WorkerPool::WorkerPool() = default;

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& t : threads_) t->wake.notify_one();
  }
  // Spawn cannot run any more, so threads_ no longer changes.
  for (auto& t : threads_) t->thread.join();
}

WorkerPool::Ticket WorkerPool::Spawn(std::function<void()> task) {
  Ticket ticket;
  ticket.done_ = std::make_shared<Ticket::Done>();
  std::unique_lock<std::mutex> lock(mu_);
  if (!idle_.empty()) {
    Thread* t = idle_.back();
    idle_.pop_back();
    t->task = std::move(task);
    t->done = ticket.done_;
    lock.unlock();
    t->wake.notify_one();
    return ticket;
  }
  threads_.push_back(std::make_unique<Thread>());
  Thread* t = threads_.back().get();
  t->pool = this;
  ++counters_.threads_started;
  lock.unlock();
  // A new thread starts on its task at once: it neither waits for the pool's
  // mutex nor needs a wake-up from this one.
  t->thread = std::thread(&WorkerPool::Loop, this, t, std::move(task), ticket.done_);
  return ticket;
}

WorkerPool::Ticket WorkerPool::SpawnAfterReturn(std::function<void()> task) {
  Thread* self = current_;
  if (self == nullptr || self->pool != this || self->after != nullptr) {
    return Spawn(std::move(task));
  }
  Ticket ticket;
  ticket.done_ = std::make_shared<Ticket::Done>();
  self->after = std::move(task);
  self->after_done = ticket.done_;
  return ticket;
}

WorkerPool::Counters WorkerPool::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void WorkerPool::Loop(Thread* self, std::function<void()> task,
                      std::shared_ptr<Ticket::Done> done) {
  current_ = self;
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  for (;;) {
    task();
    task = nullptr;  // the captures go before the ticket completes
    std::function<void()> after;
    after.swap(self->after);
    lock.lock();
    // The thread parks before the ticket completes: a Spawn made after
    // Join() returns finds it idle instead of starting another.
    idle_.push_back(self);
    ++counters_.tasks_run;
    {
      std::lock_guard<std::mutex> done_lock(done->mu);
      done->returned = true;
    }
    done->cv.notify_all();
    if (after != nullptr) {
      // Another parked thread, woken now, can start at once on a free core;
      // this one has run a whole task and may be preempted first.
      Thread* t = idle_.size() > 1 ? idle_[idle_.size() - 2] : self;
      idle_.erase(idle_.end() - (t == self ? 1 : 2));
      t->task = std::move(after);
      t->done = std::move(self->after_done);
      if (t != self) t->wake.notify_one();
    }
    self->wake.wait(lock, [&] { return self->task != nullptr || stopping_; });
    if (self->task == nullptr) return;  // stopping, and no task handed over
    task = std::move(self->task);
    self->task = nullptr;
    done = std::move(self->done);
    lock.unlock();
  }
}

}  // namespace hetex::core
