#include "core/scheduler.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"

namespace hetex::core {

namespace {

/// Result-cache key: the canonical spec serialization plus the mutation epoch
/// of every table the query reads — a table mutation changes the key, so the
/// stale entry is never hit again and ages out of the LRU.
std::string ResultCacheKey(System* system, const plan::QuerySpec& spec) {
  std::string key = plan::CanonicalSpecKey(spec);
  auto append_epoch = [&](const std::string& table) {
    const storage::Table* t = system->catalog().Get(table);
    key += "|" + table + "@" +
           std::to_string(t != nullptr ? t->mutation_epoch() : 0);
  };
  append_epoch(spec.fact_table);
  for (const auto& j : spec.joins) append_epoch(j.build_table);
  return key;
}

}  // namespace

QueryScheduler::QueryScheduler(System* system, Options options)
    : system_(system), options_(options) {
  HETEX_CHECK(options_.max_concurrent > 0) << "admission cap must be positive";
  const uint64_t per_node = system_->blocks().options().host_arena_blocks;
  total_blocks_ = per_node * system_->HostNodes().size();
  default_budget_ = options_.memory_budget_blocks > 0
                        ? options_.memory_budget_blocks
                        : std::max<uint64_t>(
                              1, total_blocks_ /
                                     static_cast<uint64_t>(options_.max_concurrent));
}

QueryScheduler::~QueryScheduler() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    if (!waiting_.empty()) return false;
    for (const auto& [id, task] : tasks_) {
      if (!task->done) return false;
    }
    return true;
  });
  std::vector<WorkerPool::Ticket> workers;
  for (auto& [id, task] : tasks_) workers.push_back(std::move(task->worker));
  tasks_.clear();
  lock.unlock();
  workers.clear();  // joins: every RunTask has returned
}

QueryHandle QueryScheduler::Submit(const plan::QuerySpec& spec,
                                   SubmitOptions opts) {
  auto task = std::make_unique<Task>();
  task->id = system_->NextQueryId();
  task->spec = spec;
  task->opts = std::move(opts);
  task->budget = task->opts.memory_budget_blocks > 0
                     ? task->opts.memory_budget_blocks
                     : default_budget_;
  QueryHandle handle{task->id};

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ == 0 && waiting_.empty()) {
      // Idle server, empty queue: a new busy period begins, anchored at the
      // point every shared resource (and every past completion) is behind —
      // queries of this period see a fresh server, the session-scoped
      // analogue of the old global reset. An arrival already past that point
      // keeps the base: its batch's earlier queries merely finished on the
      // host before it was submitted. Completion-triggered admissions stay
      // inside the running period so their queue wait is measured.
      const sim::VTime fresh = sim::MaxT(system_->VirtualHorizon(), clock_floor_);
      if (workload_base_ + task->opts.arrival_offset < fresh) workload_base_ = fresh;
    }
    waiting_.push_back(task.get());
    tasks_[task->id] = std::move(task);
    AdmitLocked(/*slot_freed_at=*/-1.0);
  }
  return handle;
}

void QueryScheduler::AdmitLocked(sim::VTime slot_freed_at) {
  while (!waiting_.empty() && active_ < options_.max_concurrent) {
    Task* task = waiting_.front();
    // Memory admission: the query's staging-block budget must fit in what the
    // running set left free. The head of the queue always fits on an idle
    // server (budgets larger than the arenas must not deadlock the queue).
    if (active_ > 0 && reserved_blocks_ + task->budget > total_blocks_) break;
    waiting_.pop_front();
    ++active_;
    reserved_blocks_ += task->budget;
    // The session starts at its arrival — or, when it had to queue for
    // capacity, at the virtual completion of the query that freed its slot.
    // The difference is the admission queue wait the client observes.
    const sim::VTime arrival = workload_base_ + task->opts.arrival_offset;
    const sim::VTime start = sim::MaxT(arrival, slot_freed_at);
    task->queue_wait = start - arrival;
    if (task->opts.deadline >= 0) {
      // The deadline is a budget from arrival; the session-local execution
      // bound is whatever the admission queue left of it.
      task->control.deadline = task->opts.deadline - task->queue_wait;
    }
    const QuerySession session{task->id, start, &task->control};
    auto run = [this, task, session] { RunTask(task, session); };
    // A completion-triggered admission comes from the finishing RunTask,
    // which returns without blocking: the first query it admits starts once
    // its thread has parked, so a steady load never needs a thread more than
    // its queries hold.
    task->worker = slot_freed_at >= 0 ? system_->workers().SpawnAfterReturn(run)
                                      : system_->workers().Spawn(run);
  }
}

void QueryScheduler::RunTask(Task* task, QuerySession session) {
  QueryExecutor executor(system_);
  QueryResult result;
  const sim::VTime deadline = task->opts.deadline;

  // Degraded-mode recovery loop. Transient faults (kUnavailable /
  // kResourceExhausted) retry the whole query with exponential virtual-time
  // backoff; a device loss re-plans on the surviving device set (optimizer
  // path only — a pinned policy has no freedom to re-place). Cancellation and
  // deadlines are terminal. Every attempt runs under the same query id and
  // control block; only the attempt epoch shifts by the accumulated backoff.
  int retries = 0;
  bool replanned = false;
  Status first_fault = Status::OK();
  std::vector<int> exclude_gpus;
  sim::VTime backoff = 0;
  // Serving-layer result-cache key of the latest attempt, recomputed at each
  // attempt's dequeue point (empty: cache disabled). It embeds the mutation
  // epoch of every table read *as of the lookup*, so a hit and a miss always
  // read the same table version — a key snapshotted at submit time could hit
  // an entry computed from pre-mutation data while a miss would execute
  // against post-mutation data. Pinned-policy submissions are cacheable too:
  // every policy computes identical rows.
  std::string cache_key;

  for (;;) {
    if (task->control.cancelled.load(std::memory_order_relaxed)) {
      result = QueryResult{};
      result.status = Status::Cancelled("query cancelled");
      break;
    }
    if (deadline >= 0 && task->queue_wait + backoff >= deadline) {
      result = QueryResult{};
      result.status = Status::DeadlineExceeded(
          "virtual-time deadline expired before the query could " +
          std::string(retries > 0 || replanned ? "be retried" : "start"));
      break;
    }
    QuerySession attempt = session;
    attempt.epoch = session.epoch + backoff;
    task->control.deadline =
        deadline >= 0 ? deadline - task->queue_wait - backoff : -1;
    task->control.deadline_hit.store(false, std::memory_order_relaxed);
    task->control.ResetFailure();

    // Result-cache hit: answer from the cached rows instead of executing.
    // The hit pays the admission queue wait (it held a slot like any query)
    // plus the lookup cost and the row copy at core streaming bandwidth —
    // the slot frees almost immediately, which is where the serving-layer
    // throughput win comes from. The generic terminal checks below still
    // apply (a hit can land past the deadline).
    bool served_from_cache = false;
    if (ResultCache* cache = system_->result_cache()) {
      cache_key = ResultCacheKey(system_, task->spec);
      {
        std::vector<std::vector<int64_t>> rows;
        if (cache->Lookup(cache_key, &rows)) {
          result = QueryResult{};
          uint64_t row_bytes = 0;
          for (const auto& row : rows) {
            row_bytes += row.size() * sizeof(int64_t);
          }
          const sim::CostModel& cm = system_->cost_model();
          result.status = Status::OK();
          result.rows = std::move(rows);
          result.cache_hit = true;
          result.modeled_seconds =
              cm.result_cache_lookup_latency +
              static_cast<double>(row_bytes) / cm.cpu_core_bw;
          served_from_cache = true;
        }
      }
    }

    if (served_from_cache) {
      // no execution
    } else if (task->opts.policy.has_value()) {
      // A pinned policy naming devices the fabric does not have is a named
      // terminal error, not a lowering abort (the no-GPU topology path).
      if (Status st = plan::ValidatePolicyForTopology(*task->opts.policy,
                                                      system_->topology());
          !st.ok()) {
        result = QueryResult{};
        result.status = std::move(st);
        break;
      }
      result = executor.ExecutePlan(
          task->spec,
          plan::BuildHetPlan(task->spec, *task->opts.policy,
                             system_->topology()),
          attempt);
    } else {
      // Backlog-steered admission: plan at the attempt epoch so the coster
      // sees the live interconnect backlog and DRAM worker pressure of the
      // running set and re-routes to the less-loaded device set.
      plan::OptimizeResult optimized;
      const Status st = executor.OptimizeAt(
          task->spec, plan::ExecPolicy{}, attempt.epoch, &optimized,
          exclude_gpus.empty() ? nullptr : &exclude_gpus);
      if (!st.ok()) {
        result = QueryResult{};
        result.status = st;
        break;
      }
      result = executor.ExecutePlan(task->spec, optimized.best().plan, attempt);
    }
    result.modeled_seconds += backoff;  // the client waited out the backoff too

    // Authoritative terminal stamp: cooperative cancellation/deadline stops
    // may leave a cleanly-joined graph with partial rows and an OK status —
    // the scheduler, not the graph, owns the terminal state.
    if (task->control.cancelled.load(std::memory_order_relaxed)) {
      const Status st = Status::Cancelled("query cancelled");
      result = QueryResult{};
      result.status = st;
      break;
    }
    if (deadline >= 0 &&
        (task->control.deadline_hit.load(std::memory_order_relaxed) ||
         (result.status.ok() &&
          task->queue_wait + result.modeled_seconds > deadline))) {
      const sim::VTime late = task->queue_wait + result.modeled_seconds;
      result = QueryResult{};
      result.status = Status::DeadlineExceeded(
          "query finished at virtual time " + std::to_string(late) +
          " past its deadline of " + std::to_string(deadline));
      break;
    }
    if (result.status.ok()) break;
    const StatusCode code = result.status.code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      break;
    }
    if (first_fault.ok()) first_fault = result.status;

    if (code == StatusCode::kDeviceLost && !task->opts.policy.has_value()) {
      // Re-plan on the surviving device set. Conservative exclusion: every
      // GPU whose loss window is active at — or opens after — this attempt's
      // epoch is out (a device that dies mid-query would just fail us again).
      const size_t before = exclude_gpus.size();
      for (int g : system_->fault().GpusLostOnOrAfter(attempt.epoch)) {
        if (std::find(exclude_gpus.begin(), exclude_gpus.end(), g) ==
            exclude_gpus.end()) {
          exclude_gpus.push_back(g);
        }
      }
      if (exclude_gpus.size() == before || retries >= options_.max_retries) {
        break;  // nothing new to exclude (or out of attempts): fault is terminal
      }
      ++retries;
      replanned = true;
      continue;
    }
    if (IsTransientFault(code) && retries < options_.max_retries) {
      ++retries;
      backoff += options_.retry_backoff_base *
                 static_cast<sim::VTime>(1ull << (retries - 1));
      continue;
    }
    break;  // non-recoverable (or retry budget spent): surface the fault
  }

  result.query_id = session.query_id;
  result.arrival_offset = task->opts.arrival_offset;
  result.session_epoch = session.epoch;
  result.queue_wait = task->queue_wait;
  result.retries = retries;
  result.replanned = replanned;
  result.degraded = retries > 0 || replanned;
  result.fault = first_fault;

  // Populate the result cache from clean completions — re-validated: the key
  // is recomputed now and the rows publish only when no referenced table
  // mutated since the attempt's dequeue-time lookup, so an entry's rows
  // provably correspond to its key's epochs. A table placed mid-flight simply
  // skips the insert.
  if (result.status.ok() && !cache_key.empty() &&
      ResultCacheKey(system_, task->spec) == cache_key) {
    if (ResultCache* cache = system_->result_cache()) {
      cache->Insert(cache_key, result.rows);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    const sim::VTime freed_at = session.epoch + result.modeled_seconds;
    clock_floor_ = sim::MaxT(clock_floor_, freed_at);
    task->result = std::move(result);
    task->done = true;
    --active_;
    reserved_blocks_ -= task->budget;
    AdmitLocked(freed_at);
  }
  // After the notify the waiter may free the task; touch nothing of it here.
  done_cv_.notify_all();
}

QueryResult QueryScheduler::Wait(QueryHandle handle) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tasks_.find(handle.id);
  if (it == tasks_.end()) {
    QueryResult missing;
    missing.status = Status::InvalidArgument(
        "unknown or already-waited query handle " + std::to_string(handle.id));
    return missing;
  }
  Task* task = it->second.get();
  if (task->claimed) {
    QueryResult taken;
    taken.status = Status::InvalidArgument(
        "query handle " + std::to_string(handle.id) +
        " is already being waited on by another caller");
    return taken;
  }
  task->claimed = true;
  done_cv_.wait(lock, [&] { return task->done; });
  QueryResult result = std::move(task->result);
  WorkerPool::Ticket worker = std::move(task->worker);
  tasks_.erase(it);
  lock.unlock();
  worker.Join();
  return result;
}

Status QueryScheduler::Cancel(QueryHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(handle.id);
  if (it == tasks_.end()) {
    return Status::InvalidArgument("unknown or already-waited query handle " +
                                   std::to_string(handle.id));
  }
  Task* task = it->second.get();
  if (task->done) return Status::OK();  // finished first: nothing to cancel

  const auto queued = std::find(waiting_.begin(), waiting_.end(), task);
  if (queued != waiting_.end()) {
    // Never admitted: terminate in place. No slot or budget was consumed, but
    // a cancelled queue head may have been the admission blocker — re-admit.
    waiting_.erase(queued);
    task->control.Cancel();
    task->result.status =
        Status::Cancelled("query cancelled while queued for admission");
    task->result.query_id = task->id;
    task->result.arrival_offset = task->opts.arrival_offset;
    task->done = true;
    AdmitLocked(/*slot_freed_at=*/-1.0);
    done_cv_.notify_all();
    return Status::OK();
  }
  // Running: cooperative stop. Segmenters quit, edges drop messages, blocked
  // staging acquisitions observing this flag wake with kCancelled; RunTask
  // stamps the terminal status.
  task->control.Cancel();
  return Status::OK();
}

int QueryScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

int QueryScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(waiting_.size());
}

}  // namespace hetex::core
