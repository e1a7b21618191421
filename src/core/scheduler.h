#ifndef HETEX_CORE_SCHEDULER_H_
#define HETEX_CORE_SCHEDULER_H_

#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "core/executor.h"
#include "plan/query_spec.h"

namespace hetex::core {

/// Per-query submission options.
struct SubmitOptions {
  /// Virtual arrival time relative to the workload base (the virtual time at
  /// which the server last went from idle to busy). Offset 0 models a batch
  /// arrival; staggered offsets model an offered-load trace.
  sim::VTime arrival_offset = 0;

  /// Pin the exact plan shape (no optimizer search). Unset = cost-based
  /// optimization, with the current interconnect backlog as a load signal.
  std::optional<plan::ExecPolicy> policy;

  /// Admission-control staging-block budget override (0 = scheduler default).
  uint64_t memory_budget_blocks = 0;

  /// Virtual-time budget measured from the query's arrival, including the
  /// admission queue wait: a query whose `queue_wait + modeled_seconds` would
  /// exceed it terminates with kDeadlineExceeded (cooperatively — workers
  /// drain, resources release, no partial rows are reported). Negative = none.
  sim::VTime deadline = -1;
};

/// \brief Concurrent query scheduler: N queries in flight against one System,
/// each on its own session-scoped virtual timeline while PCIe links, DMA
/// engines and GPU kernel streams charge contention across all of them.
///
/// Submit() enqueues a query and returns a handle; admission control caps the
/// number of concurrently running queries and reserves each admitted query a
/// staging-block budget against the BlockRegistry's host arenas (a query whose
/// budget does not fit waits, FIFO, for running queries to release theirs).
/// On admission the query receives a QuerySession: a unique id (namespacing
/// its hash tables in the shared HtRegistry) and an absolute epoch — the
/// workload base plus the query's arrival offset. The workload base advances
/// to the resource horizon when a submission finds the server idle and would
/// arrive before that horizon, so back-to-back serial submissions reproduce
/// solo latencies exactly while overlapping submissions queue behind each
/// other on the shared interconnects. A batch whose first queries finish on
/// the host before its later ones are submitted keeps its base as long as
/// those arrive past the horizon, so host timing does not re-anchor them.
///
/// Wait() blocks until the query finished and returns its QueryResult; each
/// handle is waited on by at most one caller. Unwaited queries are drained by
/// the destructor.
class QueryScheduler {
 public:
  struct Options {
    /// Maximum queries running concurrently (admission cap).
    int max_concurrent = 4;
    /// Default per-query staging-block budget charged against the host arenas
    /// at admission. 0 = total host arena blocks / max_concurrent.
    uint64_t memory_budget_blocks = 0;
    /// Degraded-mode recovery: attempts re-executed after a transient fault
    /// (kUnavailable / kResourceExhausted) or a device loss before the fault
    /// becomes the query's terminal status.
    int max_retries = 3;
    /// Virtual-time backoff before retry attempt k: base * 2^(k-1), added to
    /// the attempt's session epoch (and to the reported modeled latency).
    sim::VTime retry_backoff_base = 1e-3;
  };

  explicit QueryScheduler(System* system) : QueryScheduler(system, Options()) {}
  QueryScheduler(System* system, Options options);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  QueryHandle Submit(const plan::QuerySpec& spec, SubmitOptions opts = {});
  QueryResult Wait(QueryHandle handle);

  /// Requests cancellation. A still-queued query terminates immediately with
  /// kCancelled (its admission slot and budget are never consumed); a running
  /// query stops cooperatively — segmenters quit producing, edges drop
  /// messages, blocked staging acquisitions wake — and reports kCancelled
  /// through Wait(). A finished query is left untouched. Returns
  /// InvalidArgument for unknown handles, OK otherwise (idempotent).
  Status Cancel(QueryHandle handle);

  /// Queries currently executing / waiting for admission.
  int in_flight() const;
  int queued() const;

  /// Total host staging blocks admission budgets are charged against.
  uint64_t total_budget_blocks() const { return total_blocks_; }
  /// Default per-query budget (blocks) applied when SubmitOptions leaves 0.
  uint64_t default_budget_blocks() const { return default_budget_; }

  const Options& options() const { return options_; }

 private:
  struct Task {
    uint64_t id = 0;
    plan::QuerySpec spec;
    SubmitOptions opts;
    uint64_t budget = 0;
    sim::VTime queue_wait = 0;  ///< virtual admission delay (set at admission)
    QueryControl control;       ///< cancellation/deadline state (stable address)
    QueryResult result;
    bool done = false;
    bool claimed = false;  ///< a Wait() call owns this handle
    WorkerPool::Ticket worker;  ///< RunTask on the System's worker pool
  };

  /// Starts every waiting query the caps allow, FIFO. Caller holds mu_.
  /// `slot_freed_at` is the absolute virtual completion that freed capacity
  /// (admissions it triggers start no earlier, and the first is spawned once
  /// the finishing query's pool thread has parked); < 0 for submit-time
  /// admission into already-free capacity, which starts at the query's own
  /// arrival.
  void AdmitLocked(sim::VTime slot_freed_at);
  void RunTask(Task* task, QuerySession session);

  System* system_;
  Options options_;
  uint64_t total_blocks_ = 0;
  uint64_t default_budget_ = 0;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::deque<Task*> waiting_;
  std::map<uint64_t, std::unique_ptr<Task>> tasks_;
  int active_ = 0;
  uint64_t reserved_blocks_ = 0;
  /// Epoch base of the current busy period (absolute virtual time); -inf
  /// until the first submission anchors one.
  sim::VTime workload_base_ = -std::numeric_limits<sim::VTime>::infinity();
  /// Latest absolute completion seen — the server's virtual "now". Keeps
  /// serial submissions strictly ordered even for queries that never touch a
  /// shared interconnect (whose completion the resource horizon cannot see).
  sim::VTime clock_floor_ = 0;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_SCHEDULER_H_
