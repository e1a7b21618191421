#ifndef HETEX_CORE_HT_REGISTRY_H_
#define HETEX_CORE_HT_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/query_control.h"
#include "jit/hash_table.h"
#include "sim/topology.h"
#include "sim/vtime.h"

namespace hetex::core {

/// Outcome of HtRegistry::AcquireShared — the caller's role for one join's
/// shared-build entry.
struct SharedBuildLease {
  enum class Role {
    kBuild,      ///< caller won the single-flight race: build, then publish/fail
    kAttach,     ///< replicas are ready: alias them, skip the build stage
    kPrivate,    ///< sharing not possible (self-conflict, or an entry a
                 ///< later-arriving session started): build privately
    kCancelled,  ///< caller was cancelled while waiting for an in-flight build
  };
  Role role = Role::kPrivate;
  /// kAttach only: the time each unit's replica completed at, local to the
  /// builder's session, whose epoch is `builder_epoch`. An attacher's probes
  /// on a unit wait for that unit's replica only (charged to their modeled
  /// latency); attachers arriving later pay nothing — the artifact exists.
  /// An attacher at the builder's own epoch reads the builder's times
  /// exactly (no round trip through absolute time).
  std::map<sim::DeviceId, sim::VTime> ready_at;
  sim::VTime builder_epoch = 0;
};

/// \brief Join hash tables shared between build and probe pipelines, keyed by
/// (query, join id, device unit). A "unit" is one CPU socket or one GPU — the
/// replica granularity of broadcast hash joins — named by its sim::DeviceId.
///
/// The registry is System-owned and shared by every in-flight query, so keys
/// carry the owning query id: two concurrent queries joining the same dimension
/// table build into disjoint namespaces instead of colliding on (join id, unit).
/// `DropQuery` releases a finished query's tables.
///
/// \par Shared-build promotion (cross-query reuse)
/// When the serving layer enables it, read-only replica sets are additionally
/// registered under a *content key* (table + mutation epoch + build predicate
/// + key/payload schema + layout + unit set) with single-flight build
/// deduplication: the first query to AcquireShared a key becomes the builder
/// (Role::kBuild) and must later PublishShared or FailShared; concurrent
/// queries on the same key block until the build resolves and then attach
/// (Role::kAttach) — AttachShared aliases the shared replicas into their own
/// query namespace, so probe-side Get() is reuse-agnostic. A failed build
/// wakes the waiters and promotes exactly one of them to builder (fault
/// failover without poisoning the attachers). Tables are reference-counted:
/// DropQuery only releases a query's aliases, never a live shared replica.
class HtRegistry {
 public:
  /// Creates the replica of `join_id` on `unit`, allocating exactly
  /// `layout.Bytes()` from `mm`; fails with the layout's named Status
  /// (JoinHashTable::Layout::Check) before allocating anything.
  Result<jit::JoinHashTable*> Create(uint64_t query, int join_id,
                                     sim::DeviceId unit, memory::MemoryManager* mm,
                                     const jit::JoinHashTable::Layout& layout);
  jit::JoinHashTable* Get(uint64_t query, int join_id, sim::DeviceId unit) const;

  /// Releases every hash table (alias) of a finished query.
  void DropQuery(uint64_t query);

  /// \name Shared-build promotion
  /// @{

  /// Resolves `query`'s role for the content key: builder (first claimant, or
  /// failover claimant after a failed build), attacher (replicas ready), or
  /// private (the same query already builds this key — a query cannot wait on
  /// itself — or the entry's builder session arrived later on the virtual
  /// timeline than `session_epoch`: a session never uses a replica set a
  /// later-arriving session started, whichever host thread got here first).
  /// Blocks while another query's build is in flight; `control` (nullable)
  /// lets a cancelled or deadline-expired waiter bail out with
  /// Role::kCancelled.
  ///
  /// Deadlock discipline: a query acquiring several keys MUST acquire them in
  /// a canonical (sorted-key) order — the global total order makes
  /// hold-and-wait cycles between queries with overlapping key sets
  /// impossible. GraphBuilder sorts its acquisition batch accordingly.
  ///
  /// `table` + `mutation_epoch` (the source table the content key embeds)
  /// drive stale-generation GC: claiming a new key retires the table's
  /// non-building entries from older epochs, whose keys no future query can
  /// compute. Empty `table` (tests, opaque keys) opts out of the sweep.
  SharedBuildLease AcquireShared(const std::string& content_key, uint64_t query,
                                 const QueryControl* control,
                                 const std::string& table = "",
                                 uint64_t mutation_epoch = 0,
                                 sim::VTime session_epoch = 0);

  /// Builder success: shares the replicas `query` built for `join_id` under
  /// the key (the builder's own namespace keeps its aliases) and wakes the
  /// waiters. `ready_at` maps each replica's unit to the time that replica
  /// completed at, local to the builder's session (the `session_epoch` it
  /// acquired the key with); it must cover every published replica.
  void PublishShared(const std::string& content_key, uint64_t query,
                     int join_id, std::map<sim::DeviceId, sim::VTime> ready_at);

  /// Builder failure: marks the entry failed and wakes the waiters; the first
  /// to re-acquire is promoted to builder (counted as a failover).
  void FailShared(const std::string& content_key);

  /// Attacher: aliases the key's ready replicas into `query`'s namespace as
  /// `join_id`, so the query's probe pipelines Get() them like its own.
  /// Returns the number of replicas aliased.
  int AttachShared(const std::string& content_key, uint64_t query, int join_id);

  struct SharedStats {
    uint64_t builds = 0;     ///< single-flight builds won (incl. failovers)
    uint64_t attaches = 0;   ///< queries that attached instead of building
    uint64_t failovers = 0;  ///< builder promotions after a failed build
  };
  SharedStats shared_stats() const;
  int NumSharedEntries() const;
  /// @}

  /// Total bytes across all live tables, shared replicas counted once
  /// (admission diagnostics).
  uint64_t TotalHtBytes() const;
  /// Tables currently registered for `query` (tests/diagnostics).
  int NumTables(uint64_t query) const;

 private:
  using Key = std::tuple<uint64_t, int, sim::DeviceId>;  // (query, join, unit)

  struct SharedEntry {
    enum class State { kBuilding, kReady, kFailed };
    State state = State::kBuilding;
    uint64_t builder = 0;  ///< query currently holding the build role
    sim::VTime builder_epoch = 0;  ///< that query's session epoch
    std::map<sim::DeviceId, sim::VTime> ready_at;  // builder-local completion
    std::string table;   ///< source table the content key embeds (GC grouping)
    uint64_t epoch = 0;  ///< table mutation epoch the replicas were built at
    std::map<sim::DeviceId, std::shared_ptr<jit::JoinHashTable>> replicas;
  };

  /// Erases `table`'s shared entries from mutation epochs other than `epoch`:
  /// content keys embed the epoch, so no future query can ever acquire them
  /// again — without the sweep a long-running server with mutation churn
  /// grows dead replica sets without bound. In-flight (kBuilding) entries are
  /// skipped; they retire on the next same-table sweep after they resolve.
  /// Caller holds mu_.
  void EvictStaleLocked(const std::string& table, uint64_t epoch);

  mutable std::mutex mu_;
  std::condition_variable shared_cv_;
  std::map<Key, std::shared_ptr<jit::JoinHashTable>> tables_;
  std::map<std::string, SharedEntry> shared_;
  SharedStats shared_stats_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_HT_REGISTRY_H_
