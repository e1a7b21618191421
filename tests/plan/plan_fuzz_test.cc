// Plan-mutation property/fuzz test: seeded random mutations of enumerated
// HetPlans — placement flips, router-policy perturbations, DOP changes,
// segmentation-granularity changes (the PR 4 GPU-granularity-clamp class of
// bug), UVA flips, channel-capacity changes, and placement or router flips of
// a hybrid plan's build-side filter stage — must either
//
//   (a) fail ValidateHetPlan with a message naming the offending node (and
//       rule), or
//   (b) reach the executor and come back as a Status — ok or a descriptive
//       error — without crashing, aborting or corrupting the process; and
//
// semantics-preserving ("benign") mutations that execute successfully must
// produce exactly the reference rows. This locks in the whole class of
// "mutated plan reaches deep runtime machinery and aborts" bugs: the
// GPU-granularity clamp (coarse blocks used to crash the mem-move), probe
// units without a hash-table replica, duplicate build replicas, UVA edges fed
// by device-resident producers, and placements naming devices the server
// does not have. A validated plan is costed exactly when it lowers:
// PlanCoster and GraphBuilder share one plan analysis.
//
// CI runs the three pinned seeds below; FUZZ_ITERS scales the mutation count
// per seed for longer local soaks (default small in CI).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/graph_builder.h"
#include "plan/coster.h"
#include "plan/enumerator.h"
#include "plan/het_plan.h"
#include "test_util.h"

namespace hetex::plan {
namespace {

using test::FuzzIters;
using test::TestEnv;

/// Applies one random mutation to `plan`. Returns false when the drawn
/// mutation found no applicable node (caller redraws). `benign` is cleared
/// for mutations that may legally change the result rows (e.g. routing every
/// block to every consumer duplicates data).
bool Mutate(Rng& rng, const sim::Topology& topo, HetPlan* plan, bool* benign,
            std::string* trace) {
  using Kind = HetOpNode::Kind;
  auto pick = [&](auto&& pred) -> int {
    std::vector<int> ids;
    for (size_t i = 0; i < plan->nodes.size(); ++i) {
      if (pred(plan->nodes[i])) ids.push_back(static_cast<int>(i));
    }
    if (ids.empty()) return -1;
    return ids[rng.Uniform(ids.size())];
  };
  auto random_device = [&]() {
    // In-range devices only: out-of-range placements are covered by the
    // lowering's own bounds check (tested in graph_builder_test), and the
    // contract here is validate-or-execute, not abort-on-bad-index.
    if (topo.num_gpus() > 0 && rng.NextBool(0.5)) {
      return sim::DeviceId::Gpu(static_cast<int>(rng.Uniform(topo.num_gpus())));
    }
    return sim::DeviceId::Cpu(static_cast<int>(rng.Uniform(topo.num_sockets())));
  };

  switch (rng.Uniform(8)) {
    case 0: {  // placement flip: retarget one instance of one span
      const int id = pick([](const HetOpNode& n) { return !n.placement.empty(); });
      if (id < 0) return false;
      HetOpNode& n = plan->node(id);
      const size_t slot = rng.Uniform(n.placement.size());
      n.placement[slot] = random_device();
      *trace += " flip(node " + std::to_string(id) + " slot " +
                std::to_string(slot) + " -> " + n.placement[slot].ToString() + ")";
      return true;
    }
    case 1: {  // router policy perturbation
      const int id = pick([](const HetOpNode& n) { return n.kind == Kind::kRouter; });
      if (id < 0) return false;
      HetOpNode& n = plan->node(id);
      static const RouterPolicy kPolicies[] = {
          RouterPolicy::kRoundRobin, RouterPolicy::kLoadBalance,
          RouterPolicy::kHash, RouterPolicy::kBroadcast, RouterPolicy::kUnion};
      const RouterPolicy next = kPolicies[rng.Uniform(5)];
      // Broadcast duplicates data flow (and un-broadcasting a build router
      // leaves partial hash tables): rows may legally change.
      if (n.policy == RouterPolicy::kBroadcast || next == RouterPolicy::kBroadcast) {
        *benign = false;
      }
      n.policy = next;
      *trace += " policy(node " + std::to_string(id) + " -> " +
                RouterPolicyName(next) + ")";
      return true;
    }
    case 2: {  // segmentation granularity, including the coarse clamp regime
      const int id =
          pick([](const HetOpNode& n) { return n.kind == Kind::kSegmenter; });
      if (id < 0) return false;
      static const uint64_t kRows[] = {512, 4096, 1ull << 17, 1ull << 20};
      plan->node(id).block_rows = kRows[rng.Uniform(4)];
      *trace += " granularity(node " + std::to_string(id) + " -> " +
                std::to_string(plan->node(id).block_rows) + ")";
      return true;
    }
    case 3: {  // DOP up: clone one instance of a parallel span
      const int id = pick([](const HetOpNode& n) {
        return !n.placement.empty() && n.kind != Kind::kGather;
      });
      if (id < 0) return false;
      HetOpNode& n = plan->node(id);
      n.placement.push_back(n.placement[rng.Uniform(n.placement.size())]);
      n.dop = static_cast<int>(n.placement.size());
      *trace += " dop+(node " + std::to_string(id) + ")";
      return true;
    }
    case 4: {  // DOP down
      const int id =
          pick([](const HetOpNode& n) { return n.placement.size() > 1; });
      if (id < 0) return false;
      HetOpNode& n = plan->node(id);
      n.placement.pop_back();
      n.dop = static_cast<int>(n.placement.size());
      *trace += " dop-(node " + std::to_string(id) + ")";
      return true;
    }
    case 5: {  // UVA flip on a device crossing
      const int id =
          pick([](const HetOpNode& n) { return n.kind == Kind::kCpu2Gpu; });
      if (id < 0) return false;
      HetOpNode& n = plan->node(id);
      n.uva = !n.uva;
      *trace += " uva(node " + std::to_string(id) + " -> " +
                (n.uva ? "on" : "off") + ")";
      return true;
    }
    case 7: {  // build-side filter stage: its placement or its router policy
      // The stage's top is the pack feeding a build broadcast; its span
      // placement and the router below it are what the lowering reads.
      std::vector<int> packs;
      for (const HetOpNode& n : plan->nodes) {
        if (n.kind != Kind::kRouter || n.policy != RouterPolicy::kBroadcast) continue;
        for (int c : n.children) {
          if (plan->node(c).kind == Kind::kPack) packs.push_back(c);
        }
      }
      if (packs.empty()) return false;
      const int pack = packs[rng.Uniform(packs.size())];
      if (rng.NextBool(0.5)) {
        HetOpNode& n = plan->node(pack);
        if (n.placement.empty()) return false;
        const size_t slot = rng.Uniform(n.placement.size());
        n.placement[slot] = random_device();
        *trace += " filter-stage flip(node " + std::to_string(pack) + " slot " +
                  std::to_string(slot) + " -> " + n.placement[slot].ToString() +
                  ")";
        return true;
      }
      int router = pack;
      for (size_t steps = 0; plan->node(router).kind != Kind::kRouter; ++steps) {
        if (plan->node(router).children.empty() || steps > plan->nodes.size()) {
          return false;
        }
        router = plan->node(router).children[0];
      }
      static const RouterPolicy kPolicies[] = {
          RouterPolicy::kRoundRobin, RouterPolicy::kLoadBalance,
          RouterPolicy::kHash, RouterPolicy::kBroadcast, RouterPolicy::kUnion};
      HetOpNode& n = plan->node(router);
      const RouterPolicy next = kPolicies[rng.Uniform(5)];
      if (n.policy == RouterPolicy::kBroadcast || next == RouterPolicy::kBroadcast) {
        *benign = false;  // every filter instance would pack every row
      }
      n.policy = next;
      *trace += " filter-stage policy(node " + std::to_string(router) + " -> " +
                RouterPolicyName(next) + ")";
      return true;
    }
    default: {  // channel capacity (router queue depth / backpressure)
      static const uint64_t kCaps[] = {2, 4, 64};
      plan->channel_capacity = kCaps[rng.Uniform(3)];
      *trace += " chan(" + std::to_string(plan->channel_capacity) + ")";
      return true;
    }
  }
}

class PlanFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanFuzzTest, MutatedPlansValidateOrExecute) {
  Rng rng(GetParam());
  TestEnv env(10'000);
  core::QueryExecutor executor(env.system.get());
  const sim::Topology& topo = env.system->topology();

  const std::vector<std::pair<int, int>> kPool = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  std::map<std::string, std::vector<std::vector<int64_t>>> reference;
  std::map<std::string, std::vector<PlanCandidate>> candidates;
  for (const auto& [flight, idx] : kPool) {
    const QuerySpec spec = env.ssb->Query(flight, idx);
    reference[spec.name] = env.Reference(spec);
    candidates[spec.name] =
        EnumeratePlans(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)), topo);
    ASSERT_FALSE(candidates[spec.name].empty()) << spec.name;
  }

  int validated_failures = 0;
  int executed_ok = 0;
  int executed_error = 0;
  // 40 is the smallest round count at which every pinned seed exercises both
  // arms of the contract (some rejections AND some executions).
  const int iters = FuzzIters(40);
  for (int iter = 0; iter < iters; ++iter) {
    const auto [flight, idx] = kPool[rng.Uniform(kPool.size())];
    const QuerySpec spec = env.ssb->Query(flight, idx);
    const auto& cands = candidates[spec.name];
    HetPlan plan = cands[rng.Uniform(cands.size())].plan;  // copy to mutate

    bool benign = true;
    std::string trace;
    const int n_mutations = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < n_mutations;) {
      if (Mutate(rng, topo, &plan, &benign, &trace)) ++m;
    }

    const Status valid = ValidateHetPlan(plan);
    if (!valid.ok()) {
      // (a) Rejected: the message names the offending node (and the broken
      // rule for the §3.3 converter rules).
      ++validated_failures;
      EXPECT_NE(valid.ToString().find("node "), std::string::npos)
          << "seed " << GetParam() << " iter " << iter
          << ": rejection does not name a node: " << valid.ToString();
      continue;
    }

    // One validity definition: the coster prices exactly the plans the
    // lowering accepts.
    PlanCoster::Options coster_options;
    coster_options.pack_block_rows = env.system->blocks().options().block_bytes / 8;
    const PlanCoster coster(spec, env.system->catalog(), topo, coster_options);
    core::GraphBuilder builder(env.system.get(), &plan);
    EXPECT_EQ(coster.Cost(plan).ok(), builder.Analyze().ok())
        << "seed " << GetParam() << " iter " << iter << " " << spec.name
        << ":" << trace << "\n" << plan.ToString();

    // (b) Validated: the plan must lower and execute — or surface a Status —
    // without crashing. Whatever happens, the system must stay usable.
    const core::QueryResult r = executor.ExecutePlan(spec, plan);
    if (r.status.ok()) {
      ++executed_ok;
      if (benign) {
        EXPECT_EQ(r.rows, reference[spec.name])
            << "seed " << GetParam() << " iter " << iter << " " << spec.name
            << ": semantics-preserving mutation changed the result;"
            << trace << "\n" << plan.ToString();
      }
    } else {
      ++executed_error;
      EXPECT_FALSE(r.status.ToString().empty());
    }
    EXPECT_EQ(env.system->hts().NumTables(r.query_id), 0);
  }

  // The mutation space genuinely exercises both arms of the contract: some
  // mutations execute, and some are rejected by validation (holds at every
  // pinned seed; a mutation space that stops producing invalid plans would
  // make the named-node property above vacuous).
  EXPECT_GT(executed_ok, 0) << "no mutated plan executed";
  EXPECT_GT(validated_failures, 0) << "no mutated plan was rejected";

  // The system survived the whole campaign: a clean query still runs.
  const QuerySpec spec = env.ssb->Query(1, 1);
  const core::QueryResult sane =
      executor.Execute(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)));
  ASSERT_TRUE(sane.status.ok()) << sane.status.ToString();
  EXPECT_EQ(sane.rows, reference[spec.name]);
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, PlanFuzzTest,
                         ::testing::Values(0xFEEDull, 1337ull, 20260729ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hetex::plan
