// Compaction engine: phase-structured resumability, budgeted slicing,
// probability-guided planning and the bounded Collect phase (DESIGN.md §9).
//
// The engine-specific behaviors live here; end-to-end compaction
// correctness (data survival, pointer correction, ghost release) stays in
// compaction_test.cc, which now runs through the same sliced engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc/fragmentation.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "core/probability.h"
#include "sim/address_space.h"
#include "sim/fault_injector.h"

namespace corm::core {
namespace {

constexpr uint32_t kPayload = 56;  // class 64: 64 objects per 4 KiB block

const char* PhaseName(CompactionPhase p) {
  switch (p) {
    case CompactionPhase::kIdle: return "Idle";
    case CompactionPhase::kSelect: return "Select";
    case CompactionPhase::kCollect: return "Collect";
    case CompactionPhase::kConflictCheck: return "ConflictCheck";
    case CompactionPhase::kCopy: return "Copy";
    case CompactionPhase::kIndexRepair: return "IndexRepair";
    case CompactionPhase::kRemap: return "Remap";
    case CompactionPhase::kFixup: return "Fixup";
    case CompactionPhase::kReclaim: return "Reclaim";
  }
  return "?";
}

// The engine's legal phase graph (SetPhase fires the hook only on actual
// transitions; a phase that polls and re-enters does not re-announce).
bool ValidTransition(CompactionPhase from, CompactionPhase to) {
  switch (from) {
    case CompactionPhase::kIdle:
      return to == CompactionPhase::kSelect;
    case CompactionPhase::kSelect:
      return to == CompactionPhase::kCollect ||
             to == CompactionPhase::kReclaim;
    case CompactionPhase::kCollect:
      return to == CompactionPhase::kConflictCheck ||
             to == CompactionPhase::kReclaim;
    case CompactionPhase::kConflictCheck:
      return to == CompactionPhase::kCopy || to == CompactionPhase::kReclaim;
    case CompactionPhase::kCopy:
      return to == CompactionPhase::kIndexRepair ||
             to == CompactionPhase::kReclaim;
    case CompactionPhase::kIndexRepair:
      // Entered only after a successful copy; aborts drain through the
      // copy phase, so the only exits are forward into Remap or a Reclaim
      // wind-down when the run is cancelled.
      return to == CompactionPhase::kRemap ||
             to == CompactionPhase::kReclaim;
    case CompactionPhase::kRemap:
      return to == CompactionPhase::kFixup ||
             to == CompactionPhase::kReclaim;
    case CompactionPhase::kFixup:
      return to == CompactionPhase::kConflictCheck;
    case CompactionPhase::kReclaim:
      return to == CompactionPhase::kIdle;
  }
  return false;
}

CormConfig BaseConfig() {
  CormConfig config;
  config.num_workers = 2;
  config.block_pages = 1;
  config.object_id_bits = 16;
  return config;
}

// Allocates objects through the RPC path, patterns them, frees every other
// one so the class fragments into half-full blocks.
struct Fragmented {
  std::vector<GlobalAddr> survivors;
  std::vector<size_t> live_idx;  // pattern seed per survivor
};

Fragmented Fragment(Context* ctx, size_t count) {
  std::vector<GlobalAddr> addrs;
  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < count; ++i) {
    auto addr = ctx->Alloc(kPayload);
    EXPECT_TRUE(addr.ok());
    PatternFill(i, buf.data(), kPayload);
    EXPECT_TRUE(ctx->Write(&*addr, buf.data(), kPayload).ok());
    addrs.push_back(*addr);
  }
  Fragmented out;
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(ctx->Free(&addrs[i]).ok());
    } else {
      out.survivors.push_back(addrs[i]);
      out.live_idx.push_back(i);
    }
  }
  return out;
}

void VerifySurvivors(Context* ctx, const Fragmented& frag) {
  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < frag.survivors.size(); ++i) {
    GlobalAddr addr = frag.survivors[i];
    ASSERT_TRUE(ctx->Read(&addr, buf.data(), kPayload).ok()) << i;
    EXPECT_TRUE(PatternCheck(frag.live_idx[i], buf.data(), kPayload)) << i;
  }
}

// --- Resumability: a tiny-budget run is many slices, one coherent run. -----

TEST(CompactionEngineTest, SlicedRunResumesAcrossPhases) {
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 1;  // one object copied per slice
  config.compaction_slice_pairs = 1;    // one plan pair examined per slice

  std::mutex mu;
  std::vector<CompactionPhase> seen;
  config.compaction_phase_hook = [&](CompactionPhase p) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(p);
  };

  CormNode node(config);
  auto ctx = Context::Create(&node);
  Fragmented frag = Fragment(ctx.get(), 512);

  auto report = node.Compact(*node.ClassForPayload(kPayload));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->blocks_freed, 0u);
  EXPECT_GT(report->objects_moved, 0u);

  // FinishRun publishes the report before announcing kIdle, so wait for the
  // trailing transition before inspecting the sequence.
  for (int spin = 0; spin < 10000; ++spin) {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen.empty() && seen.back() == CompactionPhase::kIdle) break;
    std::this_thread::yield();
  }

  std::vector<CompactionPhase> phases;
  {
    std::lock_guard<std::mutex> lock(mu);
    phases = seen;
  }
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.front(), CompactionPhase::kSelect);
  EXPECT_EQ(phases.back(), CompactionPhase::kIdle);
  for (size_t i = 1; i < phases.size(); ++i) {
    EXPECT_TRUE(ValidTransition(phases[i - 1], phases[i]))
        << PhaseName(phases[i - 1]) << " -> " << PhaseName(phases[i]);
  }
  size_t fixups = 0;
  bool saw_copy = false, saw_remap = false;
  for (CompactionPhase p : phases) {
    fixups += (p == CompactionPhase::kFixup) ? 1 : 0;
    saw_copy |= p == CompactionPhase::kCopy;
    saw_remap |= p == CompactionPhase::kRemap;
  }
  EXPECT_TRUE(saw_copy);
  EXPECT_TRUE(saw_remap);
  EXPECT_EQ(fixups, report->blocks_freed);  // one Fixup per retired source

  // A one-object copy budget forces far more slices than merged pairs: the
  // run genuinely suspended and resumed (at least one slice per object).
  EXPECT_GT(report->slices, report->objects_moved);
  EXPECT_EQ(node.stats().compaction_slices, report->slices);

  VerifySurvivors(ctx.get(), frag);
  EXPECT_TRUE(node.Audit().ok());
}

// --- Pause after every phase: invariants hold at each slice boundary. ------

// Gate handed to the phase hook: the leader blocks at every transition
// until the main thread inspects the paused state and releases it.
struct PhaseGate {
  std::mutex mu;
  std::condition_variable cv;
  CompactionPhase phase = CompactionPhase::kIdle;
  bool paused = false;
  bool release = false;
};

TEST(CompactionEngineTest, PausedSlicesKeepDirectoryAndVaddrInvariants) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_phase_hook = [&gate](CompactionPhase p) {
    // kIdle is announced after the report is published (the caller may
    // already have returned); pausing there would serialize against the
    // test's join instead of the run.
    if (p == CompactionPhase::kIdle) return;
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.phase = p;
    gate.paused = true;
    gate.release = false;
    gate.cv.notify_all();
    gate.cv.wait(lock, [&gate] { return gate.release; });
  };

  CormNode node(config);
  auto ctx = Context::Create(&node);
  Fragmented frag = Fragment(ctx.get(), 512);

  std::atomic<bool> compact_done{false};
  Result<CompactionReport> report = Status::Internal("never ran");
  std::thread compactor([&] {
    report = node.Compact(*node.ClassForPayload(kPayload));
    compact_done.store(true, std::memory_order_release);
  });

  // While the leader is frozen mid-run we may only check state that no
  // worker thread has to serve: lock-free directory lookups, the vaddr
  // tracker's ghost count and the service flag. (A full Audit() fans out
  // to the blocked leader and would deadlock — by design.)
  size_t pauses = 0;
  while (!compact_done.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lock(gate.mu);
    if (!gate.cv.wait_for(lock, std::chrono::milliseconds(50),
                          [&gate] { return gate.paused; })) {
      continue;  // re-check compact_done
    }
    ++pauses;
    EXPECT_TRUE(node.IsServingRequests());
    // Every survivor's last-known virtual address must resolve to some
    // block (current or ghost alias) at every slice boundary: compaction
    // never leaves a window where a one-sided reader's base dangles.
    for (const GlobalAddr& addr : frag.survivors) {
      const sim::VAddr base = addr.vaddr & ~(sim::kVPageSize - 1);
      EXPECT_NE(node.directory_for_testing().Lookup(base).block, nullptr)
          << "dangling base at phase " << PhaseName(gate.phase);
    }
    gate.paused = false;
    gate.release = true;
    gate.cv.notify_all();
  }
  compactor.join();

  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->blocks_freed, 0u);
  // The run paused at least once per phase a merge passes through.
  EXPECT_GE(pauses, 6u);

  VerifySurvivors(ctx.get(), frag);
  EXPECT_TRUE(node.Audit().ok());
}

// --- Readers and writers interleave with a sliced run (tsan-labeled). ------

TEST(CompactionEngineTest, ReadersAndWritersInterleaveWithSlicedRuns) {
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 2;
  config.compaction_slice_pairs = 1;
  CormNode node(config);

  auto setup_ctx = Context::Create(&node);
  Fragmented frag = Fragment(setup_ctx.get(), 512);
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_ok{0}, writes_ok{0};

  // Readers check the pattern the writer maintains: both always use the
  // survivor's original seed, so any interleaving must still verify.
  std::thread reader([&] {
    auto ctx = Context::Create(&node);
    std::vector<uint8_t> buf(kPayload);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t k = i++ % frag.survivors.size();
      GlobalAddr addr = frag.survivors[k];
      if (ctx->Read(&addr, buf.data(), kPayload).ok()) {
        EXPECT_TRUE(PatternCheck(frag.live_idx[k], buf.data(), kPayload));
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }  // transient (locked/moved mid-slice): retried on the next lap
    }
  });
  std::thread writer([&] {
    auto ctx = Context::Create(&node);
    std::vector<uint8_t> buf(kPayload);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t k = (i++ * 7) % frag.survivors.size();
      GlobalAddr addr = frag.survivors[k];
      PatternFill(frag.live_idx[k], buf.data(), kPayload);
      if (ctx->Write(&addr, buf.data(), kPayload).ok()) {
        writes_ok.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Sliced runs interleave with the traffic above; later rounds may find
  // nothing left to merge, which still exercises Select/Reclaim. Past the
  // fourth round, keep compacting until both threads have landed an op: on
  // a loaded host they can start only after four short runs are over.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto both_landed = [&] {
    return reads_ok.load(std::memory_order_relaxed) > 0 &&
           writes_ok.load(std::memory_order_relaxed) > 0;
  };
  for (int round = 0;
       round < 4 ||
       (!both_landed() && std::chrono::steady_clock::now() < give_up);
       ++round) {
    auto report = node.Compact(class_idx);
    ASSERT_TRUE(report.ok()) << report.status();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  writer.join();

  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GT(writes_ok.load(), 0u);
  VerifySurvivors(setup_ctx.get(), frag);
  EXPECT_TRUE(node.Audit().ok());
}

// --- Planner: pairs ranked by the §3.1.2 collision probability. ------------

TEST(CompactionEngineTest, PlannerRanksPairsByCollisionProbability) {
  constexpr int kIdBits = 16;
  constexpr uint64_t kSlots = 64;
  auto p = [](uint64_t b1, uint64_t b2) {
    return CormCompactionProbability(kIdBits, kSlots, b1, b2);
  };

  // Occupancies chosen so the scores discriminate: the emptiest block (4)
  // should chain into the fullest feasible one (60), not into a low-fill
  // destination that a first-fit scan would take.
  const std::vector<alloc::BlockOccupancy> blocks = {
      {0, 4, kSlots}, {1, 10, kSlots}, {2, 20, kSlots},
      {3, 60, kSlots}, {4, 62, kSlots},
  };
  size_t infeasible = 0;
  const auto plan = alloc::PlanMerges(blocks, p, &infeasible);

  ASSERT_EQ(plan.size(), 2u);
  // Source 4 → destination 60: p(4,60)·(64/64) beats p(4,20)·(24/64) and
  // p(4,10)·(14/64); 62 is infeasible (4+62 > 64).
  EXPECT_EQ(plan[0].src_index, 0u);
  EXPECT_EQ(plan[0].dst_index, 3u);
  EXPECT_DOUBLE_EQ(plan[0].probability, p(4, 60));
  EXPECT_DOUBLE_EQ(plan[0].score, p(4, 60) * (4.0 + 60.0) / 64.0);
  // Source 10: block 3 is tentatively full (64) after the planned chain, so
  // the only feasible destination left is 20.
  EXPECT_EQ(plan[1].src_index, 1u);
  EXPECT_EQ(plan[1].dst_index, 2u);
  EXPECT_DOUBLE_EQ(plan[1].probability, p(10, 20));
  // Remaining sources (the grown 20-block, 60 and 62) have no feasible
  // destination under tentative occupancy.
  EXPECT_EQ(infeasible, 3u);
  // Sources ascend by occupancy (§3.1.4: fewest objects first).
  EXPECT_LT(blocks[plan[0].src_index].used, blocks[plan[1].src_index].used);

  // Sanity on the callback itself: a fuller pairing is likelier to collide.
  EXPECT_GT(p(4, 10), p(30, 30));
  EXPECT_EQ(p(40, 40), 0.0);  // cannot fit: probability zero by contract
}

// --- Bounded Collect: a stalled collector converts to kTimeout. ------------

TEST(CompactionEngineTest, CollectStallTimesOutAndNodeStaysServiceable) {
  sim::FaultInjector injector(/*seed=*/7);
  sim::FaultSchedule stall;
  stall.one_shot_at = 1;  // swallow exactly the first Collect message
  injector.Arm(sim::fault_sites::kCompactionCollectStall, stall);
  sim::ScopedFaultInjector install(&injector);

  CormConfig config = BaseConfig();
  config.compaction_collect_deadline_ns = 50'000'000;  // 50 ms wall clock
  CormNode node(config);
  auto ctx = Context::Create(&node);
  Fragmented frag = Fragment(ctx.get(), 512);
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  // The peer worker swallows the Collect message: the run must convert the
  // stall into kTimeout within the deadline instead of wedging the leader.
  auto stalled = node.Compact(class_idx);
  ASSERT_FALSE(stalled.ok());
  EXPECT_TRUE(stalled.status().IsTimeout()) << stalled.status();
  EXPECT_EQ(node.stats().compaction_timeouts, 1u);
  EXPECT_EQ(
      injector.FiredCount(sim::fault_sites::kCompactionCollectStall), 1u);

  // The node kept its blocks (the leader defers its own collection until
  // every peer donated) and still serves the data plane.
  VerifySurvivors(ctx.get(), frag);
  auto fresh = ctx->Alloc(kPayload);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(ctx->Free(&*fresh).ok());

  // With the one-shot fault consumed, the retried run completes and
  // actually compacts.
  auto retried = node.Compact(class_idx);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_GT(retried->blocks_freed, 0u);
  VerifySurvivors(ctx.get(), frag);
  EXPECT_TRUE(node.Audit().ok());
}

}  // namespace
}  // namespace corm::core
