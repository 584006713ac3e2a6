#include "core/corm_node.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/byte_units.h"

#include "common/cpu_relax.h"
#include "common/logging.h"
#include "core/object_layout.h"
#include "core/worker.h"
#include "sim/fault_injector.h"

namespace corm::core {

namespace {
// Worker id of the calling thread for stat-shard attribution; -1 (any
// non-worker thread, or a worker of another node with an out-of-range id)
// falls back to the overflow shard. Misattribution across nodes is
// harmless: stats() sums all shards.
thread_local int tls_worker_id = -1;
}  // namespace

CormNode::CormNode(CormConfig config)
    : config_(config),
      classes_(alloc::SizeClassTable::Default()),
      rpc_queue_(/*ring_capacity_pow2=*/1024,
                 /*num_rings=*/std::max(config.num_workers, 1)),
      stat_shards_(static_cast<size_t>(std::max(config.num_workers, 1)) + 1 +
                   kClientStatShards) {
  CORM_CHECK_GT(config_.num_workers, 0);
  CORM_CHECK_LE(config_.object_id_bits, 16);
  phys_ = std::make_unique<sim::PhysicalMemory>();
  space_ = std::make_unique<sim::AddressSpace>(phys_.get());
  files_ = std::make_unique<sim::MemFileManager>(phys_.get());
  rnic_ = std::make_unique<rdma::Rnic>(space_.get(), config_.MakeLatencyModel());
  alloc::BlockAllocatorConfig ba_config;
  ba_config.block_pages = config_.block_pages;
  ba_config.remap_strategy = config_.remap_strategy;
  ba_config.huge_pages = config_.huge_pages;
  block_allocator_ = std::make_unique<alloc::BlockAllocator>(
      space_.get(), files_.get(), rnic_.get(), &classes_, ba_config);
  rpc_queue_.rate_limiter()->SetRate(config_.nic_msg_rate);

  // Keyed index table (DESIGN.md §13): 64-byte header (word 0 = index fence
  // epoch) + 4-way seqlocked buckets, mapped fresh (all-zero: epoch 0,
  // every entry kEmpty) and registered ODP so clients can snapshot buckets
  // one-sided.
  index_buckets_ =
      static_cast<uint32_t>(std::max<size_t>(config_.index_buckets, 1));
  const size_t index_bytes = index::TableBytes(index_buckets_);
  index_table_pages_ = (index_bytes + sim::kVPageSize - 1) / sim::kVPageSize;
  // Virtual ranges are reserved at block granularity (see BlockBaseOf in
  // core/addr.h): round the table up so the blocks reserved after it stay
  // block_bytes-aligned.
  index_table_pages_ =
      (index_table_pages_ + config_.block_pages - 1) / config_.block_pages *
      config_.block_pages;
  index_table_base_ = space_->ReserveRange(index_table_pages_);
  // Contiguous: the server-side IndexTable view walks the bucket array
  // through one TranslatePtr(base) pointer, so the backing pages must be
  // one linear slab.
  CORM_CHECK(
      space_->MapFreshContiguous(index_table_base_, index_table_pages_).ok());
  auto index_keys = rnic_->RegisterMemory(index_table_base_,
                                          index_table_pages_, /*odp=*/true);
  CORM_CHECK(index_keys.ok());
  index_table_keys_ = *index_keys;
  index_view_ = std::make_unique<index::IndexTable>(
      space_->TranslatePtr(index_table_base_), index_buckets_);

  repl_ingress_.resize(kMaxReplIngress);  // fixed capacity, never reallocates

  workers_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }
  threads_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    threads_.emplace_back([w = workers_[i].get()] { w->Run(); });
  }
  if (config_.background_compaction) StartBackgroundCompaction();
}

CormNode::~CormNode() {
  // Scheduler first: it issues Compact() control calls (and registered
  // background tasks) that need live workers to complete. Unconditional:
  // a leaked registered task must not keep the thread alive past the node.
  if (sched_running_) {
    sched_stop_.store(true, std::memory_order_relaxed);
    sched_thread_.join();
    sched_running_ = false;
  }
  stop_.store(true, std::memory_order_relaxed);
  rpc_queue_.WakeAll();  // parked workers notice stop_ now, not at timeout
  for (auto& t : threads_) t.join();
  threads_.clear();
  // Index table teardown (after every thread that could touch it has
  // joined; rnic_ and space_ are still alive here).
  if (index_table_base_ != 0) {
    index_view_.reset();
    rnic_->DeregisterMemory(index_table_keys_.r_key).ok();
    space_->Unmap(index_table_base_, index_table_pages_).ok();
    space_->ReleaseRange(index_table_base_, index_table_pages_);
  }
}

uint64_t CormNode::IndexEpoch() const { return index_view_->Epoch(); }

void CormNode::SealIndexEpoch() {
  uint64_t fenced = 0;
  index_view_->SealEpoch(&fenced);
  client_stat_shard().index_fenced_entries.Add(fenced);
}

// ---------------------------------------------------------------------------
// Background scheduler (compaction pass + registered tasks).
// ---------------------------------------------------------------------------

void CormNode::EnsureSchedulerThread() {
  if (sched_running_) return;
  sched_stop_.store(false, std::memory_order_relaxed);
  sched_thread_ = std::thread([this] { BackgroundSchedulerLoop(); });
  sched_running_ = true;
}

void CormNode::StopSchedulerThreadIfIdle() {
  if (!sched_running_) return;
  if (sched_compact_.load(std::memory_order_relaxed)) return;
  {
    LockGuard<RankedSpinLock> lock(sched_tasks_mu_);
    if (!sched_tasks_.empty()) return;
  }
  sched_stop_.store(true, std::memory_order_relaxed);
  sched_thread_.join();
  sched_running_ = false;
}

void CormNode::StartBackgroundCompaction() {
  sched_compact_.store(true, std::memory_order_relaxed);
  EnsureSchedulerThread();
}

void CormNode::StopBackgroundCompaction() {
  sched_compact_.store(false, std::memory_order_relaxed);
  StopSchedulerThreadIfIdle();
}

int CormNode::RegisterBackgroundTask(std::function<void()> task) {
  int id;
  {
    LockGuard<RankedSpinLock> lock(sched_tasks_mu_);
    id = sched_task_next_id_++;
    sched_tasks_.emplace_back(id, std::move(task));
  }
  EnsureSchedulerThread();
  return id;
}

void CormNode::UnregisterBackgroundTask(int id) {
  {
    // Acquiring the lock waits out any in-progress tick of the task (the
    // scheduler runs tasks with the lock held) — after this erase returns,
    // the task never runs again.
    LockGuard<RankedSpinLock> lock(sched_tasks_mu_);
    std::erase_if(sched_tasks_,
                  [id](const auto& entry) { return entry.first == id; });
  }
  StopSchedulerThreadIfIdle();
}

// Duty-cycled scheduler: sleep out the check interval, then (a) run the
// CompactIfFragmented pass (one run per class over the §3.1.3 trigger,
// posted together and waited on together), and (b) run every registered
// background task (DESIGN.md §11: the anti-entropy sweep rides this
// thread). The engine slices each compaction run on the leader, so a
// scheduler pass stalls the data plane no more than an explicit Compact()
// call would; the sleep bounds the duty cycle.
void CormNode::BackgroundSchedulerLoop() {
  const auto interval =
      std::chrono::microseconds(std::max<uint64_t>(
          config_.compaction_check_interval_us, 1));
  // Not a spin: each pass sleeps out the duty-cycle interval, and the loop
  // exits as soon as the stop flag is stored.
  while (!sched_stop_.load(std::memory_order_relaxed)) {  // NOLINT(corm-spin-wait)
    std::this_thread::sleep_for(interval);
    if (sched_stop_.load(std::memory_order_relaxed)) break;
    // A paused node (injected crash) keeps its memory quiescent.
    if (!IsServingRequests()) continue;
    if (sched_compact_.load(std::memory_order_relaxed)) {
      std::vector<PendingCompaction> runs = PostCompactIfFragmented();
      stat_shard(-1).compaction_bg_runs += runs.size();
      // kTimeout (stalled collector) is expected here; anything else is
      // surfaced by the stats the runs already recorded.
      (void)WaitCompactions(std::move(runs));
    }
    if (sched_stop_.load(std::memory_order_relaxed)) break;
    {
      LockGuard<RankedSpinLock> lock(sched_tasks_mu_);
      for (auto& [id, task] : sched_tasks_) task();
    }
  }
}

// ---------------------------------------------------------------------------
// Replicated-log ingress.
// ---------------------------------------------------------------------------

Result<CormNode::ReplIngressCoords> CormNode::CreateReplIngress(
    uint32_t slots, uint32_t slot_bytes) {
  auto ring = rdma::ReplLogRing::Create(space_.get(), rnic_.get(), slots,
                                        slot_bytes);
  CORM_RETURN_NOT_OK(ring.status());
  ReplIngressCoords coords;
  coords.base = ring->base();
  coords.r_key = ring->r_key();
  coords.slots = ring->slots();
  coords.slot_bytes = ring->slot_bytes();
  {
    LockGuard<RankedSpinLock> lock(repl_ingress_mu_);
    const size_t idx = repl_ingress_count_.load(std::memory_order_relaxed);
    if (idx >= kMaxReplIngress) {
      return Status::OutOfMemory("repl ingress registry full");
    }
    repl_ingress_[idx] =
        std::make_unique<rdma::ReplLogRing>(std::move(*ring));
    coords.id = static_cast<int>(idx);
    coords.drainer = rpc_queue_.parker(coords.id % config_.num_workers);
    // Publish: workers scan [0, count) lock-free, so the slot must be
    // written before the count release-store makes it visible.
    repl_ingress_count_.store(idx + 1, std::memory_order_release);
  }
  return coords;
}

Result<uint32_t> CormNode::ClassForPayload(uint32_t payload_size) const {
  for (uint32_t c = 0; c < classes_.num_classes(); ++c) {
    const uint32_t size = classes_.ClassSize(c);
    if (size > block_bytes()) break;
    if (PayloadCapacity(size) >= payload_size) return c;
  }
  return Status::InvalidArgument("object too large for any size class");
}

// ---------------------------------------------------------------------------
// Stats sharding.
// ---------------------------------------------------------------------------

void CormNode::BindWorkerThread(int id) { tls_worker_id = id; }

NodeStatShard& CormNode::CurrentStatShard() {
  return stat_shard(tls_worker_id);
}

uint64_t CormNode::WorkerPasses(int idx) const {
  return workers_[static_cast<size_t>(idx)]->passes();
}

NodeStats CormNode::stats() const {
  NodeStats out;
  stat_shards_.ForEach([&out](const NodeStatShard& s) {
#define CORM_SUM_COUNTER(name) out.name += s.name.Load();
    CORM_NODE_COUNTERS(CORM_SUM_COUNTER)
#undef CORM_SUM_COUNTER
  });
  return out;
}

// ---------------------------------------------------------------------------
// Compaction bookkeeping.
// ---------------------------------------------------------------------------

Result<uint64_t> CormNode::MergeRemap(alloc::Block* src, alloc::Block* dst,
                                      sim::PhysBlock* retired) {
  if (auto* fi = sim::GlobalFaultInjector();
      fi != nullptr && fi->ShouldFire(sim::fault_sites::kCompactionRemapFail)) {
    return Status::Internal("injected remap failure (nothing remapped)");
  }
  uint64_t ns = 0;
  std::optional<GhostToRelease> release;
  {
    // The alias lock serializes this whole retarget against a concurrent
    // last-object ghost release (ReleaseGhostAction) — the role the old
    // whole-directory writer lock played. Directory readers are unaffected:
    // they observe each retargeted base the moment its shard publishes it,
    // and old/new blocks alias the same frames after the remap (§3.3).
    //
    // The tracker's alias targets move inside the same section as the alias
    // lists (alias-list -> vaddr-tracker is in rank order). Once the remap
    // has retargeted a ghost's pages, a ReleasePtr can re-home its last
    // object; with the tracker updated after the unlock, that release would
    // name src while the ghost already sat in dst's list, and the stale
    // entry would outlive its vaddr until the next merge of dst re-aliased
    // whatever block had reused that base.
    LockGuard<RankedSpinLock> alias_lock(alias_mu_);
    std::vector<sim::VAddr> ghost_bases;
    ghost_bases.reserve(src->aliases().size());
    for (const auto& ghost : src->aliases()) ghost_bases.push_back(ghost.base);
    auto result = block_allocator_->MergeRemap(src, dst, retired);
    CORM_RETURN_NOT_OK(result.status());
    ns = *result;
    directory_.RetargetToAlias(src->base(), ghost_bases, dst);
    for (sim::VAddr base : ghost_bases) {
      vaddr_tracker_.SetAliasTarget(base, dst);
    }
    release = vaddr_tracker_.MarkGhost(src->base(), src->keys().r_key, dst);
  }
  if (release) ReleaseGhostAction(*release);
  return ns;
}

void CormNode::ReleaseGhostAction(const GhostToRelease& ghost) {
  {
    LockGuard<RankedSpinLock> alias_lock(alias_mu_);
    directory_.Erase(ghost.base);
    if (ghost.alias_of != nullptr) {
      auto& aliases = ghost.alias_of->aliases();
      aliases.erase(std::remove_if(aliases.begin(), aliases.end(),
                                   [&](const alloc::Block::GhostRef& g) {
                                     return g.base == ghost.base;
                                   }),
                    aliases.end());
    }
  }
  block_allocator_->ReleaseGhost(ghost.base, config_.block_pages,
                                 ghost.r_key);
  ++CurrentStatShard().ghosts_released;
}

void CormNode::RetireBlock(std::unique_ptr<alloc::Block> block) {
  LockGuard<RankedSpinLock> lock(graveyard_mu_);
  graveyard_.push_back(std::move(block));
}

// ---------------------------------------------------------------------------
// Control plane.
// ---------------------------------------------------------------------------

Result<CompactionReport> PendingCompaction::Wait() {
  CORM_CHECK(req_ != nullptr) << "compaction run already waited on";
  // Reply from a same-process worker thread, which cannot die independently
  // of this node; no deadline needed.
  while (!req_->done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
    CpuRelax();
  }
  const std::unique_ptr<CompactRequest> req = std::move(req_);
  CORM_RETURN_NOT_OK(req->status);
  return req->report;
}

Result<std::vector<CompactionReport>> WaitCompactions(
    std::vector<PendingCompaction> runs) {
  std::vector<CompactionReport> reports;
  Status first_error;
  for (PendingCompaction& run : runs) {
    auto report = run.Wait();
    if (report.ok()) {
      reports.push_back(*report);
    } else if (report.status().code() != StatusCode::kNotSupported &&
               first_error.ok()) {
      first_error = report.status();
    }
  }
  CORM_RETURN_NOT_OK(first_error);
  return reports;
}

PendingCompaction CormNode::PostCompact(uint32_t class_idx) {
  CORM_CHECK_LT(class_idx, classes_.num_classes());
  auto req = std::make_unique<CompactRequest>();
  req->class_idx = class_idx;
  WorkerMsg msg;
  msg.kind = WorkerMsg::Kind::kCompact;
  msg.compact = req.get();
  workers_[0]->Send(msg);
  return PendingCompaction(std::move(req));
}

std::vector<PendingCompaction> CormNode::PostCompactIfFragmented() {
  std::vector<PendingCompaction> runs;
  for (const auto& cls : Fragmentation()) {
    // Trigger per the §3.1.3 policy: at least two blocks (otherwise there
    // is nothing to merge) and a fragmentation ratio above the threshold.
    if (cls.num_blocks < 2) continue;
    if (cls.Ratio() < config_.fragmentation_threshold) continue;
    runs.push_back(PostCompact(cls.class_idx));
  }
  return runs;
}

Result<CompactionReport> CormNode::Compact(uint32_t class_idx) {
  if (class_idx >= classes_.num_classes()) {
    return Status::InvalidArgument("bad size class");
  }
  return PostCompact(class_idx).Wait();
}

Result<std::vector<CompactionReport>> CormNode::CompactIfFragmented() {
  return WaitCompactions(PostCompactIfFragmented());
}

std::vector<alloc::ClassFragmentation> CormNode::Fragmentation() {
  const uint32_t n = classes_.num_classes();
  std::vector<std::unique_ptr<StatsReply>> replies;
  for (int w = 0; w < config_.num_workers; ++w) {
    replies.push_back(std::make_unique<StatsReply>());
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kStats;
    msg.stats = replies.back().get();
    workers_[w]->Send(msg);
  }
  std::vector<alloc::ClassFragmentation> out(n);
  for (uint32_t c = 0; c < n; ++c) out[c].class_idx = c;
  for (auto& reply : replies) {
    // Same-process worker reply; the worker cannot die independently.
    while (!reply->done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
      CpuRelax();
    }
    for (uint32_t c = 0; c < n; ++c) {
      out[c].granted_bytes += reply->granted[c];
      out[c].used_bytes += reply->used[c];
      out[c].num_blocks += reply->nblocks[c];
    }
  }
  return out;
}

Status CormNode::Audit() {
  // Fan out so every worker audits its own allocator between operations —
  // the audit then needs no locks of its own and cannot observe a
  // half-applied mutation.
  std::vector<std::unique_ptr<AuditReply>> replies;
  for (int w = 0; w < config_.num_workers; ++w) {
    replies.push_back(std::make_unique<AuditReply>());
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kAudit;
    msg.audit = replies.back().get();
    workers_[w]->Send(msg);
  }
  Status st = Status::OK();
  for (auto& reply : replies) {
    // Same-process worker reply; the worker cannot die independently.
    while (!reply->done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
      CpuRelax();
    }
    if (st.ok() && !reply->status.ok()) st = reply->status;
  }
  CORM_RETURN_NOT_OK(st);
  return block_allocator_->AuditCounters();
}

Status CormNode::AuditBlock(const alloc::Block& block) {
  // Directory resolution: the block's own base is a non-alias entry, every
  // ghost alias resolves back to this block as an alias.
  const DirectoryEntry self = LookupBlock(block.base());
  if (self.block != &block || self.is_alias) {
    return Status::Internal("block audit: directory does not resolve base");
  }
  for (const auto& ghost : block.aliases()) {
    const DirectoryEntry entry = LookupBlock(ghost.base);
    if (entry.block != &block || !entry.is_alias) {
      return Status::Internal(
          "block audit: ghost alias does not resolve to its target");
    }
  }

  // Object IDs are only guaranteed unique (and the ID map maintained) when
  // the class is compactable — mirror Worker::ClassCompactable.
  const int bits = config_.object_id_bits;
  const uint64_t slots_per_block =
      block_bytes() / classes_.ClassSize(block.class_idx());
  const bool compactable =
      bits > 0 && slots_per_block <= (1ULL << bits);
  CORM_RETURN_NOT_OK(block.AuditConsistency(/*expect_ids=*/compactable));

  for (uint32_t slot = 0; slot < block.num_slots(); ++slot) {
    if (!block.SlotAllocated(slot)) continue;
    const uint8_t* ptr = space_->TranslatePtr(
        block.base() + static_cast<uint64_t>(slot) * block.slot_size());
    if (ptr == nullptr) {
      return Status::Internal("block audit: live slot is not mapped");
    }
    const uint64_t w1 = LoadHeaderWord(ptr);
    const ObjectHeader h = ObjectHeader::Unpack(w1);
    if (h.lock == LockState::kTombstone) {
      return Status::Internal("block audit: allocated slot holds a tombstone");
    }
    if (h.lock != LockState::kFree) continue;  // concurrent writer/compactor
    if (h.class_idx != (block.class_idx() & 0x3f)) {
      return Status::Internal("block audit: header class != block class");
    }
    if (compactable) {
      auto mapped = block.FindId(h.obj_id);
      if (!mapped || *mapped != slot) {
        return Status::Internal(
            "block audit: header object ID disagrees with the ID map");
      }
    }
    // The home block recorded in the header must still resolve — otherwise
    // a client-held pointer through that base would dangle.
    if (LookupBlock(HomeVaddrOf(h.home_page)).block == nullptr) {
      return Status::Internal(
          "block audit: home block not present in the directory");
    }
    Status payload = AuditSlotConsistency(ptr, block.slot_size());
    if (!payload.ok() && LoadHeaderWord(ptr) == w1) return payload;
    // Header changed under us: a writer raced the payload check; skip.
  }
  return Status::OK();
}

std::string CormNode::DebugReport() {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "CormNode: %d workers, %zu KiB blocks, CoRM-%d\n",
                config_.num_workers, block_bytes() / 1024,
                config_.object_id_bits);
  out += line;
  std::snprintf(line, sizeof(line),
                "memory: %s physical, %s virtual, %zu ghost ranges\n",
                FormatBytes(ActiveMemoryBytes()).c_str(),
                FormatBytes(VirtualMemoryBytes()).c_str(),
                vaddr_tracker_.NumGhosts());
  out += line;
  for (const auto& cls : Fragmentation()) {
    if (cls.num_blocks == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  class %-6u: %5zu blocks, %s granted, %s used, "
                  "ratio %.2f\n",
                  classes_.ClassSize(cls.class_idx), cls.num_blocks,
                  FormatBytes(cls.granted_bytes).c_str(),
                  FormatBytes(cls.used_bytes).c_str(), cls.Ratio());
    out += line;
  }
  const NodeStats s = stats();
  std::snprintf(
      line, sizeof(line),
      "ops: %llu allocs, %llu frees, %llu reads, %llu writes; "
      "%llu compactions (%llu blocks), %llu ghosts released\n",
      static_cast<unsigned long long>(s.rpc_allocs),
      static_cast<unsigned long long>(s.rpc_frees),
      static_cast<unsigned long long>(s.rpc_reads),
      static_cast<unsigned long long>(s.rpc_writes),
      static_cast<unsigned long long>(s.compaction_runs),
      static_cast<unsigned long long>(s.blocks_compacted),
      static_cast<unsigned long long>(s.ghosts_released));
  out += line;
  return out;
}

uint64_t CormNode::ActiveMemoryBytes() const {
  // The always-mapped index table is fixed infrastructure, not object
  // memory: exclude it so placement and the Fig. 17 memory curves keep
  // measuring data, and an empty node still reports zero.
  return (phys_->live_frames() - index_table_pages_) * sim::kFrameSize;
}

uint64_t CormNode::VirtualMemoryBytes() const {
  return space_->reserved_pages() * sim::kVPageSize;
}

// ---------------------------------------------------------------------------
// Bulk loaders.
// ---------------------------------------------------------------------------

Result<std::vector<GlobalAddr>> CormNode::BulkAlloc(size_t count,
                                                    size_t payload_size) {
  const int n = config_.num_workers;
  std::vector<std::unique_ptr<BulkRequest>> requests;
  size_t assigned = 0;
  for (int w = 0; w < n; ++w) {
    const size_t share = count / n + (static_cast<size_t>(w) < count % n);
    if (share == 0) continue;
    auto req = std::make_unique<BulkRequest>();
    req->is_alloc = true;
    req->count = share;
    req->payload_size = static_cast<uint32_t>(payload_size);
    req->index_base = assigned;
    assigned += share;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kBulk;
    msg.bulk = req.get();
    workers_[w]->Send(msg);
    requests.push_back(std::move(req));
  }
  std::vector<GlobalAddr> out;
  out.reserve(count);
  for (auto& req : requests) {
    // Same-process worker reply; the worker cannot die independently.
    while (!req->done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
      CpuRelax();
    }
    CORM_RETURN_NOT_OK(req->status);
    out.insert(out.end(), req->out_addrs.begin(), req->out_addrs.end());
  }
  return out;
}

Status CormNode::BulkFree(const std::vector<GlobalAddr>& addrs) {
  std::vector<GlobalAddr> remaining = addrs;
  for (int round = 0; round < 16 && !remaining.empty(); ++round) {
    // Group by current owner.
    std::vector<std::vector<GlobalAddr>> per_worker(config_.num_workers);
    std::vector<GlobalAddr> deferred;
    for (const GlobalAddr& addr : remaining) {
      const auto entry = LookupBlock(BlockBaseOf(addr.vaddr, block_bytes()));
      if (entry.block == nullptr) {
        return Status::StalePointer("BulkFree: unknown block");
      }
      const int owner = entry.block->owner_thread();
      if (owner < 0) {
        deferred.push_back(addr);  // ownership in transit; retry next round
      } else {
        per_worker[owner].push_back(addr);
      }
    }
    std::vector<std::unique_ptr<BulkRequest>> requests;
    for (int w = 0; w < config_.num_workers; ++w) {
      if (per_worker[w].empty()) continue;
      auto req = std::make_unique<BulkRequest>();
      req->is_alloc = false;
      req->free_addrs = std::move(per_worker[w]);
      WorkerMsg msg;
      msg.kind = WorkerMsg::Kind::kBulk;
      msg.bulk = req.get();
      workers_[w]->Send(msg);
      requests.push_back(std::move(req));
    }
    remaining = std::move(deferred);
    for (auto& req : requests) {
      // Same-process worker reply; the worker cannot die independently.
      while (!req->done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
        CpuRelax();
      }
      CORM_RETURN_NOT_OK(req->status);
      remaining.insert(remaining.end(), req->free_addrs.begin(),
                       req->free_addrs.end());
    }
  }
  return remaining.empty()
             ? Status::OK()
             : Status::Internal("BulkFree: ownership kept changing");
}

}  // namespace corm::core
