// Ablations of CoRM's design choices (beyond the paper's figures):
//
//  A. Object-ID width: memory reclaimed and pointer-indirection rate vs
//     id_bits on one fixed fragmented workload (the §3.4 trade-off,
//     measured on the *runtime* system rather than the trace simulator).
//  B. Offset preservation: how many pointers stay direct after compaction
//     as a function of block occupancy (the §3.1.2 "prefer same offset"
//     choice is what keeps most pointers direct).
//  C. ScanRead vs RPC-read correction vs block size (the §3.2.2 trade-off:
//     scanning moves the whole block over the network; messaging costs
//     server CPU — the crossover moves with block size).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"

using namespace corm;
using namespace corm::bench;
using core::Context;
using core::CormNode;
using core::GlobalAddr;

namespace {

struct FragmentedNode {
  std::unique_ptr<CormNode> node;
  std::vector<GlobalAddr> survivors;
};

FragmentedNode MakeFragmented(int id_bits, size_t count, uint32_t payload,
                              double free_rate, size_t block_pages = 1) {
  core::CormConfig config;
  config.num_workers = 2;
  config.object_id_bits = id_bits;
  config.block_pages = block_pages;
  FragmentedNode out;
  out.node = std::make_unique<CormNode>(config);
  auto addrs = out.node->BulkAlloc(count, payload);
  CORM_CHECK(addrs.ok());
  Rng rng(1234);
  std::vector<GlobalAddr> doomed;
  for (auto& addr : *addrs) {
    (rng.Chance(free_rate) ? doomed : out.survivors).push_back(addr);
  }
  CORM_CHECK(out.node->BulkFree(doomed).ok());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);
  const size_t count = FlagU64(argc, argv, "count", 200'000);

  PrintTitle("Ablation A: object-ID width (56 B payload, 50% freed)");
  PrintRow({"id_bits", "blocks_freed", "reclaimed", "relocated%", "note"},
           15);
  for (int bits : {0, 4, 6, 8, 10, 12, 16}) {
    auto setup = MakeFragmented(bits, count, 56, 0.5);
    const uint64_t before = setup.node->ActiveMemoryBytes();
    auto report = setup.node->Compact(*setup.node->ClassForPayload(56));
    if (!report.ok()) {
      PrintRow({std::to_string(bits), "-", "-", "-",
                "class not addressable (compaction refused)"},
               15);
      continue;
    }
    const uint64_t after = setup.node->ActiveMemoryBytes();
    const double relocated =
        report->objects_moved
            ? 100.0 * report->objects_relocated / report->objects_moved
            : 0.0;
    PrintRow({std::to_string(bits), std::to_string(report->blocks_freed),
              Fmt("%.1f%%", 100.0 * (before - after) / before),
              Fmt("%.1f", relocated), ""},
             15);
  }
  std::printf("expectation: wider IDs -> more mergeable pairs -> more blocks\n"
              "freed; 4 KiB blocks of 64 B objects need >= 6 bits (64 slots).\n");

  PrintTitle("Ablation B: offset preservation vs occupancy (CoRM-16)");
  PrintRow({"free_rate", "merges", "offset_kept%", "direct_reads_ok%"});
  for (double free_rate : {0.9, 0.75, 0.5, 0.3}) {
    auto setup = MakeFragmented(16, count / 2, 56, free_rate);
    auto report = setup.node->Compact(*setup.node->ClassForPayload(56));
    CORM_CHECK(report.ok());
    const double kept =
        report->objects_moved
            ? 100.0 *
                  (report->objects_moved - report->objects_relocated) /
                  report->objects_moved
            : 100.0;
    // Fraction of survivors still readable via plain DirectRead (direct).
    auto ctx = Context::Create(setup.node.get());
    std::vector<uint8_t> buf(56);
    size_t direct = 0, probed = 0;
    for (size_t i = 0; i < setup.survivors.size(); i += 5) {
      ++probed;
      direct += ctx->DirectRead(setup.survivors[i], buf.data(), 56).ok();
    }
    PrintRow({Fmt("%.2f", free_rate), std::to_string(report->blocks_freed),
              Fmt("%.1f", kept),
              Fmt("%.1f", probed ? 100.0 * direct / probed : 0)});
  }
  std::printf("expectation: lower occupancy -> fewer offset collisions ->\n"
              "more pointers stay direct after compaction (paper §3.1.2).\n");

  PrintTitle("Ablation C: failed-DirectRead recovery cost vs block size");
  PrintRow({"block", "ScanRead_us", "RpcRead_us", "cheaper"});
  for (size_t pages : {1, 4, 16, 64, 256}) {
    // Keep ~300 live objects per block regardless of block size: large
    // blocks only merge under CoRM-16 at low occupancy (§3.4 — with s
    // comparable to the 2^16 ID space, collision probability explodes).
    const size_t per_block = pages * 4096 / 64;
    const double free_rate =
        per_block > 600 ? 1.0 - 300.0 / static_cast<double>(per_block) : 0.5;
    auto setup = MakeFragmented(16, 8 * per_block, 56, free_rate, pages);
    auto report = setup.node->Compact(*setup.node->ClassForPayload(56));
    CORM_CHECK(report.ok());
    auto ctx = Context::Create(setup.node.get());
    std::vector<uint8_t> buf(56);
    // Find indirect pointers.
    std::vector<GlobalAddr> indirect;
    for (const auto& addr : setup.survivors) {
      if (ctx->DirectRead(addr, buf.data(), 56).IsObjectMoved()) {
        indirect.push_back(addr);
        if (indirect.size() >= 500) break;
      }
    }
    if (indirect.empty()) {
      PrintRow({FormatBytes(pages * 4096), "-", "-", "no indirect pointers"});
      continue;
    }
    Histogram scan_h, rpc_h;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      GlobalAddr a = indirect[rng.Uniform(indirect.size())];
      const uint64_t t0 = ctx->stats().modeled_ns_total;
      CORM_CHECK(ctx->ReadWithRecovery(&a, buf.data(), 56,
                                       Context::MovedFallback::kScanRead)
                     .ok());
      scan_h.Record(ctx->stats().modeled_ns_total - t0);
      GlobalAddr b = indirect[rng.Uniform(indirect.size())];
      const uint64_t t1 = ctx->stats().modeled_ns_total;
      CORM_CHECK(ctx->ReadWithRecovery(&b, buf.data(), 56,
                                       Context::MovedFallback::kRpcRead)
                     .ok());
      rpc_h.Record(ctx->stats().modeled_ns_total - t1);
    }
    PrintRow({FormatBytes(pages * 4096), Us(scan_h.Median()),
              Us(rpc_h.Median()),
              scan_h.Median() < rpc_h.Median() ? "ScanRead" : "RpcRead"});
  }
  std::printf("expectation: ScanRead wins for small blocks; for large blocks\n"
              "moving the whole block over the wire loses to one RPC\n"
              "(paper §4.1: 'for large block sizes the first approach can be\n"
              "more efficient').\n");
  return 0;
}
