// Full configuration matrix: compaction correctness must hold for every
// combination of remap strategy (§3.5), RPC correction strategy (§3.2.1),
// ID width and block size. One TEST_P sweep runs the same
// load→fragment→compact→verify cycle through all of them.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"

namespace corm::core {
namespace {

using Params = std::tuple<sim::RemapStrategy, RpcCorrectionStrategy,
                          int /*id_bits*/, size_t /*block_pages*/>;

class ConfigMatrix : public ::testing::TestWithParam<Params> {};

TEST_P(ConfigMatrix, CompactionCycleIsCorrect) {
  const auto [remap, correction, id_bits, block_pages] = GetParam();
  CormConfig config;
  config.num_workers = 2;
  config.remap_strategy = remap;
  config.rpc_correction = correction;
  config.object_id_bits = id_bits;
  config.block_pages = block_pages;
  CormNode node(config);
  auto ctx = Context::Create(&node);

  // Pick a payload that yields several objects per block in every config.
  const uint32_t payload = 120;
  const size_t count = 64 * block_pages * 8;  // ~8 blocks' worth
  std::vector<GlobalAddr> addrs;
  std::vector<uint8_t> buf(payload);
  for (size_t i = 0; i < count; ++i) {
    auto addr = ctx->Alloc(payload);
    ASSERT_TRUE(addr.ok());
    PatternFill(i, buf.data(), payload);
    ASSERT_TRUE(ctx->Write(&*addr, buf.data(), payload).ok());
    addrs.push_back(*addr);
  }

  Rng rng(static_cast<uint64_t>(id_bits) * 131 + block_pages);
  std::vector<GlobalAddr> survivors;
  std::vector<size_t> idx;
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (rng.Chance(0.55)) {
      ASSERT_TRUE(ctx->Free(&addrs[i]).ok());
    } else {
      survivors.push_back(addrs[i]);
      idx.push_back(i);
    }
  }

  const uint64_t before = node.ActiveMemoryBytes();
  auto report = node.Compact(*node.ClassForPayload(payload));
  if (!report.ok()) {
    // The only legitimate refusal: ID space cannot address the class.
    ASSERT_EQ(report.status().code(), StatusCode::kNotSupported);
    const uint64_t slots =
        node.block_bytes() / node.classes().ClassSize(
                                 *node.ClassForPayload(payload));
    ASSERT_GT(slots, 1ULL << id_bits);
    return;
  }
  if (report->blocks_freed > 0) {
    EXPECT_LT(node.ActiveMemoryBytes(), before);
  }

  // Every survivor intact through both read paths.
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr one_sided = survivors[i];
    ASSERT_TRUE(
        ctx->ReadWithRecovery(&one_sided, buf.data(), payload).ok())
        << "config: remap=" << static_cast<int>(remap)
        << " corr=" << static_cast<int>(correction)
        << " bits=" << id_bits
        << " pages=" << block_pages << " obj=" << i;
    EXPECT_TRUE(PatternCheck(idx[i], buf.data(), payload));
    GlobalAddr rpc = survivors[i];
    ASSERT_TRUE(ctx->Read(&rpc, buf.data(), payload).ok());
    EXPECT_TRUE(PatternCheck(idx[i], buf.data(), payload));
  }
  // And frees through old pointers drain everything.
  for (GlobalAddr& addr : survivors) {
    ASSERT_TRUE(ctx->Free(&addr).ok());
  }
  auto frag = node.Fragmentation();
  EXPECT_EQ(frag[*node.ClassForPayload(payload)].granted_bytes, 0u);
  EXPECT_EQ(node.vaddr_ghosts_for_testing(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(sim::RemapStrategy::kReregMr,
                          sim::RemapStrategy::kOdp,
                          sim::RemapStrategy::kOdpPrefetch),
        ::testing::Values(RpcCorrectionStrategy::kThreadMessaging,
                          RpcCorrectionStrategy::kBlockScan),
        ::testing::Values(6, 16),
        ::testing::Values<size_t>(1, 4)));

}  // namespace
}  // namespace corm::core
