// Mini node counter list and config for the --audit fixture tree.
#pragma once

#include <cstdint>
#include <functional>

#define CORM_NODE_COUNTERS(X)                                                \
  X(rpc_reads) /* read RPCs served */                                        \
  /* A group comment between entries. */                                     \
  X(rpc_writes)

struct CormConfig {
  int num_workers = 8;  // set by a member store in bench/
  // Set by a designated initializer; the digit separators and the
  // parenthesised template argument below are not declarations.
  uint64_t nic_msg_rate = 1'400'000;
  std::function<void(int)> phase_hook;
  // A member function and its body are not fields.
  int Workers() const { return num_workers; }
};
