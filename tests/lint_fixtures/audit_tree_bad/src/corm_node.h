// Mini node counter list for the failing --audit fixture tree: rpc_writes
// is missing from the schema, which lists total_ops instead. CormConfig's
// unset_knob is only compared, never assigned.
#pragma once

#define CORM_NODE_COUNTERS(X)                                                \
  X(rpc_reads) /* read RPCs served */                                        \
  X(rpc_writes)

struct CormConfig {
  int num_workers = 8;
  int unset_knob = 0;
};
