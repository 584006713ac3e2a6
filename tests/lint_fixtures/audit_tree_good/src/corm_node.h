// Mini node counter list for the --audit fixture tree.
#pragma once

#define CORM_NODE_COUNTERS(X)                                                \
  X(rpc_reads) /* read RPCs served */                                        \
  /* A group comment between entries. */                                     \
  X(rpc_writes)
