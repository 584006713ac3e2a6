// Mini bench for the --audit fixture tree: including the src/ headers
// keeps the dead-module contract satisfied, and it sets every CormConfig
// field.
#include "corm_node.h"
#include "fault_injector.h"

CormConfig BenchConfig() {
  CormConfig config{.nic_msg_rate = 0};
  config.num_workers = 2;
  config.phase_hook = [](int) {};
  return config;
}
