// Mini example for the failing --audit fixture tree: it includes the live
// src/ headers, so dead_module.h is the only dead one, and it sets
// num_workers but only reads unset_knob.
#include "corm_node.h"
#include "fault_injector.h"

bool Example() {
  CormConfig config;
  config.num_workers = 2;
  return config.unset_knob == 0;
}
