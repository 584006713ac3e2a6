// Mini example for the --audit fixture tree: it includes the live src/
// headers, so dead_module.h is the only dead one.
#include "corm_node.h"
#include "fault_injector.h"
