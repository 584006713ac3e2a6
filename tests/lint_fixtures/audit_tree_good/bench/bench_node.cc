// Mini bench for the --audit fixture tree: including the src/ headers
// keeps the dead-module contract satisfied.
#include "corm_node.h"
#include "fault_injector.h"
