#include "dead_module.h"

int DeadModuleAnswer() { return 42; }
