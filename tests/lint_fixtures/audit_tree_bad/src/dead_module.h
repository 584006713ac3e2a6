// A module nothing uses: only its own .cc includes this header, so the
// dead-module contract must flag it.
#pragma once

int DeadModuleAnswer();
