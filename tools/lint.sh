#!/usr/bin/env bash
# Project lint gate. Exits 0 when clean, 1 on any violation, 2 when no
# corm-tidy binary is found.
#
# The semantic rules live in corm-tidy (tools/corm_tidy, DESIGN.md §10),
# which this script requires and runs over src/:
#   1. No raw `new`/`delete` in src/ — ownership is RAII-only
#      (corm-raw-new).
#   5. No unbounded spin-waits on atomics outside src/common/ and src/rdma/
#      (corm-unbounded-wait).
#   6. Every analysis escape carries a written rationale
#      (corm-escape-rationale).
#   7. No heap allocation in `// corm-hotpath` files (corm-hotpath-alloc).
#   8. The strict-wait files (compaction_engine.cc, the replicated-log
#      ship path and the index bucket lock in index_table.cc) carry no
#      unbounded waits and honor no NOLINT (corm-unbounded-wait, strict
#      mode).
# `corm-tidy --list-checks` prints the full catalog.
#
# The rules below are plain greps that corm-tidy does not implement:
#   2. No std::mutex in src/alloc/ or src/core/ — the data plane uses the
#      ranked SpinLock / RankedSharedMutex primitives (common/lock_rank.h)
#      so the debug deadlock checker sees every acquisition. The simulated
#      substrate (src/sim/, src/rdma/) models kernel/NIC state and may keep
#      std::mutex.
#   3. Status / Result<T> must stay [[nodiscard]] (call-site enforcement is
#      then free via -Wall).
#   4. src/ must not include tests/ headers (no inverted layering).
#
# Additionally runs clang-tidy over src/ when a binary and a compilation
# database are available; skipped (with a note) otherwise, since the CI
# corm-tidy job provides clang-tidy.
set -u
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
  printf 'usage: tools/lint.sh\n' >&2
  exit 2
fi

fail=0
note() { printf '%s\n' "$*"; }
violation() { printf 'lint: %s\n' "$*" >&2; fail=1; }

# Locate a built corm-tidy: explicit override first, then build trees.
corm_tidy="${CORM_TIDY_BIN:-}"
if [ -z "$corm_tidy" ]; then
  for cand in build build-clang build-asan build-tsan build-rel; do
    if [ -x "$cand/tools/corm_tidy/corm-tidy" ]; then
      corm_tidy="$cand/tools/corm_tidy/corm-tidy"
      break
    fi
  done
fi
if [ -z "$corm_tidy" ] || [ ! -x "$corm_tidy" ]; then
  printf 'lint: no corm-tidy binary%s; build it first:\n' \
      "${corm_tidy:+ at $corm_tidy}" >&2
  printf '  cmake -B build -S . && cmake --build build --target corm-tidy\n' >&2
  printf 'or point CORM_TIDY_BIN at one.\n' >&2
  exit 2
fi

# A corm-tidy binary older than any of its sources silently lints with
# yesterday's rules — the worst failure mode for a gate. Fail fast with the
# rebuild recipe instead of delegating to a stale analysis.
stale=$(find tools/corm_tidy -name '*.h' -o -name '*.cc' -o -name 'CMakeLists.txt' \
            | xargs -I{} find {} -newer "$corm_tidy" 2>/dev/null | head -1)
if [ -n "$stale" ]; then
  violation "corm-tidy binary $corm_tidy is older than $stale; rebuild it (cmake --build ${corm_tidy%%/tools/*} --target corm-tidy) or set CORM_TIDY_BIN"
  note 'lint: FAILED'
  exit 1
fi

# --- Rules 1, 5, 6, 7, 8 (corm-tidy). --------------------------------------
note "lint: running corm-tidy ($corm_tidy)"
if ! "$corm_tidy" --src src; then
  violation 'corm-tidy reported diagnostics (see above)'
fi

# --- Rule 2: std::mutex in the data plane. ---------------------------------
for f in $(find src/alloc src/core -name '*.h' -o -name '*.cc' | sort); do
  matches=$(grep -n 'std::mutex\|std::shared_mutex\|std::recursive_mutex' "$f" \
      | grep -v '^\s*[0-9]*:\s*//' || true)
  [ -z "$matches" ] && continue
  while IFS= read -r line; do
    violation "$f:$line — std::mutex in the data plane; use the ranked locks from common/lock_rank.h (rule 2)"
  done <<EOF_MATCHES
$matches
EOF_MATCHES
done

# --- Rule 3: Status / Result stay [[nodiscard]]. ---------------------------
grep -q 'class \[\[nodiscard\]\] Status' src/common/status.h ||
  violation 'src/common/status.h — Status lost its [[nodiscard]] (rule 3)'
grep -q 'class \[\[nodiscard\]\] Result' src/common/result.h ||
  violation 'src/common/result.h — Result lost its [[nodiscard]] (rule 3)'

# --- Rule 4: src/ must not include tests/. ---------------------------------
for f in $(find src -name '*.h' -o -name '*.cc' | sort); do
  matches=$(grep -n '#include ["<]tests/' "$f" || true)
  [ -z "$matches" ] && continue
  while IFS= read -r line; do
    violation "$f:$line — src/ includes a tests/ header (rule 4)"
  done <<EOF_MATCHES
$matches
EOF_MATCHES
done

# --- clang-tidy (optional locally; required in CI). ------------------------
tidy_bin=$(command -v clang-tidy || true)
if [ -n "$tidy_bin" ]; then
  db=""
  for cand in build build-clang build-asan build-tsan; do
    [ -f "$cand/compile_commands.json" ] && db=$cand && break
  done
  if [ -n "$db" ]; then
    note "lint: running clang-tidy with compile database $db/"
    cc_files=$(find src -name '*.cc' | sort)
    if ! "$tidy_bin" -p "$db" --quiet $cc_files; then
      violation 'clang-tidy reported errors'
    fi
  else
    note 'lint: clang-tidy found but no compile_commands.json (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON); skipping tidy pass'
  fi
else
  note 'lint: clang-tidy not installed; skipping tidy pass (CI runs it)'
fi

if [ "$fail" -ne 0 ]; then
  note 'lint: FAILED'
  exit 1
fi
note 'lint: OK'
