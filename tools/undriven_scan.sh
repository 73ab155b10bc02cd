#!/usr/bin/env bash
# List library functions that no shipped binary links, and diff the
# list against tools/undriven_allowlist.txt.
#
#   tools/undriven_scan.sh BUILD_DIR
#
# BUILD_DIR is configured (if it has no CMakeCache.txt yet) and built
# at -O0 with every function, inline ones included, in a section of
# its own, and linked with --gc-sections, so a function survives in a
# binary only if something in that binary reaches it. perfbench/ is
# built the same way under BUILD_DIR/perfbench. A function counts as
# driven when its demangled name is defined in the CLI, a bench_*
# harness, an example_* program or perfbench; the tests do not count.
# Virtual functions are always kept alive by their vtables, so the scan
# cannot see an undriven override.
#
# Every undriven califorms:: function must appear in the allowlist
# with the reason it stays (an open ROADMAP item or a test hook),
# and every allowlisted function must still be undriven. Exit 0 when
# the two lists agree, 1 when they differ, 2 on a usage error.

set -euo pipefail
export LC_ALL=C # one sort order for comm

if [ "$#" -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
build=$1
allowlist=$root/tools/undriven_allowlist.txt
flags="-O0 -DNDEBUG -ffunction-sections -fkeep-inline-functions"

configure() { # SOURCE_DIR BINARY_DIR
    if [ ! -f "$2/CMakeCache.txt" ]; then
        cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
            -DCMAKE_CXX_FLAGS="$flags" \
            -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
    fi
}

configure "$root" "$build"
cmake --build "$build" -j "$(nproc)" >/dev/null
configure "$root/perfbench" "$build/perfbench"
cmake --build "$build/perfbench" -j "$(nproc)" --target perfbench >/dev/null

# Demangled names of the califorms:: functions an object or binary
# defines. Dropped: standard-library templates instantiated over our
# types, constructors and destructors (most are compiler-generated, and
# a class's other members show when it is unused), and lambdas and
# unnamed types, which go with their enclosing function.
functions() {
    nm -C --defined-only "$@" |
        sed -n 's/^[0-9a-f]* [TtWw] //p' |
        grep -E '^[^(]*califorms::' |
        grep -Ev '^([^(<]*[ *&])?(std|__gnu_cxx)::' |
        grep -Ev '(^|::)([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::~?\2\(' |
        grep -Ev '\{lambda|\{unnamed' |
        sort -u
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

functions "$build/libcaliforms.a" > "$work/library"
binaries=("$build/califorms" "$build/perfbench/perfbench")
for bin in "$build"/bench_* "$build"/example_*; do
    [ -x "$bin" ] && [ -f "$bin" ] && binaries+=("$bin")
done
functions "${binaries[@]}" > "$work/driven"
comm -23 "$work/library" "$work/driven" > "$work/undriven"

# Allowlist lines are "SYMBOL  # REASON"; blank and '#' lines are notes.
grep -Ev '^[[:space:]]*(#|$)' "$allowlist" > "$work/entries" || true
if grep -Ev ' +# +(ROADMAP item [0-9]+|test hook): ' "$work/entries" \
        > "$work/noreason"; then
    echo "allowlist entries without a reason:"
    sed 's/^/  /' "$work/noreason"
    exit 1
fi
sed 's/ *# .*$//' "$work/entries" | sort > "$work/allowed"

comm -23 "$work/undriven" "$work/allowed" > "$work/new"
comm -13 "$work/undriven" "$work/allowed" > "$work/stale"
status=0
if [ -s "$work/new" ]; then
    echo "undriven and not allowlisted (delete it or allowlist its reason):"
    sed 's/^/  /' "$work/new"
    status=1
fi
if [ -s "$work/stale" ]; then
    echo "allowlisted but no longer undriven (drop the entry):"
    sed 's/^/  /' "$work/stale"
    status=1
fi
echo "$(wc -l < "$work/undriven") undriven functions in" \
     "${#binaries[@]} binaries; $(wc -l < "$work/allowed") allowlisted"
exit $status
