#!/usr/bin/env bash
# Link audit: every out-of-line ccap:: function in the libraries must be
# linked by some program, or be named in scripts/api_allowlist.txt with the
# reason a test needs it.
#
#   ./scripts/api_audit.sh
#
# The programs are the consumers of the library: tools/ccap, every
# bench/ harness, every examples/ program and perfbench's ccap_bench. Tests
# are not consumers: a function that only its own unit test calls is dead
# surface.
#
# Method: build the tree into build/audit (and perfbench, out of tree, into
# build/audit/perfbench) at -O0 with -ffunction-sections and link with
# --gc-sections, so each binary keeps exactly the functions reachable from
# its main. Take the T/W symbols of libccap_*.a whose name starts with
# `ccap::` (nm -C), subtract every symbol defined in a consumer binary, and
# compare the rest with the allow-list. -O0 matters: at -O2 a function whose
# only callers sit in its own TU can be inlined away and would be reported
# as dead by mistake.
#
# Fails when
#   - a caller-less symbol is not in the allow-list, or
#   - an allow-list entry names a symbol that no longer exists or that a
#     program now links (so the list cannot go stale).
#
# Allow-list format: one entry per line, `<demangled symbol>  # <reason>`,
# where the reason is `oracle: <test>`, `paper: <theorem>`, `test seam` or
# `fixture: <suites>`. Blank lines and lines starting with `#` are ignored.
#
# Known limits: header-only inline functions, templates and types are not
# covered. An inline function appears only when a library TU emits it, and
# a template instantiated in a header is not in the archive at all; a
# demangled template instance whose name starts with its return type does
# not start with `ccap::` and is skipped. The -O0 above does not reach
# src/info/src/batch_lattice.cpp: its per-file -O3 (src/info/CMakeLists.txt)
# comes after CMAKE_CXX_FLAGS on the command line, so that TU is audited at
# -O3 and a member whose only callers sit in it can be inlined away and
# reported as dead.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm

audit=build/audit
allow=scripts/api_allowlist.txt
jobs="$(nproc)"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S . -B "$audit" -DCCAP_BUILD_TESTS=OFF "${flags[@]}" >/dev/null
cmake --build "$audit" -j"$jobs" >/dev/null
cmake -S perfbench -B "$audit/perfbench" "${flags[@]}" >/dev/null
cmake --build "$audit/perfbench" -j"$jobs" >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Library symbols: globally defined text (T) or weak (W) whose outermost
# scope is ccap::.
mapfile -t libs < <(find "$audit/src" -name 'libccap_*.a' | sort)
(( ${#libs[@]} > 0 )) || { echo "api_audit: no libccap_*.a under $audit/src" >&2; exit 1; }
nm -C --defined-only "${libs[@]}" 2>/dev/null \
    | awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
    | grep '^ccap::' | sort -u > "$tmp/lib"

# Consumer symbols: everything any program defines after --gc-sections.
mapfile -t bins < <(
    find "$audit/tools" "$audit/bench" "$audit/examples" -maxdepth 1 -type f -perm -u+x
    echo "$audit/perfbench/ccap_bench")
for b in "${bins[@]}"; do
    [[ -x "$b" ]] || { echo "api_audit: missing consumer $b" >&2; exit 1; }
done
nm -C --defined-only "${bins[@]}" 2>/dev/null \
    | awk 'NF >= 3 { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
    | sort -u > "$tmp/used"

comm -23 "$tmp/lib" "$tmp/used" > "$tmp/dead"

# Allow-list entries: the symbol before the ` # ` reason, trailing blanks
# trimmed. An entry without a reason is an error.
status=0
: > "$tmp/allow"
while IFS= read -r line; do
    [[ -z "${line// }" || "$line" == \#* ]] && continue
    if [[ "$line" != *" # "* ]]; then
        echo "api_audit: allow-list entry without a reason: $line" >&2
        status=1
        continue
    fi
    sym="${line%% # *}"
    sym="${sym%"${sym##*[![:space:]]}"}"
    printf '%s\n' "$sym" >> "$tmp/allow"
done < "$allow"
sort -u -o "$tmp/allow" "$tmp/allow"

unlisted="$(comm -23 "$tmp/dead" "$tmp/allow")"
stale="$(comm -13 "$tmp/dead" "$tmp/allow")"

if [[ -n "$unlisted" ]]; then
    echo "api_audit: caller-less library functions (no program links them)." >&2
    echo "Delete each, or add it to $allow with its reason:" >&2
    sed 's/^/  /' <<< "$unlisted" >&2
    status=1
fi
if [[ -n "$stale" ]]; then
    echo "api_audit: stale allow-list entries (gone, or now linked by a program):" >&2
    sed 's/^/  /' <<< "$stale" >&2
    status=1
fi
if (( status == 0 )); then
    echo "api_audit: OK ($(wc -l < "$tmp/lib") library functions, $(wc -l < "$tmp/dead") allow-listed, ${#bins[@]} programs)"
fi
exit "$status"
