#!/usr/bin/env bash
# Link audit: every ccap:: function in the libraries, out-of-line or
# header-inline, must be linked by some program, or be named in
# scripts/api_allowlist.txt with the reason a test needs it.
#
#   ./scripts/api_audit.sh
#
# The programs are the consumers of the library: tools/ccap, every
# bench/ harness, every examples/ program and perfbench's ccap_bench. Tests
# are not consumers: a function that only its own unit test calls is dead
# surface.
#
# Method: build the tree into build/audit (and perfbench, out of tree, into
# build/audit/perfbench) as a Debug build at -O0 with -ffunction-sections
# and -fkeep-inline-functions, and link with --gc-sections, so each binary
# keeps exactly the functions reachable from its main. -O0 keeps a function
# whose only callers sit in its own TU from being inlined away and reported
# as dead by mistake; src/info's per-file -O3 on batch_lattice.cpp applies
# outside Debug only, so that TU is audited at -O0 too (the SIMD kernel TUs
# keep their -O3; they are reached through a dispatch table).
# -fkeep-inline-functions makes every TU that includes a header emit that
# header's inline functions, so a header-inline function is in the archive
# as a weak (W) symbol whether or not anything calls it. -w silences the
# warnings this turns up in system headers (the intrinsics headers trip
# -Werror=uninitialized once their inline bodies are emitted).
#
# Take the T/W symbols of libccap_*.a whose name starts with `ccap::`
# (nm -C), drop weak constructors, destructors and assignment operators
# (mostly implicit special members, which no one writes a caller for;
# out-of-line T ones are still audited), subtract every symbol defined in a
# consumer binary, and compare the rest with the allow-list.
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
# Known limits: a template whose instances no library TU emits is not in
# the archive at all, and a demangled template instance whose name starts
# with its return type does not start with `ccap::` and is skipped. Types
# are not audited, only functions.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm

audit=build/audit
allow=scripts/api_allowlist.txt
jobs="$(nproc)"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fkeep-inline-functions -w"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S . -B "$audit" -DCCAP_BUILD_TESTS=OFF "${flags[@]}" >/dev/null
cmake --build "$audit" -j"$jobs" >/dev/null
cmake -S perfbench -B "$audit/perfbench" "${flags[@]}" >/dev/null
cmake --build "$audit/perfbench" -j"$jobs" >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Library symbols: globally defined text (T) or weak (W) whose outermost
# scope is ccap::, each line prefixed with its nm type. A weak symbol whose
# last name component repeats the one before it (a constructor), starts
# with `~` (a destructor) or is operator= is a special member and skipped.
mapfile -t libs < <(find "$audit/src" -name 'libccap_*.a' | sort)
(( ${#libs[@]} > 0 )) || { echo "api_audit: no libccap_*.a under $audit/src" >&2; exit 1; }
special='^W (.*::)?([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::(\2|~\2|operator=)(\[abi:[a-z0-9]+\])?\('
nm -C --defined-only "${libs[@]}" 2>/dev/null \
    | awk '$2 == "T" || $2 == "W" { t = $2; $1 = ""; $2 = ""; sub(/^  /, ""); print t, $0 }' \
    | grep -E '^[TW] ccap::' | grep -Ev "$special" | sort -u > "$tmp/typed"
sed 's/^[TW] //' "$tmp/typed" | sort -u > "$tmp/lib"

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
    inline="$(sed -n 's/^W //p' "$tmp/typed" | sort -u | wc -l)"
    outline="$(sed -n 's/^T //p' "$tmp/typed" | sort -u | wc -l)"
    echo "api_audit: OK ($(wc -l < "$tmp/lib") library functions: $inline inline, $outline out-of-line; $(wc -l < "$tmp/dead") allow-listed, ${#bins[@]} programs)"
fi
exit "$status"
