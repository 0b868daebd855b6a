#!/usr/bin/env bash
# Usage: scripts/layout.sh <rev>
#
# Compares the code layout of the benchmark binary built at git revision
# <rev> with the one built from the working tree. The gauge loop
# (main.hostSpeed.func1) and the AVX-512 kernels read up to 1.2x faster or
# slower depending on their address mod 64, so a change that moves them
# moves every gauged metric without changing the work. The script prints
# each of those TEXT symbols' address mod 64 on both sides and exits 1 if
# any symbol present on both sides moved.
#
# Both binaries are built as bench/run.sh builds its own, with everything
# they write (build cache, the <rev> tree, the binaries) under
# .bench_build/ in the checkout.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 <rev>" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
out="$build/layout"
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
mkdir -p "$build/tmp" "$out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local

rm -rf "$out/tree"
mkdir -p "$out/tree"
git -C "$root" archive "$rev" | tar -x -C "$out/tree"
(cd "$out/tree/bench" && go build -o "$out/base.bin" .)
(cd "$root/bench" && go build -o "$out/work.bin" .)

# symbols prints "name address address-mod-64" for each symbol the
# comparison covers.
symbols() {
	go tool nm -n "$1" | awk '$2 ~ /^[Tt]$/ && ($3 == "main.hostSpeed.func1" || $3 ~ /AVX512(\.abi0)?$/) { print $3, $1 }' |
		sort | while read -r name addr; do echo "$name 0x$addr $((16#$addr % 64))"; done
}
symbols "$out/base.bin" >"$out/base.syms"
symbols "$out/work.bin" >"$out/work.syms"

echo "symbol ${rev:0:12} worktree"
join -a 1 -a 2 -e - -o 0,1.2,1.3,2.2,2.3 "$out/base.syms" "$out/work.syms" | awk '
	{
		mark = ""
		if ($3 == "-" || $5 == "-") mark = "  (one side only)"
		else if ($3 != $5) { mark = "  MOVED"; moved++ }
		printf "%s %s:%s %s:%s%s\n", $1, $2, $3, $4, $5, mark
	}
	END {
		if (moved) { printf "%d symbol(s) moved mod 64\n", moved; exit 1 }
		print "no symbol moved mod 64"
	}'
