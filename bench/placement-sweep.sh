#!/usr/bin/env bash
# Times BenchmarkKNNExhaustive's L2 rows with sqSums, the L2 kernel of
# internal/sisap, at several offsets mod 64, to tell whether where the linker
# puts the kernel moves them. Run it from the root of the repository:
#
#	bash bench/placement-sweep.sh [rounds] [pad ...]
#
# Every padded build runs the same T stores (11 bytes of code each) in every
# row of sqSums' 6-d body, T being the largest pad given; pad p puts p of them
# ahead of the row's loads and arithmetic and the rest after its result, so
# the builds differ only in where the arithmetic sits. A pad is needed inside
# the loop because Go's assembler keeps jumps off 32-byte boundaries with
# NOPs, which fixes the start of a loop mod 32 whatever comes before it. Pad u
# is the untagged build, shown for reference and left out of max/min. For each
# pad (default u 0 1 2 3 4 0: a pad given twice is two builds of the same code,
# the sweep's own noise) it copies the working tree, writes the pad into the
# copy as internal/sisap/kernelpad.go (build tag kernelpad, in place of
# kernelpad_off.go's empty one), builds the root package's test binary and
# prints where the body's first load sits. It then runs the binaries in turn,
# the first one rotating, for the given rounds (default 5), one 300 ms
# repetition a row each, and prints per row each binary's median ratio to its
# round's median and, over the padded builds, the largest over the least.
set -euo pipefail
rounds=${1:-5}
shift || true
pads=("$@")
[ ${#pads[@]} -gt 0 ] || pads=(u 0 1 2 3 4 0)
most=0
for p in "${pads[@]}"; do [ "$p" = u ] || most=$((p > most ? p : most)); done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
line=$(grep -n 't0, t1, t2, t3, t4, t5 := ' internal/sisap/measure.go | cut -d: -f1)
stores() { for j in $(seq "$1" $(($2 - 1))); do printf '\t\tpadSink[%d] = %d\n' "$j" $((j + 1)); done; }
for i in "${!pads[@]}"; do
	p=${pads[$i]} src="$work/$i"
	mkdir "$src"
	tar --exclude=./.git --exclude=./.bench_build -cf - . | tar -xf - -C "$src"
	tags=()
	if [ "$p" != u ]; then
		tags=(-tags kernelpad)
		{
			printf '//go:build kernelpad\n\npackage sisap\n\n'
			printf 'var padSink [%d]uint64\n\nfunc kernelPad(after bool) {\n\tif !after {\n' $((most + 1))
			stores 0 "$p"
			printf '\t} else {\n'
			stores "$p" "$most"
			printf '\t}\n}\n'
		} >"$src/internal/sisap/kernelpad.go"
	fi
	(cd "$src" && go test "${tags[@]}" -c -o sweep.test .)
	at=$(go tool objdump -s 'sisap\.sqSums$' "$src/sweep.test" | awk -v l="measure.go:$line" '$1 == l && !at { at = $2 } END { print at }')
	echo "binary $i, pad $p: the 6-d body's first load at $at, $((at % 64)) mod 64" >&2
done
for r in $(seq 0 $((rounds - 1))); do
	for k in "${!pads[@]}"; do
		i=$(((k + r) % ${#pads[@]}))
		for set in '^(knn|range)$' '^(knnbatch|uniform)$/^(query|knn|range)$'; do
			(cd "$work/$i" && ./sweep.test -test.run '^$' -test.benchtime 300ms -test.count 1 \
				-test.bench "^BenchmarkKNNExhaustive\$/$set") |
				awk -v r="$r" -v b="$i:pad${pads[$i]}" '/ns\/op/ { sub(/-[0-9]+$/, "", $1); print r, b, $1, $3 }' >>"$work/runs"
		done
	done
	echo "round $((r + 1))/$rounds" >&2
done
# Each run is divided by the median of its round's runs of the row, so drift
# of the box between rounds cancels; a binary's figure is the median of those
# ratios over the rounds.
awk '
	function median(list,   n, x, i, j, t) {
		n = split(list, x, " ")
		for (i = 2; i <= n; i++) # insertion sort: POSIX awk has no asort
			for (j = i; j > 1 && x[j - 1] + 0 > x[j] + 0; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
		return n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2
	}
	{ ns[$1, $2, $3] = $4; round[$1, $3] = round[$1, $3] " " $4; rounds[$1]; bins[$2]; rows[$3] }
	END {
		for (row in rows) {
			lo = hi = 0; line = ""
			for (b in bins) {
				list = ""
				for (r in rounds) if ((r, b, row) in ns) list = list " " ns[r, b, row] / median(round[r, row])
				m = median(list)
				line = line sprintf("  %s %.3f", b, m)
				if (b ~ /padu$/) continue
				if (lo == 0 || m < lo) lo = m
				if (m > hi) hi = m
			}
			printf "%-40s max/min %.3f%s\n", row, hi / lo, line
		}
	}' "$work/runs" | sort
