#!/usr/bin/env bash
# bench.sh — run the suite's headline hot-path benchmarks and record the
# results as BENCH_<sha>.json (one entry per benchmark: iterations, ns/op,
# and every other metric the benchmark reports: B/op and allocs/op, since
# the benchmarks run with -benchmem, plus custom ones such as crossover
# ratios or the repeated-sweep pair's cache-hit-rate).
#
# The JSON file is the comparable artifact for before/after performance
# work: run it on two commits and diff the ns_per_op fields. CI uploads it
# as a build artifact on every push.
#
# After writing the file, the script compares it against the most
# recently committed BENCH_*.json. Each side is reduced to its
# per-benchmark median ns/op (a file holds COUNT samples per benchmark),
# and one delta row per benchmark is printed with each side's
# (max-min)/median spread beside it, followed by the median B/op delta
# (n/a when a file predates -benchmem); benchmarks present in only one
# file are skipped. B/op is informational: only ns/op gates. These rows never gate: a committed baseline was recorded
# on another day under another load, so it measures load as much as code.
#
# GATE=1 measures the parent commit in the same session instead: HEAD^
# is checked out into a temporary git worktree, and the selected
# benchmarks run alternately on it and on HEAD, COUNT rounds each, so
# both sides see the same load. A median-to-median regression above 25%
# on any benchmark then fails the script — the threshold CI's bench-smoke
# enforces; it is deliberately loose so runner noise does not flap the
# gate. A single round can spread more than 25% on identical code, so
# GATE=1 needs COUNT >= 3.
#
# Environment overrides:
#   BENCH      regexp alternation of benchmark names (sans Benchmark prefix)
#   BENCHTIME  go test -benchtime value (default 2x)
#   COUNT      samples per benchmark, per side with GATE=1 (default 1)
#   OUTDIR     directory for the JSON file (default repo root)
#   GATE       1 = also measure HEAD^ and exit nonzero on a >25% median
#              ns/op regression against it
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-Fig2Disassembly|Fig7ALUFetch|Fig15DomainSize|Fig7RepeatedSweepCached|Fig7RepeatedSweepUncached|IncrementalSweepCold|IncrementalSweepReuse|SequentialBundle|CampaignBundle|HierInfer|HierLadderSweep|CompileChase}"
BENCHTIME="${BENCHTIME:-2x}"
COUNT="${COUNT:-1}"
OUTDIR="${OUTDIR:-.}"

mkdir -p "$OUTDIR"
sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo nogit)
out="$OUTDIR/BENCH_${sha}.json"

# runbench DIR COUNT runs the selected benchmarks in the checkout at DIR.
runbench() {
	(cd "$1" && go test -run '^$' -bench "^Benchmark(${BENCH})\$" -benchmem -benchtime "$BENCHTIME" -count "$2" .)
}

# tojson SHA turns go test -bench output on stdin into the JSON record.
tojson() {
	awk \
	-v sha="$1" \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v gover="$(go env GOVERSION)" '
BEGIN {
	printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", sha, date, gover
	n = 0
}
/^Benchmark/ {
	name = $1
	sub(/^Benchmark/, "", name)
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	iters = $2
	nsop = ""
	metrics = ""
	# Fields from $3 on are value/unit pairs: "123 ns/op 0.75 crossover".
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $i
		unit = $(i + 1)
		if (unit == "ns/op") {
			nsop = val
		} else {
			if (metrics != "") metrics = metrics ", "
			metrics = metrics sprintf("\"%s\": %s", unit, val)
		}
	}
	if (nsop == "") next
	if (n++) printf ","
	printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"metrics\": {%s}}", name, iters, nsop, metrics
}
END { printf "\n  ]\n}\n" }
'
}

# compare FILE LABEL GATED prints one median ns/op delta row per
# benchmark in both FILE and $out, with the median B/op delta beside it.
# With GATED=1 it flags and fails on any ns/op median that regressed by
# >25%; otherwise such a row is marked as reference only and nothing
# fails.
compare() {
	echo "median ns/op deltas vs $2 (spread = (max-min)/median), then B/op:" >&2
	local regressed=0
	while IFS=$'\t' read -r name base bspread cur cspread bbytes cbytes; do
		delta=$(awk -v b="$base" -v c="$cur" 'BEGIN { printf "%+.1f", 100 * (c - b) / b }')
		if [ "$bbytes" = null ] || [ "$cbytes" = null ]; then
			mem="B/op n/a"
		else
			mem=$(awk -v b="$bbytes" -v c="$cbytes" 'BEGIN { printf "%.0f -> %.0f B/op (%+.1f%%)", b, c, b ? 100 * (c - b) / b : 0 }')
		fi
		printf '  %-28s %14.0f (spread %5.1f%%) -> %14.0f (spread %5.1f%%) ns/op  (%s%%)  %s\n' \
			"$name" "$base" "$bspread" "$cur" "$cspread" "$delta" "$mem" >&2
		if awk -v b="$base" -v c="$cur" 'BEGIN { exit !(c > 1.25 * b) }'; then
			if [ "$3" = 1 ]; then
				echo "  ^ REGRESSION: $name's median is more than 25% slower than the baseline's" >&2
				regressed=1
			else
				echo "  ^ reference only, not gated: a baseline from another session measures its load too" >&2
			fi
		fi
	done < <(jq -r --slurpfile base "$1" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def summary: group_by(.name) | map({key: .[0].name, value: (
			(map(.metrics["B/op"] // empty) | if length > 0 then median else null end) as $bop
			| map(.ns_per_op) | median as $m
			| {median: $m, spread: (100 * (max - min) / $m), bop: $bop})}) | from_entries;
		($base[0].benchmarks | summary) as $b
		| .benchmarks | summary | to_entries[] | select($b[.key]) as $c
		| [$c.key, $b[$c.key].median, $b[$c.key].spread, $c.value.median, $c.value.spread,
			($b[$c.key].bop | tostring), ($c.value.bop | tostring)] | @tsv' "$out")
	return "$regressed"
}

if [ "${GATE:-0}" = 1 ]; then
	if [ "$COUNT" -lt 3 ]; then
		echo "bench gate: GATE=1 needs COUNT >= 3 rounds per side (got $COUNT)" >&2
		exit 2
	fi
	basesha=$(git rev-parse --short=12 HEAD^)
	wt=$(mktemp -d)
	basefile=$(mktemp)
	trap 'git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"; git worktree prune; rm -f "$basefile"' EXIT
	git worktree add --detach "$wt" "$basesha" >/dev/null
	raw=""
	baseraw=""
	for ((r = 1; r <= COUNT; r++)); do
		echo "round $r/$COUNT: $basesha (HEAD^)" >&2
		b=$(runbench "$wt" 1)
		printf '%s\n' "$b" >&2
		baseraw+="$b"$'\n'
		echo "round $r/$COUNT: $sha (HEAD)" >&2
		h=$(runbench . 1)
		printf '%s\n' "$h" >&2
		raw+="$h"$'\n'
	done
	printf '%s' "$baseraw" | tojson "$basesha" >"$basefile"
else
	raw=$(runbench . "$COUNT")
	printf '%s\n' "$raw" >&2
fi

printf '%s\n' "$raw" | tojson "$sha" >"$out"
echo "wrote $out" >&2

# ---- baseline comparison ----
# The baseline is the most recently committed BENCH_*.json (by commit
# time), i.e. the artifact the previous performance-relevant change
# recorded. Only benchmarks present in both files are compared.
baseline=""
newest=0
while read -r f; do
	[ "$f" = "$(basename "$out")" ] && continue
	ct=$(git log -1 --format=%ct -- "$f" 2>/dev/null || echo 0)
	[ -z "$ct" ] && ct=0
	if [ "$ct" -gt "$newest" ]; then
		newest=$ct
		baseline=$f
	fi
done < <(git ls-files 'BENCH_*.json' 2>/dev/null || true)

if ! command -v jq >/dev/null 2>&1; then
	echo "jq not found; skipping comparisons" >&2
	exit 0
fi
if [ -z "$baseline" ]; then
	echo "no committed BENCH_*.json baseline; skipping comparison" >&2
else
	compare "$baseline" "$baseline (reference only, never gated)" 0
fi
if [ "${GATE:-0}" = 1 ] && ! compare "$basefile" "HEAD^ $basesha, same session" 1; then
	echo "bench gate: >25% regression against HEAD^ $basesha" >&2
	exit 1
fi
