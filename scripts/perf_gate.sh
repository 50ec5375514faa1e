#!/bin/sh
# perf_gate.sh BASE_REF — the repository's one performance gate.
#
# Builds ./bench at BASE_REF and at the working tree, runs every workload
# BENCHMARK.json declares in alternating base/head pairs, and compares the
# per-side medians of every end-to-end metric. Metric names, directions and
# bounds are read from BENCHMARK.json; nothing is repeated here.
#
# Verdict per (workload, metric): "ok" when head's median is not worse than
# base's by more than the bound. Otherwise FAIL when every head run is worse
# than every base run, else UNRESOLVED: the excursion is inside the
# run-to-run spread, so it is printed and not fatal. A head run whose
# outputs failed their check is a FAIL, and so is a run, of either side,
# that leaves a bench process running (which is then killed). Exit 1 on any
# FAIL.
#
# LAYOUTS=k (default 1) builds each side k times: the default function
# layout and the linker's -randlayout=1..k-1, the same seeds on both sides.
# Each pair then runs every layout of both sides, interleaved, and the
# verdict works on per-layout medians: "ok" as above on the median of
# them; FAIL only when every head layout's median is worse than every base
# layout's; else "layout": the difference is inside what moving the same
# code around in the binary does. Each line lists the per-layout medians,
# base then head, layout 0 first.
#
# Beside the verdict, which it does not change, each line gives the paired
# view: the median of head minus base within each pair of runs (same pair,
# same layout), as a share of base's median too, and how many pairs head
# read lower and higher. Drift on a shared machine moves both runs of a pair
# alike, so a layout FAIL that most pairs contradict shows here.
#
# Everything lives under .perf_gate/ in the checkout; the per-run JSON
# lines (base.jsonl, head.jsonl) and verdicts.txt are left there.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 BASE_REF" >&2; exit 2; }
cd "$(dirname "$0")/.."
root=$(pwd)
out=.perf_gate
pairs=3
seconds=5
layouts=${LAYOUTS:-1}

rm -rf "$out"
mkdir -p "$out/base"
git archive "$1" | tar -x -C "$out/base"
trap 'rm -rf "$out/base" "$out"/bench_*' EXIT
l=0
while [ "$l" -lt "$layouts" ]; do
	flags=
	[ "$l" -eq 0 ] || flags=-ldflags=-randlayout=$l
	(cd "$out/base" && go build $flags -o "$root/$out/bench_base$l" ./bench)
	go build $flags -o "$out/bench_head$l" ./bench
	l=$((l + 1))
done

# run SIDE DIR WORKLOAD SEED LAYOUT appends the run's last (JSON) line. A
# failed output check exits non-zero with "correct": false on that line,
# which the compare step reports; a run that prints no JSON stops the script
# in jq. A bench process (the run or a set-up child) still alive once the
# run has returned is reported as a FAIL line and killed.
: >"$out/left.txt"
run() {
	(cd "$2" && "$root/$out/bench_$1$5" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 || true) |
		tail -n 1 | jq -c --arg w "$3" --argjson l "$5" --argjson p "$4" '. + {workload: $w, layout: $l, pair: $p}' >>"$out/$1.jsonl"
	pids=$(pgrep -f "$root/$out/bench_" || true)
	if [ -n "$pids" ]; then
		echo "FAIL $3 $1 left process(es) running:" $pids >>"$out/left.txt"
		kill -9 $pids 2>/dev/null || true
	fi
}
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	pair=1
	while [ "$pair" -le "$pairs" ]; do
		l=0
		while [ "$l" -lt "$layouts" ]; do
			if [ $(((pair + l) % 2)) -eq 1 ]; then
				run base "$out/base" "$w" "$pair" "$l"
				run head . "$w" "$pair" "$l"
			else
				run head . "$w" "$pair" "$l"
				run base "$out/base" "$w" "$pair" "$l"
			fi
			l=$((l + 1))
		done
		pair=$((pair + 1))
	done
done

# Compare: reads BENCHMARK.json and the two .jsonl files, nothing else.
# $worse is +1 when a greater value is worse, -1 when a smaller one is. With
# one layout a side's values are its runs; with more, its per-layout medians.
jq -n -r --slurpfile spec BENCHMARK.json --argjson layouts "$layouts" \
	--slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" '
	def median: sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2;
	def short: . * 1000 | round / 1000 + 0; # 3 decimals; "+ 0" prints -0 as 0
	def values($runs; $w; $m):
		[$runs[] | select(.workload == $w)]
		| if $layouts == 1 then map(.metrics[$m].value)
		  else group_by(.layout) | map(map(.metrics[$m].value) | median) end;
	def paired($w; $m):
		[$base[] | select(.workload == $w) | . as $b
		 | $head[] | select(.workload == $w and .pair == $b.pair and .layout == $b.layout)
		 | .metrics[$m].value - $b.metrics[$m].value];
	($head[] | select(.correct != true or .failed > 0)
	 | "FAIL \(.workload) outputs: correct=\(.correct), \(.failed) of \(.attempted) ops failed"),
	($spec[0] as $s | $s.workloads[].name as $w | $s.end_to_end[] as $m
	 | values($base; $w; $m.name) as $b
	 | values($head; $w; $m.name) as $h
	 | ($b | median) as $bm | ($h | median) as $hm
	 | (if $m.better == "lower" then 1 else -1 end) as $worse
	 | (if ($hm - $bm) * $worse <= $m.bound * ($bm | fabs) then "ok"
	    elif ($h | map(. * $worse) | min) > ($b | map(. * $worse) | max) then "FAIL"
	    elif $layouts == 1 then "UNRESOLVED"
	    else "layout" end) as $verdict
	 | (if $layouts == 1 then "runs" else "layout medians" end) as $what
	 | paired($w; $m.name) as $d
	 | "\($verdict) \($w) \($m.name): base \($bm | short) head \($hm | short) \($m.unit)"
	   + " (\(($hm - $bm) / $bm * 100 | short)%, bound \($m.bound * 100)%)"
	   + " base \($what) \($b | map(short)) head \($what) \($h | map(short))"
	   + "; pairs: median head-base \($d | median | short) \($m.unit)"
	   + " (\($d | median / $bm * 100 | short)%), head lower in \($d | map(select(. < 0)) | length)"
	   + " and higher in \($d | map(select(. > 0)) | length) of \($d | length)")
' >"$out/verdicts.txt"
cat "$out/left.txt" >>"$out/verdicts.txt"
cat "$out/verdicts.txt"
if grep -q '^FAIL' "$out/verdicts.txt"; then
	exit 1
fi
