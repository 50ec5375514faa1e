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
# outputs failed their check is a FAIL. Exit 1 on any FAIL.
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

rm -rf "$out"
git worktree prune
mkdir "$out"
git worktree add --detach "$out/base" "$1" >/dev/null
trap 'git worktree remove --force "$out/base"; rm -f "$out"/bench_*' EXIT
(cd "$out/base" && go build -o "$root/$out/bench_base" ./bench)
go build -o "$out/bench_head" ./bench

# run SIDE DIR WORKLOAD SEED appends the run's last (JSON) line. A failed
# output check exits non-zero with "correct": false on that line, which the
# compare step reports; a run that prints no JSON stops the script in jq.
run() {
	(cd "$2" && "$root/$out/bench_$1" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 || true) |
		tail -n 1 | jq -c --arg w "$3" '. + {workload: $w}' >>"$out/$1.jsonl"
}
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	pair=1
	while [ "$pair" -le "$pairs" ]; do
		if [ $((pair % 2)) -eq 1 ]; then
			run base "$out/base" "$w" "$pair"
			run head . "$w" "$pair"
		else
			run head . "$w" "$pair"
			run base "$out/base" "$w" "$pair"
		fi
		pair=$((pair + 1))
	done
done

# Compare: reads BENCHMARK.json and the two .jsonl files, nothing else.
# $worse is +1 when a greater value is worse, -1 when a smaller one is.
jq -n -r --slurpfile spec BENCHMARK.json \
	--slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" '
	def median: sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2;
	def short: . * 1000 | round / 1000 + 0; # 3 decimals; "+ 0" prints -0 as 0
	($head[] | select(.correct != true or .failed > 0)
	 | "FAIL \(.workload) outputs: correct=\(.correct), \(.failed) of \(.attempted) ops failed"),
	($spec[0] as $s | $s.workloads[].name as $w | $s.end_to_end[] as $m
	 | [$base[] | select(.workload == $w) | .metrics[$m.name].value] as $b
	 | [$head[] | select(.workload == $w) | .metrics[$m.name].value] as $h
	 | ($b | median) as $bm | ($h | median) as $hm
	 | (if $m.better == "lower" then 1 else -1 end) as $worse
	 | (if ($hm - $bm) * $worse <= $m.bound * ($bm | fabs) then "ok"
	    elif ($h | map(. * $worse) | min) > ($b | map(. * $worse) | max) then "FAIL"
	    else "UNRESOLVED" end) as $verdict
	 | "\($verdict) \($w) \($m.name): base \($bm | short) head \($hm | short) \($m.unit)"
	   + " (\(($hm - $bm) / $bm * 100 | short)%, bound \($m.bound * 100)%)"
	   + " base runs \($b | map(short)) head runs \($h | map(short))")
' >"$out/verdicts.txt"
cat "$out/verdicts.txt"
if grep -q '^FAIL' "$out/verdicts.txt"; then
	exit 1
fi
