#!/bin/sh
# Fused multiply-add check: cross-compile every package of the module for
# arm64 (its test binary, or the command itself for a main package without
# tests) and fail if the compiler fused a multiply and an add or subtract
# (FMADD, FMSUB, FNMADD, FNMSUB) at a line of the module's own non-test
# sources. The Go spec lets a compiler fuse x*y + z unless an explicit
# conversion separates the product, float64(x*y) + z; amd64 and 386 never
# fuse, arm64 does, so an unconverted product would make simulated results
# depend on GOARCH. Test files are exempt: they compute expectations, not
# results, and so is a function defined in one. static_test.go holds the same
# rule at the source level.
#
# bench/ is exempt for now: the benchmark harness's own statistics and pass
# counts (bench/stats.go, bench/workload.go) fuse, but they summarize
# wall-clock runs and feed no simulated result, and bench/ changes only
# with the benchmark itself (ROADMAP item 7 mends them).
#
#   sh scripts/fma_check.sh        (make fma; about two minutes on two cores)
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
cd "$root"

go list -f '{{.ImportPath}} {{.Name}} {{len .TestGoFiles}}{{len .XTestGoFiles}}' ./... |
while read -r pkg name tests; do
    out="$bin/$(echo "$pkg" | tr / _)"
    if [ "$tests" != "00" ]; then
        GOARCH=arm64 go test -c -o "$out" "$pkg"
    elif [ "$name" = main ]; then
        GOARCH=arm64 go build -o "$out" "$pkg"
    fi
done

hits="$bin/hits.txt"
: >"$hits"
for b in "$bin"/*; do
    [ "$b" = "$hits" ] && continue
    # objdump names each instruction's line by base name only; addr2line
    # gives the full path, inlined code included. A function defined in a
    # test file is test code, whatever it inlined: a test's own product
    # passed to a non-test function can fuse there.
    go tool objdump "$b" |
        awk '/^TEXT / { test = ($3 ~ /_test\.go$/) } !test && $4 ~ /^F(N)?M(ADD|SUB)/ { print $2 }' |
        go tool addr2line "$b" |
        awk -v root="$root/" 'NR % 2 == 0 && index($0, root) == 1 && $0 !~ /_test\.go:/ { print substr($0, length(root) + 1) }' |
        sed '/^bench\//d' >>"$hits"
done

if [ -s "$hits" ]; then
    echo "fused multiply-add at (write the product as float64(x*y)):"
    sort "$hits" | uniq -c
    exit 1
fi
echo "fma: no fused multiply-add in the module's non-test sources"
