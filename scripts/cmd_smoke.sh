#!/bin/sh
# Command smoke: build the five experiment commands, run cheap invocations
# of each and byte-compare their stdout with the goldens under
# cmd/testdata/ (one file per case, named after it). Every simulation is
# bit-deterministic, so any difference is a behaviour change. Each
# command's -help output is pinned the same way, so the flag names,
# defaults and help texts cannot drift either, and so are the stderr and
# exit status of inputs a command must reject with one line, not a panic.
#
#   sh scripts/cmd_smoke.sh            compare (exit 1 on any difference)
#   UPDATE=1 sh scripts/cmd_smoke.sh   rewrite the goldens
#
# The commands run with GOMAXPROCS=1 so the -parallel default printed by
# -help is the same on every machine (results do not depend on it).
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/cmd/testdata"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

for c in gmtrace sweep gmping timing barrierbench; do
    (cd "$root" && go build -o "$bin/$c" "./cmd/$c")
done

GOMAXPROCS=1
export GOMAXPROCS
failed=0

# check NAME CMD [ARGS...]: run ./CMD ARGS in the binary directory (so a
# usage line reads "Usage of ./CMD") and compare stdout, or for -help
# cases stderr, or for reject_* cases stderr and the exit status, with
# cmd/testdata/NAME.golden.
check() {
    name="$1"
    shift
    got="$bin/$name.out"
    case "$name" in
    help_*) (cd "$bin" && "./$@" 2>"$got" >/dev/null) ;;
    reject_*)
        status=0
        (cd "$bin" && "./$@" 2>"$got" >/dev/null) || status=$?
        echo "exit $status" >>"$got"
        ;;
    *) (cd "$bin" && "./$@" >"$got") ;;
    esac
    if [ "${UPDATE:-}" = 1 ]; then
        cp "$got" "$golden/$name.golden"
    elif ! cmp -s "$got" "$golden/$name.golden"; then
        echo "FAIL: $name ($*) differs from cmd/testdata/$name.golden:" >&2
        diff "$golden/$name.golden" "$got" >&2 || true
        failed=1
    fi
}

mkdir -p "$golden"

check gmtrace_default gmtrace
check gmtrace_gb_dim3 gmtrace -alg gb -dim 3
check gmtrace_host_gb gmtrace -level host -alg gb
check gmtrace_clos3_radix4 gmtrace -n 16 -topo clos3 -radix 4
check gmtrace_clos2_n8 gmtrace -n 8 -topo clos2
check gmtrace_single_radix8 gmtrace -radix 8

check sweep_default sweep
check sweep_nic72 sweep -nic 7.2 -sizes 2,4,8
check sweep_clos2_radix8 sweep -topo clos2 -radix 8 -sizes 16,32
check sweep_corrupt sweep -faultplan corrupt -sizes 8
check sweep_nodes16_dim4 sweep -nodes 16 -dim 4
check sweep_tuned sweep -tuned -sizes 64,256 -iters 20

check gmping_iters50 gmping -iters 50
check gmping_nic72 gmping -nic 7.2 -iters 20 -sizes 8,1024

check timing_default timing
check timing_nic72 timing -nic 7.2 -n 4

check barrierbench_default barrierbench
check barrierbench_crash16 barrierbench -fig crash -nodes 16
check barrierbench_partition8 barrierbench -fig crash -nodes 8 -faultplan partition -seed 7
check barrierbench_metrics barrierbench -metrics -nodes 4 -iters 10
check barrierbench_rel8 barrierbench -fig rel -nodes 8 -iters 20
check barrierbench_dumptopo barrierbench -dumptopo - -topo clos2 -nodes 32 -radix 8
check barrierbench_dumptopo_radix0 barrierbench -dumptopo - -topo clos3 -nodes 16 -radix 0
check barrierbench_mpibar barrierbench -fig mpibar -iters 20
check barrierbench_grain barrierbench -fig grain -iters 20
check barrierbench_contend barrierbench -fig contend -iters 20
check barrierbench_topo barrierbench -fig topo -sizes 16,32,64 -iters 5
check barrierbench_scale barrierbench -fig scale -iters 5

check reject_rel_dim barrierbench -fig rel -nodes 8 -dim 40
check reject_flap_dim barrierbench -fig flap -dim 40
check reject_contend_radix barrierbench -fig contend -radix 2
check reject_contend_bytes barrierbench -fig contend -bytes -1
check reject_metrics_dim barrierbench -metrics -nodes 4 -dim 9
check reject_rel_nodes1 barrierbench -fig rel -nodes 1
check reject_flap_nodes1 barrierbench -fig flap -nodes 1
check reject_metrics_nodes1 barrierbench -metrics -nodes 1

for c in gmtrace sweep gmping timing barrierbench; do
    check "help_$c" "$c" -h
done

if [ "$failed" != 0 ]; then
    echo "command outputs moved (regenerate on purpose with UPDATE=1)" >&2
    exit 1
fi
echo "command outputs match cmd/testdata"
