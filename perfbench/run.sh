#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload local-run --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary,
# scratch stores and the span dump of a traced run.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export GOFLAGS= GOTOOLCHAIN=local
(cd perfbench && go build -trimpath -o "${out}/perfbench" .) >&2
# Write back what the build left dirty, so its I/O does not land inside
# the first timed phase.
sync
exec "${out}/perfbench" --workdir "${out}/work" --tracedir "${out}" "$@"
