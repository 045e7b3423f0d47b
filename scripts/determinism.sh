#!/usr/bin/env bash
# Determinism gate for every CLI output the repository promises to be
# byte-identical. Each gate row is one command, run twice into fresh output
# directories: first with @J@ = 1, then with @J@ = 8 (a row without @J@
# simply runs twice). @OUT@ names the run's output directory. Every file
# the two runs write, stdout included, must be byte-identical, and every
# JSON file must parse.
#
# Run from anywhere: bash scripts/determinism.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/bin/" ./cmd/...

gate() {
	local name=$1
	shift
	local run j dir args
	for run in 1 2; do
		j=$((run == 1 ? 1 : 8))
		dir=$work/out/$name/$run
		mkdir -p "$dir"
		args=("${@//@OUT@/$dir}")
		args=("${args[@]//@J@/$j}")
		"$work/bin/${args[0]}" "${args[@]:1}" >"$dir/stdout" 2>"$work/stderr" ||
			{ cat "$work/stderr" >&2; echo "determinism: $name: ${args[*]} failed" >&2; exit 1; }
	done
	(cd "$work/out/$name/1" && find . -type f | sort) >"$work/files1"
	(cd "$work/out/$name/2" && find . -type f | sort) >"$work/files2"
	cmp "$work/files1" "$work/files2"
	while read -r f; do
		cmp "$work/out/$name/1/$f" "$work/out/$name/2/$f"
		if [[ $f == *.json ]]; then
			python3 -m json.tool "$work/out/$name/1/$f" >/dev/null
		fi
	done <"$work/files1"
	echo "determinism: $name ok ($(wc -l <"$work/files1") files)"
}

# One figure point in hrwle-bench's single-point mode: the event dump and
# totals, the matrix and histogram panels, the point's RunMetrics file,
# the Chrome trace and the timeline export.
gate point hrwle-bench -fig fig5 -scale 0.02 -schemes RW-LE_PES -threads 4 \
	-writes 10 -q -events 120 -matrix -hist -metrics-dir @OUT@/metrics \
	-chrome @OUT@/chrome.json -timeline @OUT@/timeline.json
# A PRWL point: its critical-section spans, lock waits and cycle
# attribution come from the shared section bracket and waits.
gate point-prwl hrwle-bench -fig ext-prwl -scale 0.02 -schemes PRWL -threads 4 \
	-writes 50 -q -hist -metrics-dir @OUT@/metrics \
	-chrome @OUT@/chrome.json -timeline @OUT@/timeline.json
# An RCU point: its grace periods are quiescence windows of the shared
# reader-clock drain.
gate point-rcu hrwle-bench -fig ext-rcu -scale 0.02 -schemes RCU -threads 4 \
	-writes 50 -q -hist -metrics-dir @OUT@/metrics \
	-chrome @OUT@/chrome.json -timeline @OUT@/timeline.json
# The race sanitizer on a clean figure point.
gate point-sanitize hrwle-bench -fig fig5 -scale 0.02 -schemes RW-LE_OPT \
	-threads 4 -writes 10 -sanitize -q -o @OUT@/san.txt
# Figure sweep tables and the per-scheme RunMetrics JSON directory.
gate sweep hrwle-bench -fig fig5 -scale 0.02 -threads 2,4 -q -j @J@ \
	-o @OUT@/fig5.txt -metrics-dir @OUT@/metrics
# A sweep of mapped machines: each fig4 point's memory is a mapping that
# the next point recycles, on one worker at -j 1 and across workers at -j 8.
gate sweep-fig4 hrwle-bench -fig fig4 -scale 0.02 -threads 2,4 -q -j @J@ \
	-o @OUT@/fig4.txt -metrics-dir @OUT@/metrics
# Open-system serve sweep; arrivals come from a seeded pre-run stream.
gate serve hrwle-serve -workload hashmap -requests 600 \
	-schemes RW-LE_OPT,SGL -rates 5e5,5e6 -q -j @J@ \
	-o @OUT@/serve.txt -json @OUT@/serve.json
# Bursty MMPP arrivals end to end.
gate serve-mmpp hrwle-serve -workload kyoto -requests 400 -arrivals mmpp \
	-schemes RW-LE_OPT -rates 8e5 -q -o @OUT@/mmpp.txt -json @OUT@/mmpp.json
# Every workload in one run: -json is a single array.
gate serve-all hrwle-serve -workload all -requests 100 -rates 1e5 \
	-schemes SGL -q -j @J@ -o @OUT@/all.txt -json @OUT@/all.json
# Virtual-time profiler at the knee.
gate prof hrwle-serve -prof -workload hashmap -requests 600 -servers 4 \
	-schemes RW-LE_OPT,HLE,SGL -q -j @J@ \
	-o @OUT@/prof.txt -json @OUT@/prof.json
# Single-point timeline export and the counter-augmented Chrome trace.
gate timeline hrwle-serve -workload hashmap -requests 400 \
	-schemes RW-LE_OPT -rates 3e6 -q -o @OUT@/point.txt \
	-timeline @OUT@/timeline.json -chrome @OUT@/chrome.json
# One production-shaped serve point under the race sanitizer: clean, and
# the race report identical across runs.
gate sanitize hrwle-serve -workload hashmap -requests 400 \
	-schemes RW-LE_OPT -rates 3e6 -sanitize -q \
	-o @OUT@/san.txt -json @OUT@/san.json
# Sharded sweep: schedule, Zipfian routing, per-shard adaptive switching
# and cross-shard transactions.
gate shard hrwle-serve -workload shard -servers 16 -requests 600 -shards 4,8 \
	-skews 0,1.2 -schemes adaptive,SGL -rates 3e6 -universe 16384 -q \
	-j @J@ -o @OUT@/shard.txt -json @OUT@/shard.json
# 256 CPUs: four-word coherence and conflict bitmaps in every line record.
gate shard-256 hrwle-serve -workload shard -servers 256 -shards 16 -requests 600 \
	-universe 16384 -skews 1.2 -schemes adaptive,SGL -q \
	-j @J@ -o @OUT@/shard256.txt -json @OUT@/shard256.json
# Virtual-time profiler on the sharded store, adaptive and fixed schemes.
gate shard-prof hrwle-serve -workload shard -prof -servers 16 -requests 600 \
	-shards 4 -skews 1.2 -schemes adaptive,HLE,SGL -rates 3e6 -universe 16384 \
	-q -j @J@ -o @OUT@/prof.txt -json @OUT@/prof.json
# One adaptive switching point: its timeline export and Chrome trace.
gate shard-timeline hrwle-serve -workload shard -servers 8 -requests 1500 \
	-queue-cap 4096 -shards 4 -skews 1.2 -cross 6 -window 20000 \
	-schemes adaptive -rates 3e6 -universe 16384 -q -o @OUT@/point.txt \
	-timeline @OUT@/timeline.json -chrome @OUT@/chrome.json
# The same point on one fixed scheme under the race sanitizer: clean (the
# switching point still reports two races; see EXPERIMENTS.md).
gate shard-sanitize hrwle-serve -workload shard -servers 8 -requests 1500 \
	-queue-cap 4096 -shards 4 -skews 1.2 -cross 6 -window 20000 \
	-schemes HLE -rates 3e6 -universe 16384 -sanitize -q \
	-o @OUT@/san.txt -json @OUT@/san.json
