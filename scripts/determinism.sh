#!/usr/bin/env bash
# Determinism gate for every CLI output the repository promises to be
# byte-identical. Each gate row is one command, run twice into fresh output
# directories: first with @J@ = 1, then with @J@ = 8 (a row without @J@
# simply runs twice). @OUT@ names the run's output directory. Every file
# the two runs write, stdout included, must be byte-identical, and every
# JSON file must parse.
#
# With -base REV, each row instead runs once with REV's binaries and once
# with this tree's, both at @J@ = 8, and the script lists every file that
# differs: for a JSON file the paths of the fields that differ, for any
# other file its first changed lines. REV is exported with git archive and
# built in the script's temporary directory. A row that REV's binaries
# cannot run is skipped with a note. The exit status is 1 if any file
# differs.
#
# Run from anywhere: bash scripts/determinism.sh [-base REV]
set -euo pipefail
cd "$(dirname "$0")/.."

base=
if [[ ${1-} == -base ]]; then
	base=${2:?determinism: -base needs a revision}
	git rev-parse --quiet --verify "$base^{commit}" >/dev/null ||
		{ echo "determinism: -base $base: no such commit" >&2; exit 2; }
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/bin/" ./cmd/...
if [[ -n $base ]]; then
	mkdir -p "$work/base/tree"
	git archive "$base" | tar -xf - -C "$work/base/tree"
	(cd "$work/base/tree" && go build -o "$work/base/bin/" ./cmd/...)
fi
rows_differ=0 rows_skipped=0

# run NAME SIDE BIN J CMD... runs a row's command with the binaries in BIN
# and @J@ = J; its files and stdout go to $work/out/NAME/SIDE, its stderr
# to $work/stderr.
run() {
	local name=$1 side=$2 bin=$3 j=$4 dir args
	shift 4
	dir=$work/out/$name/$side
	mkdir -p "$dir"
	args=("${@//@OUT@/$dir}")
	args=("${args[@]//@J@/$j}")
	"$bin/${args[0]}" "${args[@]:1}" >"$dir/stdout" 2>"$work/stderr"
}

# files NAME SIDE lists the files of one side of a row.
files() {
	(cd "$work/out/$1/$2" && find . -type f | sort)
}

# failed NAME CMD... reports a command of this tree's build that failed.
failed() {
	cat "$work/stderr" >&2
	echo "determinism: $1: ${*:2} failed" >&2
	exit 1
}

gate() {
	local name=$1 f
	shift
	if [[ -n $base ]]; then
		against "$name" "$@"
		return
	fi
	run "$name" 1 "$work/bin" 1 "$@" || failed "$name" "$@"
	run "$name" 2 "$work/bin" 8 "$@" || failed "$name" "$@"
	files "$name" 1 >"$work/files1"
	files "$name" 2 >"$work/files2"
	cmp "$work/files1" "$work/files2"
	while read -r f; do
		cmp "$work/out/$name/1/$f" "$work/out/$name/2/$f"
		if [[ $f == *.json ]]; then
			python3 -m json.tool "$work/out/$name/1/$f" >/dev/null
		fi
	done <"$work/files1"
	echo "determinism: $name ok ($(wc -l <"$work/files1") files)"
}

# against NAME CMD... runs one row with REV's build and with this tree's
# and lists what differs.
against() {
	local name=$1 f a b differ=0
	shift
	if ! run "$name" base "$work/base/bin" 8 "$@"; then
		echo "determinism: $name skipped: $base's build cannot run it: $(head -1 "$work/stderr")"
		rows_skipped=$((rows_skipped + 1))
		return
	fi
	run "$name" tree "$work/bin" 8 "$@" || failed "$name" "$@"
	files "$name" base >"$work/files1"
	files "$name" tree >"$work/files2"
	while read -r f; do
		echo "determinism: $name: $f written by one build only"
		differ=$((differ + 1))
	done < <(comm -3 "$work/files1" "$work/files2" | tr -d '\t')
	while read -r f; do
		a=$work/out/$name/base/$f b=$work/out/$name/tree/$f
		cmp -s "$a" "$b" && continue
		differ=$((differ + 1))
		echo "determinism: $name: $f differs from $base"
		if [[ $f == *.json ]]; then
			jsondiff "$a" "$b"
		else
			{ diff "$a" "$b" || true; } | head -20 | sed 's/^/  /'
		fi
	done < <(comm -12 "$work/files1" "$work/files2")
	if ((differ)); then
		rows_differ=$((rows_differ + 1))
	else
		echo "determinism: $name same as $base ($(wc -l <"$work/files2") files)"
	fi
}

# jsondiff A B prints the path of every field whose value differs between
# two JSON files, array indices folded into [], with the count of values
# that differ at each path.
jsondiff() {
	python3 - "$1" "$2" <<'PY'
import collections, json, sys

def walk(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            p = f"{path}.{k}"
            if k in a and k in b:
                walk(a[k], b[k], p, out)
            else:
                out[p + " (in one file only)"] += 1
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out[f"{path} (length {len(a)} vs {len(b)})"] += 1
        for x, y in zip(a, b):
            walk(x, y, path + "[]", out)
    elif a != b:
        out[path or "."] += 1

with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
    try:
        a, b = json.load(fa), json.load(fb)
    except ValueError as e:
        print(f"  not valid JSON: {e}")
        sys.exit()
out = collections.Counter()
walk(a, b, "", out)
for path, n in out.items():
    print(f"  {path}: {n} value{'s' if n > 1 else ''}")
PY
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

if [[ -n $base ]]; then
	echo "determinism: $rows_differ rows differ from $base, $rows_skipped skipped"
	((rows_differ == 0)) || exit 1
fi
