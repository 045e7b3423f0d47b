#!/usr/bin/env bash
# Seeded-mutation catalogue: every bug the repository's checks must catch,
# one row each. A row gives a name, an extended regular expression the
# failing output must match, one or more edits, and after "--" the command
# that must fail with the edits in place. An edit is a file, an old text
# that must occur in it exactly once, and its new text; an empty old text
# creates the file.
#
# The script copies the tree once and checks that every row's edits apply,
# named or not, before it runs anything, so a row whose code has changed
# shape fails in seconds. It then runs each distinct command of the named
# rows once on the clean copy (each must pass), and each named row with
# only its own edits in place: go vet on the edited packages first, then
# the command, whose output must match the pattern, so a mutation that
# does not build (in its own package or in one the command tests) never
# counts as caught. A command that runs past $timeout seconds (set below)
# is a hang, not a catch.
#
#   bash scripts/mutations.sh [row...]          the gate (default: every row)
#   bash scripts/mutations.sh -matrix [row...]  which pin catches which row
#
# -matrix runs every row against every pin below instead of its own
# command and prints the table; each pin must pass on the clean copy.
set -euo pipefail
cd "$(dirname "$0")/.."

matrix=false
if [[ ${1-} == -matrix ]]; then
	matrix=true
	shift
fi
want=("$@")

work=$(mktemp -d)
# running is the pid of the attempt's timeout, if one runs. timeout leads
# a process group of its own, which a signal to the script never reaches,
# so the trap signals it; it passes the signal on to its group.
running=
stop() {
	if [[ -n $running ]]; then
		kill -TERM "$running" 2>/dev/null || true
		wait "$running" || true
	fi
	rm -rf "$work"
}
trap stop EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
tree=$work/tree
mkdir -p "$tree" "$work/orig"
tar -cf - --exclude=./.git --exclude=./.bench_build . | tar -xf - -C "$tree"

pin_names=() pin_cmds=()
pin() {
	pin_names+=("$1")
	shift
	pin_cmds+=("$(printf '%q ' "$@")")
}
pin equiv go test ./internal/enginediff -run TestEngineEquivalence
for w in fig5-hotline fig4-capacity serve-knee shard-256; do
	pin "${w%%-*}" bash bench/run.sh -workload "$w" -seconds 1 -trace 0
done
pin check go run ./cmd/hrwle-check -all -budget 1000
pin simsan go run ./cmd/hrwle-check -sanitize -all -budget 300
pin vet go run ./cmd/hrwle-vet ./...

# timeout bounds every command, in seconds: a row's, a control's, a pin's.
timeout=120

# attempt CMD runs the quoted command CMD in the copy, its output in
# $work/out, and returns its exit status (124 or 137 past $timeout). It
# waits for the command in the background, so a signal to the script is
# trapped at once, not when the command ends.
attempt() {
	local st=0
	(cd "$tree" && eval "exec timeout -k 10 $timeout $1") >"$work/out" 2>&1 &
	running=$!
	wait "$running" || st=$?
	running=
	return "$st"
}

# apply applies the current row's edits, saving each file it changes
# first; restore undoes them.
apply() {
	local i f old new src n
	for ((i = 0; i < ${#edits[@]}; i += 3)); do
		f=$tree/${edits[i]} old=${edits[i + 1]} new=${edits[i + 2]}
		if [[ -z $old ]]; then
			[[ ! -e $f ]] || { echo "mutations: $name: ${edits[i]} already exists" >&2; return 1; }
			printf '%s' "$new" >"$f"
			continue
		fi
		[[ -e $work/orig/${edits[i]//\//_} ]] || cp "$f" "$work/orig/${edits[i]//\//_}"
		IFS= read -r -d '' src <"$f" || true
		n=${src//"$old"/}
		n=$(((${#src} - ${#n}) / ${#old}))
		[[ $n == 1 ]] || { echo "mutations: $name: ${edits[i]}: old text found $n times, want 1; update the row" >&2; return 1; }
		printf '%s' "${src/"$old"/"$new"}" >"$f"
	done
}

restore() {
	local i saved
	for ((i = 0; i < ${#edits[@]}; i += 3)); do
		saved=$work/orig/${edits[i]//\//_}
		if [[ -z ${edits[i + 1]} ]]; then
			rm -f "$tree/${edits[i]}"
		elif [[ -e $saved ]]; then
			mv "$saved" "$tree/${edits[i]}"
		fi
	done
}

# vet runs go vet on the packages the current row edits.
vet() {
	local i pkgs=()
	for ((i = 0; i < ${#edits[@]}; i += 3)); do
		pkgs+=("./$(dirname "${edits[i]}")/")
	done
	(cd "$tree" && go vet "${pkgs[@]}") >"$work/out" 2>&1
}

names=() failed=0
declare -A controls=()

# row NAME PATTERN (FILE OLD NEW)... -- CMD... is one catalogue row;
# what it does depends on $phase.
row() {
	local name=$1 pattern=$2 edits=() marks cmd st v
	shift 2
	while [[ $1 != -- ]]; do
		edits+=("$1" "$2" "$3")
		shift 3
	done
	shift
	cmd=$(printf '%q ' "$@")
	if [[ $phase == apply ]]; then
		names+=("$name")
		[[ -n $pattern ]] || { echo "mutations: $name: empty pattern" >&2; exit 1; }
		apply || exit 1
		restore
	fi
	if ((${#want[@]})) && [[ " ${want[*]} " != *" $name "* ]]; then
		return 0
	fi
	case $phase in
	apply) $matrix || controls[$cmd]=1 ;;
	run)
		apply
		if ! vet; then
			v="does not build"
		elif $matrix; then
			marks=()
			for cmd in "${pin_cmds[@]}"; do
				attempt "$cmd" && st=0 || st=$?
				case $st in
				0) marks+=(.) ;;
				124 | 137) marks+=(hang) ;;
				*) marks+=(x) ;;
				esac
			done
			v=matrix
		else
			attempt "$cmd" && st=0 || st=$?
			case $st in
			0) v=escaped ;;
			124 | 137) v=hang ;;
			*) grep -Eq -- "$pattern" "$work/out" && v=caught || v="failed without /$pattern/" ;;
			esac
		fi
		restore
		if [[ $v == matrix ]]; then
			table "$name" "${marks[@]}"
		else
			echo "mutations: $name: $v"
			if [[ $v != caught ]]; then
				sed 's/^/  /' "$work/out" | tail -20 >&2
				failed=1
			fi
		fi
		;;
	esac
}

# table prints one line of the -matrix table.
table() {
	{
		printf '%-22s' "$1"
		shift
		printf ' %-8s' "$@"
		echo
	} | sed 's/ *$//'
}

catalogue() {
	# simlint: a wall-clock read in a simulator package.
	row wallclock '\[determinism\]' \
		internal/machine/zz_mutation.go '' $'package machine\n\nimport "time"\n\nfunc WallStamp() int64 { return time.Now().UnixNano() }\n' \
		-- go run ./cmd/hrwle-vet ./internal/machine/
	# simlint: a recover that swallows transaction aborts.
	row recover '\[abortflow\]' \
		internal/htm/zz_mutation.go '' $'package htm\n\nfunc SwallowAborts(fn func()) {\n\tdefer func() { recover() }()\n\tfn()\n}\n' \
		-- go run ./cmd/hrwle-vet ./internal/htm/
	# The server loop's queue pop moved out of its dispatch Waiter to
	# above CPU.Await, before the CPU holds the virtual-time floor, keeping
	# the index but not the ok flag: a server that finds the queue empty
	# takes request 0 again and never leaves its loop. The service tests'
	# machine deadline turns the livelock into a panic.
	row pop-hoist 'exceeded virtual deadline' \
		internal/service/run.go $'\tif idx, ok := w.q.Pop(c.Now()); ok {' $'\tif idx, ok := w.idx, w.idx >= 0; ok {' \
		internal/service/run.go $'\t\tc.Await(w)\n' $'\t\tw.idx, _ = q.Pop(c.Now())\n\t\tc.Await(w)\n' \
		-- go test ./internal/service
	# The shard gate's state released before the CPU holds the floor: a
	# section's exit and a cross-shard reservation's release each change
	# the gate, with its floor check, ahead of their Sync. The check
	# panics on the shard tests' 256-CPU SGL point.
	row exit-early 'inflight at t=[0-9]+ off the virtual-time floor' \
		internal/shard/shard.go $'\tc.Sync()\n\tc.MustHoldFloor("inflight")\n\td.shards[s].inflight--\n' $'\tc.MustHoldFloor("inflight")\n\td.shards[s].inflight--\n\tc.Sync()\n' \
		-- go test ./internal/shard
	row release-early 'excl at t=[0-9]+ off the virtual-time floor' \
		internal/shard/shard.go $'\tc.Sync()\n\tc.MustHoldFloor("excl")\n\td.shards[s].excl = -1\n' $'\tc.MustHoldFloor("excl")\n\td.shards[s].excl = -1\n\tc.Sync()\n' \
		-- go test ./internal/shard
	# Wake-one dispatch. The dispatcher never blocks an idle server, as
	# before wake-one dispatch: every result stays the same, and only the
	# engine's work counters (and the idle-event stream) move.
	row block-skip 'shard256/adaptive diverged' \
		internal/service/run.go $'\tif w.q.lowestIdle() != c.ID {\n\t\tc.Block()\n\t}\n' '' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The shard timelines count blocked servers in their watermark: their
	# stale last events hold windows back, and the controller's switches
	# come late or not at all.
	row watermark-blocked 'shard64/adaptive diverged' \
		internal/obs/shardtl.go $'\t\tif t < mark && !st.m.CPU(id).Blocked() {' $'\t\tif t < mark && st.m.CPU(id) != nil {' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# A server takes a request without waking the next idle server, which
	# then sleeps through the rest of the run.
	row wake-skip 'still blocked at run end' \
		internal/service/run.go $'\t\tw.idx = idx\n\t\tw.q.leave(c)\n' $'\t\tw.idx = idx\n\t\tw.q.idle.Del(c.ID)\n' \
		-- go test ./internal/service
	# Recycled blocks handed out without clearing them.
	row alloc-clear '--- FAIL' \
		internal/machine/alloc.go $'\tif recycled {\n\t\tclear(m.words[addr : addr+Addr(size)])\n\t}\n' $'\t_, _ = size, recycled\n' \
		-- go test ./internal/machine -run Allocator
	# Release hands a machine's mapping to the next New without clearing
	# it: the next machine starts on the last one's words and records.
	row release-no-clear '--- FAIL' \
		internal/machine/mem_linux.go $'\t\tif r[0] < heap {\n\t\t\tclear(words[r[0]:min(r[1], heap)])\n\t\t}\n\t\tif r[1] > memWords {\n\t\t\tclear(words[max(r[0], memWords):r[1]])\n\t\t}\n' $'\t\t_ = r\n' \
		-- go test ./internal/machine -run Release
	# The shared Zipf tables keyed by universe alone: a second skew over
	# one universe gets the first skew's table, and its keys follow the
	# wrong distribution.
	row zipf-memo-key-n '--- FAIL' \
		internal/service/zipf.go 'zipfTables(zipfKey{n, s},' 'zipfTables(zipfKey{n: n},' \
		-- go test ./internal/service -run ZipfMemo
	# The Zipf weight as Exp(-s*Log(x)) instead of math.Pow's own split of
	# s: close in value, but its last bits differ from Pow's on most ranks,
	# so every keyed schedule moves.
	row zipf-exp-log '--- FAIL' \
		internal/service/zipf.go $'return 1 / (math.Exp(yf*math.Log(x)) * x) }' $'return math.Exp(-s * math.Log(x)) }' \
		-- go test ./internal/service -run RankWeight
	# RW-LE_SPLIT without its split locks: it still builds and keeps its
	# name, so only the engine capture's split figure and RW-LE_SPLIT
	# explorations can tell.
	row split-locks 'RW-LE_SPLIT/record diverged' \
		internal/harness/registry.go ', SplitLocks: true}' '}' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The hashmap worker stops recycling removed nodes: later inserts take
	# fresh heap, which moves addresses, lines, conflicts and cycles.
	row worker-recycle 'diverged' \
		internal/hashmap/worker.go $'\tw.h.Recycle(w.th, w.gone)\n' '' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# Stock-Level reuses its item set without a new generation, so a
	# re-execution after an abort skips the items the aborted scan marked.
	row stocklevel-gen '--- FAIL' \
		internal/tpcc/tx.go $'\ts.gen++\n' '' \
		-- go test ./internal/tpcc -run StockLevelReexecution
	# The open-system runner drops the host's late tracer: the shard
	# timelines see no events and the controller never switches.
	row late-tracer '--- FAIL' \
		internal/service/run.go $'\tlate, err := h.Build(m, sys)\n' $'\tlate, err := h.Build(m, sys)\n\tlate = nil\n' \
		-- go test ./internal/shard -run 'SwitchTrace|Observer'
	# The htm.Config knobs, switched on for every System: conflicts that
	# arrive while a writer is suspended are lost at resume (paper §3,
	# Fig. 2); ROT commits skip the reader quiescence; the HTM writer
	# subscribes to the lock lazily (Dice et al., arXiv 1407.6968), which
	# only the sanitizer can see.
	row lose-doom-at-resume 'VIOLATION: torn read' \
		internal/htm/htm.go $'\tcfg.applyDefaults()\n' $'\tcfg.applyDefaults()\n\tcfg.UnsafeLoseDoomAtResume = true\n' \
		-- go run ./cmd/hrwle-check -scheme RW-LE_OPT
	row skip-rot-quiesce 'VIOLATION: torn read' \
		internal/htm/htm.go $'\tcfg.applyDefaults()\n' $'\tcfg.applyDefaults()\n\tcfg.UnsafeSkipROTQuiesce = true\n' \
		-- go run ./cmd/hrwle-check -scheme RW-LE_PES
	row lazy-subscription 'VIOLATION: simsan' \
		internal/htm/htm.go $'\tcfg.applyDefaults()\n' $'\tcfg.applyDefaults()\n\tcfg.UnsafeLazySubscription = true\n' \
		-- go run ./cmd/hrwle-check -sanitize -program litmus-sub -scheme RW-LE_OPT -budget 400
	# Shard tier: a pending scheme switch applied with sections still in
	# flight, and a cross-shard transaction that reserves its two shards
	# in request order instead of index order. No property check covers
	# these protocols yet; only the engine capture's fingerprints do.
	row shard-drain-skip 'shard64/adaptive diverged' \
		internal/shard/shard.go $'\t\tif sh.inflight == 0 {\n\t\t\tw.d.applySwitch(c, sh, w.s)\n\t\t}\n' $'\t\tw.d.applySwitch(c, sh, w.s)\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	row shard-reserve-order 'shard256/adaptive diverged' \
		internal/shard/shard.go $'\td.acquireExcl(c, lo)\n\td.acquireExcl(c, hi)\n' $'\td.acquireExcl(c, s1)\n\td.acquireExcl(c, s2)\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The adaptive controller without hysteresis or cooldown: one vote
	# switches a shard, and the next window may switch it back (flapping).
	row ctl-no-hysteresis '--- FAIL' \
		internal/shard/controller.go $'\thysteresis = 2\n' $'\thysteresis = 1\n' \
		internal/shard/controller.go $'\tcooldownWindows = 2\n' $'\tcooldownWindows = 0\n' \
		-- go test ./internal/shard -run Controller
	# The critical-section bracket closes no span for a section that
	# commits in hardware: the trace carries a cs-begin with no cs-end.
	row cs-end-drop 'diverged' \
		internal/htm/section.go $'\tt.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(path), retries))\n' $'\tif path != stats.CommitHTM {\n\t\tt.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(path), retries))\n\t}\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The quiescence bracket closes its window by straight-line code after
	# the scan instead of a defer: RW-LE's synchronize runs inside writeROT's
	# transaction, and an abort that unwinds mid-scan skips the EvQuiesceEnd.
	row quiesce-end-undeferred 'diverged' \
		internal/htm/section.go $'\tdefer func() {\n\t\tt.St.QuiesceWait += t.C.Now() - start\n\t\tt.C.Emit(machine.EvQuiesceEnd, 0, uint64(t.C.Now()-start))\n\t}()\n\tscan()\n' $'\tscan()\n\tt.St.QuiesceWait += t.C.Now() - start\n\tt.C.Emit(machine.EvQuiesceEnd, 0, uint64(t.C.Now()-start))\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The shared reader-clock drain snapshots the clocks but never waits:
	# an RCU grace period, and RW-LE_basic's quiescence, returns with
	# readers still inside their sections.
	row drain-no-wait '--- FAIL' \
		internal/htm/clocks.go $'\t\t\tt.C.Await(&t.ww)\n' '' \
		-- go test ./internal/rcu -run Synchronize
	# A heap allocation on every HTM commit.
	row hot-alloc 'allocs/op' \
		internal/htm/zz_mutation.go '' $'package htm\n\nvar hotSink []uint64\n' \
		internal/htm/tx.go $'\tt.mustBeActive("Commit")\n' $'\tt.mustBeActive("Commit")\n\thotSink = make([]uint64, len(t.ws.order)+1)\n' \
		-- go test ./internal/htm -run Allocate
	# The contended-acquisition backoff draws from the global math/rand
	# source instead of the CPU's seeded stream: every run differs. simlint
	# had a rule for it; the engine capture sees it too.
	row det-rand 'diverged' \
		internal/htm/wait.go $'import "hrwle/internal/machine"\n' $'import (\n\t"math/rand"\n\n\t"hrwle/internal/machine"\n)\n' \
		internal/htm/wait.go 'c.SpinFor(1 + c.Intn(1<<s.shift))' 'c.SpinFor(1 + rand.Intn(1<<s.shift))' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# The closed-system sweep collects its points through a channel, or
	# appends them under a host mutex, in the order the host's workers
	# finish them. simlint had rules for both; the sweep's serial-parallel
	# test sees them too.
	row det-chan 'parallel result diverged' \
		internal/harness/harness.go $'\tout := make([]Result, f.NumPoints())\n' $'\tout := make([]Result, f.NumPoints())\n\tdone := make(chan Result, len(out))\n' \
		internal/harness/harness.go $'\t\tout[i] = r\n' $'\t\tdone <- r\n' \
		internal/harness/harness.go $'\treturn out\n}' $'\tfor i := range out {\n\t\tout[i] = <-done\n\t}\n\treturn out\n}' \
		-- go test ./internal/harness -run ParallelMatchesSerial
	row det-sync 'parallel result diverged' \
		internal/harness/harness.go $'\t"sort"\n' $'\t"sort"\n\t"sync"\n' \
		internal/harness/harness.go $'\tout := make([]Result, f.NumPoints())\n' $'\tout := make([]Result, 0, f.NumPoints())\n\tvar mu sync.Mutex\n' \
		internal/harness/harness.go 'ForEach(len(out), workers,' 'ForEach(f.NumPoints(), workers,' \
		internal/harness/harness.go $'\t\tout[i] = r\n' $'\t\tmu.Lock()\n\t\tout = append(out, r)\n\t\tmu.Unlock()\n' \
		-- go test ./internal/harness -run ParallelMatchesSerial
	# The sweep runs no more simulated threads than the host has cores.
	# simlint had a rule for host queries; the engine capture sees it on a
	# host with fewer cores than its largest thread count (4), which
	# taskset makes of any host: runtime.NumCPU counts only the CPUs the
	# process may run on.
	row det-runtime 'diverged' \
		internal/harness/harness.go $'\t"io"\n' $'\t"io"\n\t"runtime"\n' \
		internal/harness/harness.go 'f.Point(PointCtx{attach: attach}, scheme, threads,' 'f.Point(PointCtx{attach: attach}, scheme, min(threads, runtime.NumCPU()),' \
		-- taskset -c 0 go test ./internal/enginediff -run TestEngineEquivalence
	# The abort matrix lists its cells in map order, and the metrics export
	# writes them as listed. simlint had a rule for unsorted map ranges;
	# the engine capture's export sha256s see it too.
	row det-map-order 'export metrics/fig5 diverged' \
		internal/obs/obs.go $'\tsort.Slice(keys, func(i, j int) bool {\n\t\ta, b := keys[i], keys[j]\n\t\tif a.cause != b.cause {\n\t\t\treturn a.cause < b.cause\n\t\t}\n\t\tif a.killer != b.killer {\n\t\t\treturn a.killer < b.killer\n\t\t}\n\t\treturn a.victim < b.victim\n\t})\n' '' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# A hashmap lookup swallows every panic of its loads, the HTM abort of
	# a doomed section among them, and the section goes on outside its
	# transaction. abortflow's rule for every deferred recover still flags
	# it; its cross-package reachability, deleted, was never needed.
	row recover-reach 'Commit outside transaction' \
		internal/hashmap/hashmap.go $'func (h *Map) Lookup(t *htm.Thread, key uint64) (uint64, bool) {\n' $'func (h *Map) Lookup(t *htm.Thread, key uint64) (uint64, bool) {\n\tdefer func() { recover() }()\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# simlint: Try keeps the pooled abort signal on the Thread past its
	# handler, where the thread's next abort rewrites it. Nothing reads it
	# yet, so only abortflow sees it.
	row recover-retain '\[abortflow\]' \
		internal/htm/htm.go $'\tsig abortSignal\n' $'\tsig abortSignal\n\tlast *abortSignal\n' \
		internal/htm/tx.go $'\t\tstatus = Status{OK: false,' $'\t\tt.last = sig\n\t\tstatus = Status{OK: false,' \
		-- go run ./cmd/hrwle-vet ./...
	# The RCU read section reads its bucket head with machine.Peek,
	# outside the htm.Thread API, and a helper every hashmap write section
	# calls stores the new node's key with machine.Poke, which no abort
	# undoes. simlint had rules for raw accesses in a section and in what
	# it reaches; the engine capture sees both.
	row cs-raw-load 'ext-rcu point \(RCU' \
		internal/rcu/hashmap.go $'\t\tn := t.Load(h.bucketAddr(key))\n' $'\t\tn := h.m.Peek(h.bucketAddr(key))\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	row cs-helper-poke 'diverged' \
		internal/hashmap/hashmap.go $'\tt.Store(node+offKey, key)\n' $'\th.m.Poke(node+offKey, key)\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# simlint: quickstart's write section records each version's writer in
	# a captured map, which an aborted attempt also writes. Only
	# txdiscipline sees it.
	row cs-captured-map '\[txdiscipline\]' \
		examples/quickstart/main.go $'\ttorn := 0\n' $'\ttorn := 0\n\twroteBy := map[uint64]int{}\n' \
		examples/quickstart/main.go $'\t\t\t\t\t\tt.Store(w, v)\n\t\t\t\t\t}\n' $'\t\t\t\t\t\tt.Store(w, v)\n\t\t\t\t\t}\n\t\t\t\t\twroteBy[v] = c.ID\n' \
		-- go run ./cmd/hrwle-vet ./...
	# The wicked workload's bucket-clearing section appends the nodes it
	# unlinks to a captured list: a re-execution after an abort lists them
	# twice, and each is recycled twice. simlint had a rule for captured
	# self-appends; the wicked workload's own test sees the corruption.
	row cs-captured-append 'BST ordering violated' \
		internal/kyoto/wicked.go $'\t\t\t\tfreed = freed[:0] // restartable: reset on re-execution\n\t\t\t\tdb.ClearBucket(t, bucket, &freed)\n' $'\t\t\t\tvar got []machine.Addr\n\t\t\t\tdb.ClearBucket(t, bucket, &got)\n\t\t\t\tfreed = append(freed, got...)\n' \
		-- go test ./internal/kyoto -run WickedRWLE
	# The wicked workload's remove frees the unlinked record inside its
	# section instead of after it commits: an elided section that aborts
	# has already freed a record that is still linked, and its re-execution
	# frees it again. simlint had a rule for allocator calls in a section;
	# the engine capture's fig9 points see it too.
	row cs-alloc-free 'fig9 point .* diverged' \
		internal/kyoto/wicked.go $'\t\t\tvar gone machine.Addr\n\t\t\tlock.Read(t, func() { gone = db.Remove(t, key, w.Inner) })\n\t\t\tdb.Recycle(t, gone)\n' $'\t\t\tlock.Read(t, func() {\n\t\t\t\tif gone := db.Remove(t, key, w.Inner); gone != 0 {\n\t\t\t\t\tt.FreeAligned(gone, recWords)\n\t\t\t\t}\n\t\t\t})\n' \
		-- go test ./internal/enginediff -run TestEngineEquivalence
	# simlint: a read section that increments a captured counter, which a
	# re-execution after an abort counts twice. Only txdiscipline sees it.
	row cs-captured-incr '\[txdiscipline\]' \
		examples/quickstart/main.go $'\t\t\t\t\tsawTorn = tornHere\n\t\t\t\t})\n\t\t\t\tif sawTorn {\n\t\t\t\t\ttorn++\n\t\t\t\t}\n' $'\t\t\t\t\tsawTorn = tornHere\n\t\t\t\t\tif sawTorn {\n\t\t\t\t\t\ttorn++\n\t\t\t\t\t}\n\t\t\t\t})\n' \
		-- go run ./cmd/hrwle-vet ./...
}

phase=apply
catalogue
for w in "${want[@]}"; do
	[[ " ${names[*]} " == *" $w "* ]] || { echo "mutations: unknown row $w" >&2; exit 2; }
done
echo "mutations: ${#names[@]} rows apply"

if $matrix; then
	for cmd in "${pin_cmds[@]}"; do
		controls[$cmd]=1
	done
fi
for cmd in "${!controls[@]}"; do
	attempt "$cmd" ||
		{ cat "$work/out" >&2; echo "mutations: control failed on the clean tree: $cmd" >&2; exit 1; }
done
echo "mutations: ${#controls[@]} controls pass"

if $matrix; then
	for i in "${!pin_names[@]}"; do
		echo "pin ${pin_names[i]}: ${pin_cmds[i]% }"
	done
	echo "x = pin fails (catches the row), . = pin passes, hang = pin timed out"
	table row "${pin_names[@]}"
fi
phase=run
catalogue
exit $failed
