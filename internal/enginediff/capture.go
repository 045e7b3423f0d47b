// Package enginediff is the differential equivalence harness that pins the
// simulator engine's observable behavior across engine rewrites. It runs a
// mini version of every figure sweep plus the internal/check DFS and
// random-walk explorations, and folds three kinds of observables into a
// committed golden capture (testdata/engine_golden.json):
//
//   - the complete trace-event stream of every measurement point and every
//     explored schedule, fingerprinted event by event (time, CPU, kind,
//     address, aux — any reordering or value drift changes the hash);
//   - the formatted figure tables (Print bytes);
//   - the checker's reports and violation replay tokens, including the two
//     seeded mutations that must keep producing the identical token;
//   - the open-system event streams — every serve workload's scheme set at
//     its knee load on a short schedule, a 256-CPU adaptive shard point and
//     a 64-CPU one that switches schemes live — each fingerprinted with a
//     sha256 over every event.
//
// The figure, checker and mutation captures in testdata were recorded on
// the goroutine-per-CPU token-passing engine immediately before it was
// replaced by the inline coroutine scheduler loop; the open-system
// captures were recorded on the two open-coded dispatch loops immediately
// before they were folded into one engine-stepped server loop. The test
// suite asserts the current engine reproduces all of them bit for bit.
// Regenerate with `go test ./internal/enginediff -update` ONLY when an
// intentional simulation-semantics change (never a pure engine change)
// alters results.
package enginediff

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"

	"hrwle/internal/check"
	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// streamHash folds trace events into an FNV-1a fingerprint as they arrive.
// It retains nothing, so whole-sweep streams cost no memory, and any
// difference in event order, count or content changes the final sum.
type streamHash struct {
	sum    uint64
	events int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newStreamHash() *streamHash { return &streamHash{sum: fnvOffset} }

func (h *streamHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum = (h.sum ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

// Event implements machine.Tracer.
func (h *streamHash) Event(e machine.Event) {
	h.events++
	h.word(uint64(e.Time))
	h.word(uint64(e.CPU)<<8 | uint64(e.Kind))
	h.word(uint64(e.Addr))
	h.word(e.Aux)
}

func (h *streamHash) hex() string { return fmt.Sprintf("%016x", h.sum) }

// streamSHA folds trace events into a sha256 as they arrive: kind, CPU,
// time, address and aux of every event, little-endian, batched through a
// small buffer so the hash sees few large writes.
type streamSHA struct {
	h      hash.Hash
	buf    []byte
	events int64
}

// shaEventBytes is the size of one event's record in a streamSHA.
const shaEventBytes = 2 + 3*8

func newStreamSHA() *streamSHA { return &streamSHA{h: sha256.New(), buf: make([]byte, 0, 4096)} }

// Event implements machine.Tracer.
func (s *streamSHA) Event(e machine.Event) {
	s.events++
	b := append(s.buf, byte(e.Kind), byte(e.CPU))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Addr))
	b = binary.LittleEndian.AppendUint64(b, e.Aux)
	if len(b) > cap(b)-shaEventBytes {
		s.h.Write(b)
		b = b[:0]
	}
	s.buf = b
}

func (s *streamSHA) hex() string {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
	return hex.EncodeToString(s.h.Sum(nil))
}

// PointCapture is the observable record of one measurement point: the
// virtual-time result plus the event-stream fingerprint of every machine
// the point constructed.
type PointCapture struct {
	Scheme     string `json:"scheme"`
	Threads    int    `json:"threads"`
	WritePct   int    `json:"write_pct"`
	Cycles     int64  `json:"cycles"`
	Ops        int64  `json:"ops"`
	Events     int64  `json:"events"`
	StreamHash string `json:"stream_hash"`
}

// FigureCapture is one figure's mini-sweep: its points plus the formatted
// table exactly as Print renders it.
type FigureCapture struct {
	ID     string         `json:"id"`
	Print  string         `json:"print"`
	Points []PointCapture `json:"points"`
}

// ExploreCapture summarizes one checker exploration, with the event
// streams of all explored schedules folded into one fingerprint.
type ExploreCapture struct {
	Scheme     string `json:"scheme"`
	Program    string `json:"program"`
	Executions int    `json:"executions"`
	Points     int64  `json:"points"`
	Truncated  int    `json:"truncated"`
	Exhausted  bool   `json:"exhausted"`
	StreamHash string `json:"stream_hash"`
}

// MutationCapture records a seeded-mutation exploration: the violation the
// checker must find, its deterministic replay token, and the event-stream
// fingerprint of replaying that token.
type MutationCapture struct {
	Scheme           string `json:"scheme"`
	Mutation         string `json:"mutation"`
	Desc             string `json:"desc"`
	Token            string `json:"token"`
	ReplayStreamHash string `json:"replay_stream_hash"`
}

// OpenCapture is the observable record of one open-system point: its
// makespan and the sha256 fingerprint of its whole event stream, plus, for
// a shard point that switches schemes, the sha256 of its Result JSON.
type OpenCapture struct {
	Point     string `json:"point"`
	Cycles    int64  `json:"cycles"`
	Events    int64  `json:"events"`
	SHA256    string `json:"sha256"`
	ResultSHA string `json:"result_sha256,omitempty"`
}

// Capture is the full golden record.
type Capture struct {
	Figures      []FigureCapture   `json:"figures"`
	Explorations []ExploreCapture  `json:"explorations"`
	Mutations    []MutationCapture `json:"mutations"`
	Open         []OpenCapture     `json:"open_system"`
}

// miniScale is the work multiplier of the per-figure mini-sweeps. It
// matches the harness golden test's scale so the sweeps stay CI-cheap.
const miniScale = 0.02

// miniSpec shrinks a figure to a differential mini-sweep: two thread
// counts and at most the two extreme write ratios. The shrink must stay
// stable across PRs — the committed capture encodes its exact points.
func miniSpec(id string) *harness.FigureSpec {
	spec := *harness.Registry()[id]
	spec.Threads = []int{2, 4}
	if len(spec.WritePcts) > 2 {
		spec.WritePcts = []int{spec.WritePcts[0], spec.WritePcts[len(spec.WritePcts)-1]}
	}
	return &spec
}

// exploreBudget bounds the differential explorations: large enough to
// exercise both DFS and random-walk strategies, small enough for CI.
const exploreBudget = 60

// CaptureAll runs every differential workload on the current engine and
// returns the capture.
func CaptureAll() *Capture {
	cap := &Capture{}

	ids := make([]string, 0, len(harness.Registry()))
	for id := range harness.Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cap.Figures = append(cap.Figures, captureFigure(id))
	}

	for _, scheme := range check.Schemes() {
		for _, prog := range check.Programs() {
			cap.Explorations = append(cap.Explorations, captureExplore(scheme, prog))
		}
	}

	cap.Mutations = []MutationCapture{
		captureMutation("RW-LE_OPT", check.MutLoseDoomAtResume),
		captureMutation("RW-LE_PES", check.MutSkipROTQuiesce),
	}

	for _, wl := range harness.ServeWorkloads() {
		cap.Open = append(cap.Open, captureServe(wl)...)
	}
	cap.Open = append(cap.Open, captureShard(256), captureShard(64))
	return cap
}

// openRequests is the schedule length of the serve captures: long enough
// to reach the knee's queueing and idle behaviour, short enough for CI.
const openRequests = 400

// captureServe runs every default scheme of one serve workload at its
// calibrated knee load, fingerprinting each point's event stream.
func captureServe(workload string) []OpenCapture {
	spec, err := harness.DefaultProfSpec(workload)
	if err != nil {
		panic(err) // ServeWorkloads and DefaultProfSpec share one list
	}
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.RatePerSec
	cfg.Requests = openRequests
	var out []OpenCapture
	for _, scheme := range spec.Schemes {
		h := newStreamSHA()
		m, _, err := service.RunPoint(cfg, scheme, harness.SchemeFactory(scheme), func(m *machine.Machine) { m.SetTracer(h) })
		oc := OpenCapture{Point: "serve/" + workload + "/" + scheme}
		if err != nil {
			oc.SHA256 = "ERROR: " + err.Error()
		} else {
			oc.Cycles, oc.Events, oc.SHA256 = m.MakespanCycles, h.events, h.hex()
		}
		out = append(out, oc)
	}
	return out
}

// captureShard fingerprints one adaptive shard point. The 256-CPU point is
// the one internal/shard's TestShard256Pinned pins by result; it makes no
// switch. The 64-CPU point switches schemes live (twice at seed 1), so it
// must switch, and the sha256 of its Result JSON pins its switch trace and
// per-shard stats as well.
func captureShard(servers int) OpenCapture {
	cfg := shard.DefaultConfig()
	cfg.Servers = servers
	cfg.Keys.Universe = 16384
	switching := servers != 256
	if switching {
		cfg.Shards, cfg.Requests, cfg.Arrivals.RatePerSec = 4, 1200, 3e6
	} else {
		cfg.Shards, cfg.Requests, cfg.Keys.Skew, cfg.Arrivals.RatePerSec = 16, 600, 1.2, 2e7
	}
	h := newStreamSHA()
	res, err := shard.Run(cfg, harness.ShardPalette(), func(m *machine.Machine) { m.SetTracer(h) })
	if err == nil && switching && len(res.Switches) == 0 {
		err = fmt.Errorf("no scheme switch")
	}
	oc := OpenCapture{Point: fmt.Sprintf("shard%d/%s", servers, harness.ShardAdaptive)}
	if err != nil {
		oc.SHA256 = "ERROR: " + err.Error()
		return oc
	}
	oc.Cycles, oc.Events, oc.SHA256 = res.Service.MakespanCycles, h.events, h.hex()
	if switching {
		b, _ := json.Marshal(res) // plain fields only: cannot fail
		sum := sha256.Sum256(b)
		oc.ResultSHA = hex.EncodeToString(sum[:])
	}
	return oc
}

// captureFigure runs one figure's mini-sweep point by point, in the same
// deterministic order as FigureSpec.RunParallel, hashing each point's
// event stream.
func captureFigure(id string) FigureCapture {
	spec := miniSpec(id)
	fc := FigureCapture{ID: id}
	var results []harness.Result
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				h := newStreamHash()
				ctx := harness.PointCtx{Observe: func(m *machine.Machine) { m.SetTracer(h) }}
				r := spec.Point(ctx, s, n, w, miniScale)
				r.Figure, r.Scheme, r.Threads, r.WritePct = spec.ID, s, n, w
				results = append(results, r)
				fc.Points = append(fc.Points, PointCapture{
					Scheme: s, Threads: n, WritePct: w,
					Cycles: r.Cycles, Ops: r.B.Ops,
					Events: h.events, StreamHash: h.hex(),
				})
			}
		}
	}
	var buf bytes.Buffer
	harness.Print(&buf, spec, results)
	fc.Print = buf.String()
	return fc
}

// captureExplore runs one clean exploration with the trace hook installed,
// folding every execution's events into a single fingerprint.
func captureExplore(scheme, prog string) ExploreCapture {
	h := newStreamHash()
	check.TraceHook = func() machine.Tracer { return h }
	defer func() { check.TraceHook = nil }()

	rep := check.Explore(check.Config{Scheme: scheme, Program: prog, MaxExecutions: exploreBudget})
	ec := ExploreCapture{
		Scheme: scheme, Program: prog,
		Executions: rep.Executions, Points: rep.Points,
		Truncated: rep.Truncated, Exhausted: rep.Exhausted,
		StreamHash: h.hex(),
	}
	if rep.Violation != nil {
		// Clean schemes must stay clean; fold the evidence into the capture
		// so the diff surfaces it instead of silently hashing it.
		ec.StreamHash = "VIOLATION:" + rep.Violation.Desc
	}
	return ec
}

// captureMutation explores a seeded mutation until the checker finds the
// violation, then replays its token under the trace hook.
func captureMutation(scheme, mutation string) MutationCapture {
	rep := check.Explore(check.Config{Scheme: scheme, Mutation: mutation})
	mc := MutationCapture{Scheme: scheme, Mutation: mutation}
	if rep.Violation == nil {
		mc.Desc = "MUTATION NOT DETECTED"
		return mc
	}
	mc.Desc = rep.Violation.Desc
	mc.Token = rep.Violation.Token

	h := newStreamHash()
	check.TraceHook = func() machine.Tracer { return h }
	defer func() { check.TraceHook = nil }()
	if _, err := check.Replay(mc.Token); err != nil {
		mc.ReplayStreamHash = "REPLAY ERROR: " + err.Error()
		return mc
	}
	mc.ReplayStreamHash = h.hex()
	return mc
}
