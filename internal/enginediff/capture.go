// Package enginediff is the one equivalence pin: every byte-identity claim
// about the simulator rests on its committed capture
// (testdata/engine_golden.json). It runs a mini version of every figure
// sweep, the internal/check DFS and random-walk explorations, and a set of
// open-system points, and records:
//
//   - the complete trace-event stream of every measurement point and every
//     explored schedule, fingerprinted event by event (time, CPU, kind,
//     address, aux — any reordering or value drift changes the hash);
//   - the formatted figure tables (Print bytes);
//   - the checker's reports and violation replay tokens, including the two
//     seeded mutations that must keep producing the identical token;
//   - every serve workload's schemes at their knee load, a 256-CPU adaptive
//     shard point and a 64-CPU one that switches schemes live, each by
//     sha256s of its event stream and result JSON and by its engine
//     counters;
//   - the obs exports: fig5's RunMetrics JSON, and one serve knee point's
//     ProfileReport JSON and Chrome trace.
//
// The figure, checker and mutation captures date from the engine before
// the coroutine scheduler loop; no engine since has moved them. Event
// streams of open-system points and engine counters move with engine work
// that changes no result; such a move is regenerated in its own declared
// commit, with every cycles and result sha256 unchanged. Regenerate with
// `go test ./internal/enginediff -update` only then, or for an intended
// simulation-semantics change, and review the diff.
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
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
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
// makespan, the sha256 fingerprints of its whole event stream and of its
// result JSON, and the engine's work counters.
type OpenCapture struct {
	Point     string                 `json:"point"`
	Cycles    int64                  `json:"cycles"`
	Events    int64                  `json:"events"`
	SHA256    string                 `json:"sha256"`
	ResultSHA string                 `json:"result_sha256,omitempty"`
	Engine    machine.EngineCounters `json:"engine_counters"`
}

// ExportCapture pins one obs export by the sha256 of its bytes.
type ExportCapture struct {
	Export string `json:"export"`
	SHA256 string `json:"sha256"`
}

// Capture is the full golden record.
type Capture struct {
	Figures      []FigureCapture   `json:"figures"`
	Explorations []ExploreCapture  `json:"explorations"`
	Mutations    []MutationCapture `json:"mutations"`
	Open         []OpenCapture     `json:"open_system"`
	Exports      []ExportCapture   `json:"exports"`
}

// The deadlines of the machines the capture builds: a few times the
// largest makespan it records (2,370,254 cycles at a figure point,
// 7,850,214 at an open-system one), so a livelock panics in seconds, not
// at the default 1e14 cycles. A run that ends below its deadline never
// acts on it.
const (
	figureDeadline = 10_000_000
	openDeadline   = 30_000_000
)

// instrument gives a machine the capture builds its deadline and tracer t.
func instrument(m *machine.Machine, deadline int64, t machine.Tracer) {
	m.Cfg.Deadline = deadline
	m.SetTracer(t)
}

// bounded runs fn and returns its error or, as an error, its panic (a
// deadline livelock among them), so a failing point is recorded under its
// name and the capture goes on. An HTM abort signal is not a point's
// failure but an escape from htm.Thread.Try; it is re-raised.
func bounded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if htm.IsAbortSignal(r) {
				panic(r)
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// miniScale is the work multiplier of the capture's figure sweeps, small
// enough for CI.
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
		cap.Figures = append(cap.Figures, captureFigure(miniSpec(id)))
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
	cap.Exports = append(cap.Exports, captureMetrics())
	cap.Exports = append(cap.Exports, captureProfile("hashmap")...)
	return cap
}

// openRequests is the schedule length of the serve captures: long enough
// to reach the knee's queueing and idle behaviour, short enough for CI.
const openRequests = 400

// captureOpen runs one open-system point under openDeadline: run runs it
// with the given observer and returns its service metrics and result.
func captureOpen(point string, run func(observe func(*machine.Machine)) (*obs.ServiceMetrics, any, error)) OpenCapture {
	h := newStreamSHA()
	var m *machine.Machine
	var sm *obs.ServiceMetrics
	var res any
	err := bounded(func() (err error) {
		sm, res, err = run(func(mm *machine.Machine) { m = mm; instrument(m, openDeadline, h) })
		return err
	})
	if err != nil {
		return OpenCapture{Point: point, SHA256: "ERROR: " + err.Error()}
	}
	b, _ := json.Marshal(res) // plain fields only: cannot fail
	return OpenCapture{Point: point, Cycles: sm.MakespanCycles, Events: h.events, SHA256: h.hex(),
		ResultSHA: sha256Hex(b), Engine: m.EngineCounters()}
}

// kneeConfig is workload's calibrated serve knee point on the capture's
// short schedule.
func kneeConfig(workload string) (harness.ProfSpec, service.Config) {
	spec, err := harness.DefaultProfSpec(workload)
	if err != nil {
		panic(err) // ServeWorkloads and DefaultProfSpec share one list
	}
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.RatePerSec
	cfg.Requests = openRequests
	return spec, cfg
}

// captureServe runs every default scheme of one serve workload at its
// calibrated knee load.
func captureServe(workload string) []OpenCapture {
	spec, cfg := kneeConfig(workload)
	var out []OpenCapture
	for _, scheme := range spec.Schemes {
		out = append(out, captureOpen("serve/"+workload+"/"+scheme, func(observe func(*machine.Machine)) (*obs.ServiceMetrics, any, error) {
			m, _, err := service.RunPoint(cfg, scheme, harness.SchemeFactory(scheme), observe)
			return m, m, err
		}))
	}
	return out
}

// captureShard captures one adaptive shard point. The 256-CPU point makes
// no switch; it is the capture's machine with more than 64 CPUs, so it
// exercises the four-word coherence and conflict bitmaps, and its engine
// counters pin the scheduler work of 256 mostly idle servers. The 64-CPU
// point switches schemes live (twice at seed 1), so it must switch, and
// its result JSON pins its switch trace and per-shard stats.
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
	return captureOpen(fmt.Sprintf("shard%d/%s", servers, harness.ShardAdaptive), func(observe func(*machine.Machine)) (*obs.ServiceMetrics, any, error) {
		res, err := shard.Run(cfg, harness.ShardPalette(), observe)
		if err == nil && switching && len(res.Switches) == 0 {
			err = fmt.Errorf("no scheme switch")
		}
		if err != nil {
			return nil, nil, err
		}
		return res.Service, res, nil
	})
}

// export pins export name by the sha256 of b, or records err.
func export(name string, b []byte, err error) ExportCapture {
	if err != nil {
		return ExportCapture{name, "ERROR: " + err.Error()}
	}
	return ExportCapture{name, sha256Hex(b)}
}

// metricsSpec is the fig5 sweep whose RunMetrics JSON the capture pins:
// the 10%-write points the mini-sweep's extreme write ratios leave out,
// which the harness's zero-cost guard tests sweep too.
func metricsSpec() *harness.FigureSpec {
	spec := *harness.Registry()["fig5"]
	spec.Threads, spec.WritePcts = []int{2, 4}, []int{10}
	spec.Schemes = []string{"RW-LE_OPT", "RW-LE_PES", "SGL"}
	return &spec
}

// captureMetrics pins metricsSpec's RunMetrics JSON, its machines under
// figureDeadline.
func captureMetrics() ExportCapture {
	spec := metricsSpec()
	point := spec.Point
	spec.Point = func(ctx harness.PointCtx, scheme string, threads, writePct int, scale float64) harness.Result {
		ctx.Observe = func(m *machine.Machine) { m.Cfg.Deadline = figureDeadline }
		return point(ctx, scheme, threads, writePct, scale)
	}
	var b []byte
	err := bounded(func() (err error) {
		results := harness.RunClosed(spec, miniScale, harness.Attach{Metrics: true}, 1, nil)
		b, err = json.Marshal(spec.RunMetrics(results))
		return err
	})
	return export("metrics/"+spec.ID, b, err)
}

// captureProfile pins two exports of the first default scheme at
// workload's serve knee: its ProfileReport JSON, built as hrwle-serve
// -prof builds it, and the Chrome trace of its event stream.
func captureProfile(workload string) []ExportCapture {
	spec, cfg := kneeConfig(workload)
	scheme := spec.Schemes[0]
	var profJSON []byte
	var chrome bytes.Buffer
	err := bounded(func() error {
		m, _, o, err := service.RunPointObserved(cfg, scheme, harness.SchemeFactory(scheme),
			func(m *machine.Machine) { m.Cfg.Deadline = openDeadline },
			harness.Attach{Prof: true, Log: true, Window: harness.DefaultProfWindow})
		if err != nil {
			return err
		}
		rep := o.Profile.Report(scheme, cfg.Workload)
		rep.Service = m
		if profJSON, err = json.Marshal(rep); err != nil {
			return err
		}
		return obs.WriteChromeTrace(&chrome, o.Log.Events)
	})
	name := workload + "/" + scheme
	return []ExportCapture{export("profile/"+name, profJSON, err), export("chrome/"+name, chrome.Bytes(), err)}
}

// captureFigure runs one figure sweep point by point, in the same
// deterministic order as harness.RunClosed and under figureDeadline,
// hashing each point's event stream.
func captureFigure(spec *harness.FigureSpec) FigureCapture {
	fc := FigureCapture{ID: spec.ID}
	var results []harness.Result
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				h := newStreamHash()
				ctx := harness.PointCtx{Observe: func(m *machine.Machine) { instrument(m, figureDeadline, h) }}
				var r harness.Result
				err := bounded(func() error {
					r = spec.Point(ctx, s, n, w, miniScale)
					return nil
				})
				r.Figure, r.Scheme, r.Threads, r.WritePct = spec.ID, s, n, w
				results = append(results, r)
				pc := PointCapture{
					Scheme: s, Threads: n, WritePct: w,
					Cycles: r.Cycles, Ops: r.B.Ops,
					Events: h.events, StreamHash: h.hex(),
				}
				if err != nil {
					pc.StreamHash = "ERROR: " + err.Error()
				}
				fc.Points = append(fc.Points, pc)
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
