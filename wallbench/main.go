// Command wallbench is the wall-clock benchmark of the CRIMES protected
// epoch. It drives the real system through the public crimes, core and
// fleet API in one process with one closed-loop driver goroutine: each
// RunEpoch call is made only after the previous one returns, and
// several VMs take their epochs in turn. Guest inputs are generated
// from --seed.
//
// With --trace 0 it measures the end-to-end metrics an operator
// protecting VMs pays, with no tracing. With --trace 1 it runs the same
// workload once untraced and once traced, and reports the per-layer
// metrics from spans recorded around every call into a layer, the
// priced-vs-measured ledger and the tracing overhead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with
//
//	bash wallbench/run.sh --workload audit --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hv"
)

const (
	// warmupEpochs run on every VM before timing, so that the guest is
	// populated, the mapping caches are warm and lazy set-up is done.
	warmupEpochs = 4
	// setupReps is how many times the steady workloads set up per run;
	// setup_s is the median.
	setupReps = 9
	// incidentWarmupOps is the incident workload's set-up: operations
	// run before timing.
	incidentWarmupOps = 3
	// countPrefix bounds the per-epoch count series kept per VM for the
	// exact-count self-check.
	countPrefix = 512
	// digestEpochs is the fixed prefix whose count digest every run
	// prints, so runs of any length with one seed can be compared.
	digestEpochs = 128
)

func main() {
	var (
		name    = flag.String("workload", "audit", "workload: audit, replicate, fleet or incident")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		spans   = flag.String("spans", "", "file for the traced run's spans as JSONL (default .bench_build/spans-WORKLOAD.jsonl)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, seconds: *seconds}
	printEnv(w)
	var metrics map[string]metric
	if *trace == 1 {
		if *spans == "" {
			*spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		}
		metrics, err = r.traced(*spans)
	} else {
		metrics, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printEnv(w *workloadSpec) {
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d GOARCH=%s go=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOARCH, runtime.Version())
	fmt.Printf("workload %s: %s\n  why: %s\n", w.name, w.params, w.why)
}

// run is one benchmark invocation: the workload, its seed, and the
// operations attempted and failed so far.
type run struct {
	w       *workloadSpec
	seed    int64
	seconds float64
	workers int // the pause-path parallelism the controllers resolved

	attempted int
	failed    int
}

// check counts one operation and, when err is set, one failure. Only
// the driver goroutine calls it.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "wallbench: check failed: %v\n", err)
		}
	}
}

// vmSamples is what the driver records of one VM while timed.
type vmSamples struct {
	durs     []int64 // ns of each RunEpoch call
	pauses   []int64 // ns the guest was held at each clean boundary
	cycles   []int64 // ns between consecutive work-closure calls
	lastWork time.Time
	counts   []countRow // first countPrefix epochs, for the self-check
	sum      countRow
	// remoteEpochs counts epochs the program attributed remote wire
	// traffic to.
	remoteEpochs int
	clean        []cleanEpoch // traced runs only
	clones       []int64      // traced runs only: CloneState probe, ns
	probeNs      int64        // traced runs only: time spent in probes
}

// cleanEpoch keeps the program's own figures of one traced epoch.
type cleanEpoch struct {
	id     int64 // epoch span
	phases cost.Phases
}

// pass is one timed window over a set of VMs.
type pass struct {
	traces []*vmTrace // traced passes only
	vm     []vmSamples
	// marks are the start of the pass and the end of each of its
	// rounds. A round is one epoch of every VM, or one incident
	// operation, and holds roundEpochs epochs. probes[i] is the probe
	// time spent before marks[i].
	marks       []time.Time
	probes      []time.Duration
	roundEpochs int
	allocB      uint64 // heap bytes allocated per operation
	cpuNs       int64  // process CPU time per operation
	// incident workload only
	incidents []int64 // attacked epochs, ns
	launches  []int64 // ns
	postmort  []int64 // traced
	incEpochs []int64 // traced: incident epoch span IDs
}

// mark records the end of a round, or the start of the pass.
func (p *pass) mark() {
	var probe int64
	for _, s := range p.vm {
		probe += s.probeNs
	}
	p.marks = append(p.marks, time.Now())
	p.probes = append(p.probes, time.Duration(probe))
}

// rate returns the pass's epochs per second, the epochs of a round
// over the median round's duration with probe time taken out, and the
// number of rounds. A median over rounds leaves out the rounds in which
// the host held the CPU back, which the epochs of the whole pass over
// its length would count.
func (p *pass) rate() (float64, int) {
	var ds []float64
	for i := 1; i < len(p.marks); i++ {
		ds = append(ds, (p.marks[i].Sub(p.marks[i-1]) - (p.probes[i] - p.probes[i-1])).Seconds())
	}
	if len(ds) == 0 {
		return 0, 0
	}
	return float64(p.roundEpochs) / median(ds), len(ds)
}

// durations returns the pass's pause and cycle samples over all VMs,
// in microseconds.
func (p *pass) durations() (pauses, cycles []float64) {
	for _, s := range p.vm {
		for _, d := range s.pauses {
			pauses = append(pauses, float64(d)/1e3)
		}
		for _, d := range s.cycles {
			cycles = append(cycles, float64(d)/1e3)
		}
	}
	return pauses, cycles
}

// setup launches the workload's VMs and runs the warm-up epochs.
func (r *run) setup(traces []*vmTrace) ([]*machine, error) {
	var ms []*machine
	if r.w.vms > 1 {
		var err error
		if ms, err = launchFleet(r.w, r.seed, traces); err != nil {
			return nil, err
		}
	} else {
		m, err := launchOne(r.w, r.seed, r.w.newGuest(r.seed, 0), traces[0])
		if err != nil {
			return nil, err
		}
		ms = []*machine{m}
	}
	r.workers = ms[0].ctl.Checkpointer().Workers()
	for _, m := range ms {
		for e := 0; e < warmupEpochs; e++ {
			er, err := m.runEpoch()
			r.check(checkClean(er.res, err))
			if err != nil {
				closeAll(ms)
				return nil, err
			}
		}
	}
	return ms, nil
}

// timeSteady drives the VMs from one closed-loop goroutine until the
// deadline, one epoch of each VM per round: each RunEpoch call is made
// only after the previous one returns, and every VM runs as many
// epochs as every other.
func (r *run) timeSteady(ms []*machine, seconds float64, probe bool) *pass {
	p := &pass{vm: make([]vmSamples, len(ms)), roundEpochs: len(ms)}
	if ms[0].trace != nil {
		for _, m := range ms {
			p.traces = append(p.traces, m.trace)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	p.mark()
	deadline := p.marks[0].Add(time.Duration(seconds * float64(time.Second)))
	total := 0
rounds:
	for time.Now().Before(deadline) {
		for i, m := range ms {
			s := &p.vm[i]
			er, err := m.runEpoch()
			r.check(checkClean(er.res, err))
			if err != nil {
				break rounds
			}
			total++
			s.durs = append(s.durs, int64(er.end.Sub(er.start)))
			s.pauses = append(s.pauses, int64(er.held))
			if !s.lastWork.IsZero() {
				s.cycles = append(s.cycles, int64(er.work.Sub(s.lastWork)))
			}
			s.lastWork = er.work
			s.sum.add(er.counts)
			if er.counts.Remote.Batches > 0 {
				s.remoteEpochs++
			}
			if len(s.counts) < countPrefix {
				s.counts = append(s.counts, er.counts)
			}
			if m.trace != nil {
				s.clean = append(s.clean, cleanEpoch{id: er.id, phases: er.res.Phases})
				if probe && len(s.durs)%8 == 1 {
					t0 := time.Now()
					_ = m.guest.CloneState()
					t1 := time.Now()
					m.trace.record(0, 0, spanClone, t0, t1)
					s.clones = append(s.clones, int64(t1.Sub(t0)))
					s.probeNs += int64(t1.Sub(t0))
				}
			}
		}
		p.mark()
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if total > 0 {
		p.allocB = (after.TotalAlloc - before.TotalAlloc) / uint64(total)
		p.cpuNs = int64(cpu) / int64(total)
	}
	return p
}

// incidentOp launches a fresh VM, runs one clean epoch and one attacked
// epoch, checks both, closes the VM, and records the operation in p
// when p is set.
func (r *run) incidentOp(op int, tr *vmTrace, p *pass) error {
	in := &incidentGuest{seed: r.seed, op: op}
	m, err := launchOne(r.w, r.seed+int64(op), in, tr)
	if err != nil {
		return err
	}
	defer func() { _ = m.ctl.Close() }()
	r.workers = m.ctl.Checkpointer().Workers()
	clean, err := m.runEpoch()
	r.check(checkClean(clean.res, err))
	if err != nil {
		return err
	}
	attack, err := m.runEpoch()
	r.check(checkIncident(attack.res, err, in))
	if err != nil || attack.res.Incident == nil {
		return err
	}
	if p == nil {
		return nil
	}
	p.incidents = append(p.incidents, int64(attack.end.Sub(attack.start)))
	p.launches = append(p.launches, int64(m.launch))
	s := &p.vm[0]
	s.durs = append(s.durs, int64(clean.end.Sub(clean.start)), int64(attack.end.Sub(attack.start)))
	s.cycles = append(s.cycles, int64(attack.work.Sub(clean.work)))
	for _, c := range []countRow{clean.counts, attack.counts} {
		s.sum.add(c)
		if len(s.counts) < countPrefix {
			s.counts = append(s.counts, c)
		}
	}
	// Pause samples are clean epochs only: the attacked epoch holds the
	// guest for the whole incident response, timed as incident_ms.
	s.pauses = append(s.pauses, int64(clean.held))
	if tr != nil {
		s.clean = append(s.clean, cleanEpoch{id: clean.id, phases: clean.res.Phases})
		inc := attack.res.Incident
		t0 := time.Now()
		_, perr := analyze.Postmortem(inc.Dumps, inc.Findings, inc.Pinpoint)
		t1 := time.Now()
		r.check(perr)
		tr.record(0, 0, spanPostmortem, t0, t1)
		p.postmort = append(p.postmort, int64(t1.Sub(t0)))
		p.incEpochs = append(p.incEpochs, attack.id)
		s.probeNs += int64(t1.Sub(t0))
	}
	return nil
}

// timeIncidents repeats incident operations until the deadline.
func (r *run) timeIncidents(seconds float64, tr *vmTrace) *pass {
	p := &pass{vm: make([]vmSamples, 1), roundEpochs: 2}
	if tr != nil {
		p.traces = []*vmTrace{tr}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	p.mark()
	deadline := p.marks[0].Add(time.Duration(seconds * float64(time.Second)))
	ops := 0
	for op := 0; time.Now().Before(deadline); op++ {
		if err := r.incidentOp(op, tr, p); err != nil {
			break
		}
		ops++
		p.mark()
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if ops > 0 {
		p.allocB = (after.TotalAlloc - before.TotalAlloc) / uint64(ops)
		p.cpuNs = int64(cpu) / int64(ops)
	}
	return p
}

// endToEnd measures the end-to-end metrics with no tracing.
func (r *run) endToEnd() (map[string]metric, error) {
	var setups []float64
	var p *pass
	var ms []*machine
	if r.w.incident {
		for rep := 0; rep < setupReps; rep++ {
			runtime.GC()
			t0 := time.Now()
			for op := 0; op < incidentWarmupOps; op++ {
				if err := r.incidentOp(-1-op-rep*incidentWarmupOps, nil, nil); err != nil {
					return nil, err
				}
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		p = r.timeIncidents(r.seconds, nil)
	} else {
		for rep := 0; rep < setupReps; rep++ {
			runtime.GC()
			t0 := time.Now()
			var err error
			if ms, err = r.setup(make([]*vmTrace, r.w.vms)); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if rep < setupReps-1 {
				closeAll(ms)
			}
		}
		p = r.timeSteady(ms, r.seconds, false)
	}
	out, counts, notes := r.e2eMetrics(p, setups)
	// The live heap is read once the pass's samples are dropped, so that
	// it holds the protected VMs and not the benchmark's own records,
	// which grow with the number of epochs run.
	p = nil
	heap, err := r.liveHeap(ms)
	if ms != nil {
		r.finishSteady(ms)
	}
	if err != nil {
		return nil, err
	}
	out["heap_mb"] = metric{heap, "MB"}
	fmt.Printf("end-to-end (%s, seed %d, %.0fs, resolved Workers=%d):\n", r.w.name, r.seed, r.seconds, r.workers)
	printMetrics(out, counts)
	fmt.Print(notes)
	return out, nil
}

// liveHeap returns the live heap in MB after a forced collection, with
// the workload's VMs open: ms, or on incident one freshly launched VM.
func (r *run) liveHeap(ms []*machine) (float64, error) {
	if ms == nil {
		m, err := launchOne(r.w, r.seed, nil, nil)
		if err != nil {
			return 0, err
		}
		defer func() { _ = m.ctl.Close() }()
	}
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20), nil
}

// finishSteady runs the end-of-run checks and closes the VMs.
func (r *run) finishSteady(ms []*machine) {
	for _, m := range ms {
		if m.ctl.Halted() {
			r.check(fmt.Errorf("vm%d halted", m.idx))
		} else {
			r.check(nil)
		}
		if m.peer != nil {
			r.check(checkReplica(m))
		}
	}
	closeAll(ms)
}

// e2eMetrics returns the end-to-end metrics of the pass but heap_mb,
// the sample count behind each, and the report lines that follow them.
func (r *run) e2eMetrics(p *pass, setups []float64) (map[string]metric, map[string]int, string) {
	pauses, cycles := p.durations()
	eps, rounds := p.rate()
	out := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"epochs_per_s":    {eps, "1/s"},
		"pause_us_p50":    {pct(pauses, 50), "us"},
		"cycle_us_p50":    {pct(cycles, 50), "us"},
		"cpu_us_per_op":   {float64(p.cpuNs) / 1e3, "us"},
		"alloc_kb_per_op": {float64(p.allocB) / 1024, "KB"},
	}
	counts := map[string]int{"setup_s": len(setups), "pause_us_p50": len(pauses), "cycle_us_p50": len(cycles),
		"epochs_per_s": rounds}
	var notes strings.Builder
	// Tails are reported here and as per-layer metrics, not on the JSON
	// line: on a shared host they move with CPU steal by more than any
	// bound a regression gate could use.
	fmt.Fprintf(&notes, "  pause_us p90 %.4f p99 %.4f, cycle_us p90 %.4f p99 %.4f\n",
		pct(pauses, 90), pct(pauses, 99), pct(cycles, 90), pct(cycles, 99))
	if len(p.incidents) > 0 {
		// Reported here only: a metric of the JSON line must exist on
		// every workload. The traced run carries them as per-layer metrics.
		var inc, launch []float64
		for i := range p.incidents {
			inc = append(inc, float64(p.incidents[i])/1e6)
			launch = append(launch, float64(p.launches[i])/1e6)
		}
		fmt.Fprintf(&notes, "  incident_ms p50 %.4f p90 %.4f, launch_ms p50 %.4f (n=%d)\n",
			pct(inc, 50), pct(inc, 90), pct(launch, 50), len(inc))
	}
	// A digest of each VM's per-epoch count series, so two runs with the
	// same seed can be compared by eye.
	for i, s := range p.vm {
		rows := s.counts[:min(len(s.counts), digestEpochs)]
		fmt.Fprintf(&notes, "  counts vm%d: first %d epochs digest %016x\n", i, len(rows), digest(rows))
	}
	return out, counts, notes.String()
}

func printMetrics(ms map[string]metric, n map[string]int) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if c, ok := n[k]; ok {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", k, ms[k].Value, ms[k].Unit, c)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
}

// traced runs the workload untraced and then traced, compares their
// per-epoch count series, and reports the per-layer metrics.
func (r *run) traced(spansPath string) (map[string]metric, error) {
	half := r.seconds / 2
	var plain, traced *pass
	origin := time.Now()
	if r.w.incident {
		plain = r.timeIncidents(half, nil)
		traced = r.timeIncidents(half, &vmTrace{origin: origin})
	} else {
		ms, err := r.setup(make([]*vmTrace, r.w.vms))
		if err != nil {
			return nil, err
		}
		plain = r.timeSteady(ms, half, false)
		r.finishSteady(ms)
		traces := make([]*vmTrace, r.w.vms)
		for i := range traces {
			traces[i] = &vmTrace{origin: origin, vm: i}
		}
		if ms, err = r.setup(traces); err != nil {
			return nil, err
		}
		traced = r.timeSteady(ms, half, true)
		r.finishSteady(ms)
	}
	r.check(selfCheck(plain, traced))
	if err := writeSpans(spansPath, traced); err != nil {
		return nil, err
	}
	return r.layerMetrics(plain, traced), nil
}

// selfCheck compares the per-epoch count series of two passes with the
// same seed over their common prefix.
func selfCheck(a, b *pass) error {
	compared := 0
	for i := range a.vm {
		ca, cb := a.vm[i].counts, b.vm[i].counts
		n := min(len(ca), len(cb))
		for e := 0; e < n; e++ {
			if ca[e].exact() != cb[e].exact() {
				return fmt.Errorf("count self-check: vm%d epoch %d differs between two runs with one seed:\n  %+v\n  %+v",
					i, e+1, ca[e], cb[e])
			}
		}
		compared += n
	}
	fmt.Printf("count self-check: %d epochs identical across two runs with seed\n", compared)
	if compared == 0 {
		return fmt.Errorf("count self-check: no epochs to compare")
	}
	return nil
}

func writeSpans(path string, p *pass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range p.traces {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// countRow is one epoch's operation counts. Every field but Remote
// must repeat exactly for a fixed seed. Local is the v2 wire traffic of
// the commit to the local backup, which ships inside the commit. Remote
// is the traffic the program attributes to the epoch on the pipelined
// remote replica: a shipment is counted by whichever commit its Send
// overlaps, so it depends on goroutine scheduling and stays out of the
// comparison.
type countRow struct {
	Dirty, Nodes, Canaries, RemotePages int
	HC                                  hv.Hypercalls
	Local, Remote                       cost.ReplicationCounts
}

func countsOf(res *core.EpochResult, hc hv.Hypercalls) countRow {
	return countRow{Dirty: res.Counts.DirtyPages, Nodes: res.Counts.VMINodes, Canaries: res.Counts.Canaries,
		RemotePages: res.Counts.RemotePages, HC: hc, Local: res.Counts.LocalRepl, Remote: res.Counts.RemoteRepl}
}

func (c *countRow) add(o countRow) {
	c.Dirty += o.Dirty
	c.Nodes += o.Nodes
	c.Canaries += o.Canaries
	c.RemotePages += o.RemotePages
	c.HC.Add(o.HC)
	c.Local.Add(o.Local)
	c.Remote.Add(o.Remote)
}

// exact is the part of the row the self-check compares.
func (c countRow) exact() countRow {
	c.Remote = cost.ReplicationCounts{}
	return c
}

func digest(rows []countRow) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range rows {
		for _, b := range []byte(fmt.Sprintf("%v", r.exact())) {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

func median(v []float64) float64 { return pct(v, 50) }

// pct returns the nearest-rank p-th percentile.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuTime is the CPU time the process has used, user and system, on
// every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
