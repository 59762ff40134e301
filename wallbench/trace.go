package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
)

// span is one timed interval at a boundary the benchmark owns, or one
// of the program's own commit timings folded in as a child. Times are
// nanoseconds since the run's clock origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	VM     int    `json:"vm"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. Leaves are the spans whose union is subtracted from an
// epoch to get its self time.
const (
	spanLaunch     = "crimes.launch"
	spanEpoch      = "core.epoch"
	spanWork       = "guestos.work"
	spanGateWait   = "gate.wait"
	spanPause      = "core.pause"
	spanScan       = "mem.bitmap_scan"
	spanUndo       = "checkpoint.undo"
	spanMemcopy    = "checkpoint.memcopy"
	spanDiskcopy   = "checkpoint.diskcopy"
	spanRemote     = "checkpoint.remote_enqueue"
	spanClone      = "guestos.clone_state"
	spanPostmortem = "volatility.postmortem"
	detectPrefix   = "detect."
)

// vmTrace keeps one VM's spans in memory. The VM's client goroutine and
// its concurrently scanning detector modules both append, so every
// access holds mu. A nil *vmTrace records nothing: untraced runs pay
// one nil check per boundary.
type vmTrace struct {
	mu     sync.Mutex
	origin time.Time
	vm     int
	seq    int64
	spans  []span
	epoch  int64 // open epoch span, parent of work/gate/pause
	pause  int64 // open pause span, parent of modules and commit phases
}

// reserve allocates a span ID before the span's end is known, so
// children recorded while it is open can name it as parent.
func (t *vmTrace) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return int64(t.vm+1)<<40 | t.seq
}

func (t *vmTrace) record(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	if id == 0 {
		t.seq++
		id = int64(t.vm+1)<<40 | t.seq
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, VM: t.vm, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	t.mu.Unlock()
}

func (t *vmTrace) openEpoch() int64 {
	id := t.reserve()
	t.mu.Lock()
	t.epoch = id
	t.mu.Unlock()
	return id
}

func (t *vmTrace) openPause() int64 {
	id := t.reserve()
	t.mu.Lock()
	t.pause = id
	t.mu.Unlock()
	return id
}

func (t *vmTrace) parents() (epoch, pause int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch, t.pause
}

// timingGate is the benchmark's core.Gate. Acquire runs just before the
// controller pauses the domain and Release when RunEpoch returns, so the
// interval between them is the time the guest is held at the epoch
// boundary. On a fleet it wraps the host's shared gate, and the time
// spent inside the inner Acquire is the wait for a pause slot.
type timingGate struct {
	inner    core.Gate // nil for a VM alone on its host
	trace    *vmTrace
	acquired time.Time
	pauseID  int64
	held     time.Duration // the last epoch's
}

func (g *timingGate) Acquire() {
	start := time.Now()
	if g.inner != nil {
		g.inner.Acquire()
	}
	g.acquired = time.Now()
	if g.trace != nil {
		epoch, _ := g.trace.parents()
		g.trace.record(0, epoch, spanGateWait, start, g.acquired)
		g.pauseID = g.trace.openPause()
	}
}

func (g *timingGate) Release() {
	end := time.Now()
	g.held = end.Sub(g.acquired)
	if g.trace != nil {
		epoch, _ := g.trace.parents()
		g.trace.record(g.pauseID, epoch, spanPause, g.acquired, end)
	}
	if g.inner != nil {
		g.inner.Release()
	}
}

// timedModule decorates a detector module with a span per scan. The
// detector runs modules concurrently, so the decorator only touches its
// VM's trace under that trace's lock; each VM gets its own decorators,
// which attributes every call to the VM that made it.
type timedModule struct {
	detect.Module
	trace *vmTrace
}

func (m timedModule) Scan(ctx *detect.ScanContext) ([]detect.Finding, error) {
	start := time.Now()
	fs, err := m.Module.Scan(ctx)
	end := time.Now()
	_, pause := m.trace.parents()
	m.trace.record(0, pause, detectPrefix+m.Name(), start, end)
	return fs, err
}

// decorate wraps every module for a traced VM; untraced VMs keep the
// modules as they are.
func decorate(mods []detect.Module, t *vmTrace) []detect.Module {
	if t == nil {
		return mods
	}
	out := make([]detect.Module, len(mods))
	for i, m := range mods {
		out[i] = timedModule{Module: m, trace: t}
	}
	return out
}

// phaseDur is one measured commit phase.
type phaseDur struct {
	name string
	d    time.Duration
}

// foldCommit adds the checkpointer's measured commit phases as children
// of the pause span. The program reports durations only, so the phases
// are laid end to end from the end of the detect window (the commit
// follows the audit) and clipped to the pause.
func (t *vmTrace) foldCommit(pauseID int64, phases []phaseDur) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var pause *span
	cursor := int64(-1)
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := &t.spans[i]
		if s.ID == pauseID {
			pause = s
		}
		if s.Parent == pauseID && s.End > cursor {
			cursor = s.End
		}
		if pause != nil && s.Start < pause.Start {
			break
		}
	}
	if pause == nil {
		return
	}
	if cursor < pause.Start {
		cursor = pause.Start
	}
	for _, p := range phases {
		if p.d <= 0 {
			continue
		}
		end := cursor + int64(p.d)
		if end > pause.End {
			end = pause.End
		}
		t.seq++
		t.spans = append(t.spans, span{ID: int64(t.vm+1)<<40 | t.seq, Parent: pauseID, VM: t.vm,
			Name: p.name, Start: cursor, End: end})
		cursor = end
	}
}

// covered returns how much of [lo, hi) the given intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64 = 0, lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
