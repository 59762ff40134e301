package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
)

// TestHistogramBucketing drives the fixed-bucket histogram through
// boundary, interior, and overflow observations.
func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		name       string
		bounds     []float64
		observe    []float64
		wantCounts []uint64 // per-bucket, +Inf last
		wantSum    float64
	}{
		{
			name:       "empty",
			bounds:     []float64{1, 10},
			wantCounts: []uint64{0, 0, 0},
		},
		{
			name:       "interior values",
			bounds:     []float64{1, 10, 100},
			observe:    []float64{0.5, 5, 50},
			wantCounts: []uint64{1, 1, 1, 0},
			wantSum:    55.5,
		},
		{
			name:       "boundary values land in their own bucket",
			bounds:     []float64{1, 10, 100},
			observe:    []float64{1, 10, 100},
			wantCounts: []uint64{1, 1, 1, 0},
			wantSum:    111,
		},
		{
			name:       "overflow goes to +Inf",
			bounds:     []float64{1, 10},
			observe:    []float64{11, 1e9},
			wantCounts: []uint64{0, 0, 2},
			wantSum:    11 + 1e9,
		},
		{
			name:       "repeat observations accumulate",
			bounds:     []float64{2},
			observe:    []float64{1, 1, 1, 3},
			wantCounts: []uint64{3, 1},
			wantSum:    6,
		},
		{
			name:       "zero and negative fall in first bucket",
			bounds:     []float64{1, 10},
			observe:    []float64{0, -5},
			wantCounts: []uint64{2, 0, 0},
			wantSum:    -5,
		},
		{
			name:       "no finite buckets",
			bounds:     nil,
			observe:    []float64{1, 2},
			wantCounts: []uint64{2},
			wantSum:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("h", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			_, counts := h.Buckets()
			if len(counts) != len(tc.wantCounts) {
				t.Fatalf("bucket count = %d, want %d", len(counts), len(tc.wantCounts))
			}
			for i := range counts {
				if counts[i] != tc.wantCounts[i] {
					t.Errorf("bucket[%d] = %d, want %d", i, counts[i], tc.wantCounts[i])
				}
			}
			if h.Sum() != tc.wantSum {
				t.Errorf("Sum = %v, want %v", h.Sum(), tc.wantSum)
			}
			if h.Count() != uint64(len(tc.observe)) {
				t.Errorf("Count = %d, want %d", h.Count(), len(tc.observe))
			}
		})
	}
}

// populate applies a fixed set of metric updates. Creation order is
// deliberately shuffled between call sites via the shuffled flag to
// prove the dump does not depend on it.
func populate(reg *Registry, shuffled bool) {
	if shuffled {
		reg.Gauge("fleet_vms").Set(4)
		reg.Counter("crimes_epochs_total", "vm", "vm1").Add(7)
		reg.Counter("crimes_epochs_total", "vm", "vm0").Add(3)
	} else {
		reg.Counter("crimes_epochs_total", "vm", "vm0").Add(3)
		reg.Counter("crimes_epochs_total", "vm", "vm1").Add(7)
		reg.Gauge("fleet_vms").Set(4)
	}
	h := reg.Histogram("pause_ns", []float64{1000, 1000000}, "vm", "vm0")
	h.Observe(500)
	h.Observe(2500)
	h.Observe(5e8)
	// Labels given in different key orders must normalize identically.
	reg.Counter("hits_total", "b", "2", "a", "1").Inc()
	reg.Counter("hits_total", "a", "1", "b", "2").Inc()
}

func TestDumpDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	populate(a, false)
	populate(b, true)
	da, db := a.DumpString(), b.DumpString()
	if da != db {
		t.Fatalf("dumps differ:\n--- ordered ---\n%s\n--- shuffled ---\n%s", da, db)
	}
	want := `# TYPE crimes_epochs_total counter
crimes_epochs_total{vm="vm0"} 3
crimes_epochs_total{vm="vm1"} 7
# TYPE fleet_vms gauge
fleet_vms 4
# TYPE hits_total counter
hits_total{a="1",b="2"} 2
# TYPE pause_ns histogram
pause_ns_bucket{vm="vm0",le="1000"} 1
pause_ns_bucket{vm="vm0",le="1000000"} 2
pause_ns_bucket{vm="vm0",le="+Inf"} 3
pause_ns_sum{vm="vm0"} 500003000
pause_ns_count{vm="vm0"} 3
`
	if da != want {
		t.Fatalf("dump mismatch:\n--- got ---\n%s\n--- want ---\n%s", da, want)
	}
	// Dumping again yields identical bytes.
	if again := a.DumpString(); again != da {
		t.Fatalf("repeat dump differs:\n%s\nvs\n%s", again, da)
	}
}

// TestDumpDeterministicUnderConcurrency updates the same series from
// many goroutines; the final dump must equal the serial result.
func TestDumpDeterministicUnderConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				reg.Counter("ops_total", "vm", "vm0").Inc()
				reg.Histogram("lat_ns", []float64{10, 100}, "vm", "vm0").Observe(50)
				reg.Gauge("depth").Set(2)
			}
		}()
	}
	wg.Wait()

	serial := NewRegistry()
	for i := 0; i < 800; i++ {
		serial.Counter("ops_total", "vm", "vm0").Inc()
		serial.Histogram("lat_ns", []float64{10, 100}, "vm", "vm0").Observe(50)
	}
	serial.Gauge("depth").Set(2)
	if got, want := reg.DumpString(), serial.DumpString(); got != want {
		t.Fatalf("concurrent dump != serial dump:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering counter name as gauge")
		}
	}()
	reg.Gauge("x")
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	tr.Emit(Event{VM: "vm0", Epoch: 1, Phase: PhaseRun, DurNs: 100})
	tr.Emit(Event{VM: "vm0", Epoch: 1, Phase: PhasePause, Pages: 12})
	tr.Emit(Event{VM: "vm0", Epoch: 1, Phase: PhaseCommit,
		Hypercalls: &cost.Hypercalls{DirtyRead: 1, Translate: 4}})
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	if events[2].Hypercalls == nil || events[2].Hypercalls.Translate != 4 {
		t.Errorf("hypercall delta not preserved: %+v", events[2].Hypercalls)
	}
	if events[2].Hypercalls.Total() != 5 {
		t.Errorf("Total = %d, want 5", events[2].Hypercalls.Total())
	}
}

// TestNilSafety exercises every nil receiver the instrumented layers
// rely on being inert.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Emit(Event{Phase: PhaseRun})
	if o.Enabled() {
		t.Error("nil observer reports enabled")
	}
	var tr *Tracer
	tr.Emit(Event{})
	var reg *Registry
	reg.Counter("c", "vm", "x").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", []float64{1}).Observe(1)
	if err := reg.Dump(&strings.Builder{}); err != nil {
		t.Errorf("nil registry dump: %v", err)
	}
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated")
	}
	bounds, counts := h.Buckets()
	if bounds != nil || counts != nil {
		t.Error("nil histogram buckets")
	}
	// Observer with only one half set.
	half := &Observer{Metrics: NewRegistry()}
	half.Emit(Event{Phase: PhaseRun}) // no tracer: dropped
	if !half.Enabled() {
		t.Error("metrics-only observer not enabled")
	}
	half.Registry().Counter("ok").Inc()
	if got := half.Registry().Counter("ok").Value(); got != 1 {
		t.Errorf("counter = %d, want 1", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e3, 10, 4)
	want := []float64{1e3, 1e4, 1e5, 1e6}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(DurationBuckets()); n != 8 {
		t.Errorf("DurationBuckets len = %d, want 8", n)
	}
	if n := len(PageBuckets()); n != 6 {
		t.Errorf("PageBuckets len = %d, want 6", n)
	}
}
