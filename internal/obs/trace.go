// Package obs is the CRIMES observability layer: a structured epoch
// trace (one event per epoch phase, emitted as JSONL through a
// pluggable sink) and a metrics registry (counters, gauges, fixed-
// bucket histograms) with a deterministic Prometheus-format text dump.
//
// The package depends only on the standard library and on the leaf
// package cost, whose counter sets the trace events carry, so every
// layer of the system — hypervisor substrate, checkpointer, replication
// conduit, controller, fleet scheduler — can be instrumented without
// import cycles. cost must therefore stay standard-library-only.
//
// All entry points are nil-safe: a nil *Observer, *Tracer, *Registry,
// or metric handle is an inert no-op, so instrumented code pays a
// single nil check when observability is disabled and the cost-model
// outputs are untouched.
package obs

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/cost"
)

// Phase names one step of the epoch lifecycle. The taxonomy mirrors the
// controller's epoch loop: speculative execution, the pause window, the
// audit, the commit, remote replication, and the recovery/response
// paths (rollback, replay, halt).
type Phase string

// Epoch phases, in the order a clean epoch emits them. A clean epoch is
// [run, pause, scan, commit]; remote replication appends [replicate]; a
// mid-commit failure emits commit (with its error and recovery action)
// followed by [rollback]; an incident emits scan (with findings),
// optionally [rollback, replay] when pinpointing runs, then [halt].
const (
	PhaseRun       Phase = "run"
	PhasePause     Phase = "pause"
	PhaseScan      Phase = "scan"
	PhaseCommit    Phase = "commit"
	PhaseReplicate Phase = "replicate"
	PhaseRollback  Phase = "rollback"
	PhaseReplay    Phase = "replay"
	PhaseHalt      Phase = "halt"
	// Cluster failover phases: a host declared dead by the control
	// plane, and a VM's remote replica promoted to primary on its
	// backup host.
	PhaseHostDown Phase = "hostdown"
	PhasePromote  Phase = "promote"
	// PhaseSLO marks a tail-latency controller decision: the event's
	// DurNs carries the new epoch interval and Action the knob moved.
	PhaseSLO Phase = "slo"
)

// Event is one trace record: a single phase of a single VM's epoch.
// Virtual durations (run, rollback) are deterministic cost-model time;
// DurNs on commit is the measured wall-clock commit time.
type Event struct {
	// Seq is the tracer-assigned global sequence number; it matches the
	// order events appear in the sink.
	Seq uint64 `json:"seq"`
	// VM identifies the protected guest (the domain name).
	VM string `json:"vm,omitempty"`
	// Host names the host involved in a cluster event: the dead host on
	// hostdown, the VM's new primary host on promote. Empty outside
	// cluster runs, so single-host traces are unchanged.
	Host string `json:"host,omitempty"`
	// Epoch is the controller's 1-based epoch number.
	Epoch int `json:"epoch,omitempty"`
	// Phase names the epoch step this event records.
	Phase Phase `json:"phase"`
	// VirtualNs is the controller's virtual clock at emission.
	VirtualNs int64 `json:"virtual_ns"`
	// DurNs is the phase duration: virtual time where the phase is
	// priced by the cost model (run, rollback), measured wall-clock time
	// where it is not (commit).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Pages is the page count the phase touched (harvested dirty pages
	// on pause, committed pages on commit, shipped pages on replicate).
	Pages int `json:"pages,omitempty"`
	// Findings is the number of detector findings (scan, halt).
	Findings int `json:"findings,omitempty"`
	// Retries counts transient-failure retries observed so far.
	Retries int `json:"retries,omitempty"`
	// InFlight is the pipelined remote-replication window depth.
	InFlight int `json:"in_flight,omitempty"`
	// Acked counts remote acknowledgements drained this epoch.
	Acked int `json:"acked,omitempty"`
	// Action names the recovery action tied to this phase: an unwind
	// path ("resume", "rollback", "halt"), a degradation ("degraded"),
	// an incident ("incident"), or a replay outcome ("pinpointed",
	// "not-pinpointed").
	Action string `json:"action,omitempty"`
	// Err is the failure that ended the phase, if any.
	Err string `json:"err,omitempty"`
	// Hypercalls is the epoch's per-VM hypercall delta, attached to the
	// commit event.
	Hypercalls *cost.Hypercalls `json:"hypercalls,omitempty"`
	// ScanCache is the epoch's scan-path cache delta, attached to the
	// scan event when the scan cache is enabled.
	ScanCache *cost.ScanCacheCounts `json:"scan_cache,omitempty"`
	// CoW is the epoch's copy-on-write commit delta, attached to the
	// commit event when CoW checkpointing is enabled.
	CoW *cost.CoWCounts `json:"cow,omitempty"`
	// Repl is the epoch's delta-replication delta across the local and
	// remote conduits, attached to the commit event when the v2 conduit
	// shipped anything. Its keys are cost.ReplicationCounts' Go field
	// names, the same encoding BENCH_remus.json uses.
	Repl *cost.ReplicationCounts `json:"repl,omitempty"`
}

// Sink receives trace events. Implementations must be safe for
// concurrent use; the tracer serializes emission, so a sink observes
// events in sequence order.
type Sink interface {
	Emit(Event)
}

// Tracer assigns sequence numbers and forwards events to a sink. A nil
// tracer discards everything.
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	sink Sink
}

// NewTracer returns a tracer writing to sink.
func NewTracer(sink Sink) *Tracer { return &Tracer{sink: sink} }

// Emit assigns the next sequence number and forwards the event. The
// sink is invoked under the tracer's lock so sequence numbers match the
// sink's observed order even with many VMs emitting concurrently.
func (t *Tracer) Emit(ev Event) {
	if t == nil || t.sink == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	t.sink.Emit(ev)
	t.mu.Unlock()
}

// JSONLSink writes one JSON object per line. Marshal failures are
// impossible for Event (plain fields), so the only error source is the
// writer; the first write error is retained and subsequent events are
// dropped.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CollectSink retains every event in memory, for tests and tools.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *CollectSink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a snapshot of the collected events in emission order.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Reset discards the collected events.
func (s *CollectSink) Reset() {
	s.mu.Lock()
	s.events = nil
	s.mu.Unlock()
}
