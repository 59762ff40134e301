package analyze

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/vmi"
)

type attackEnv struct {
	g     *guestos.Guest
	ckpt  *checkpoint.Checkpointer
	state *guestos.State
	ops   []guestos.Op
	finds []detect.Finding
	pid   uint32
	bufVA uint64
}

// setupOverflow builds a checkpointed guest, then executes an epoch
// containing benign writes plus one overflow, and collects the audit
// findings.
func setupOverflow(t *testing.T, extraOps func(*guestos.Guest, uint32, uint64) error) *attackEnv {
	t.Helper()
	h := hv.New(1040)
	dom, err := h.CreateDomain("guest", 512)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 77})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	pid, err := g.StartProcess("victim", 0, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	bufVA, err := g.Malloc(pid, 64)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	ckpt, err := checkpoint.New(h, dom, checkpoint.Params{Opt: cost.Full})
	if err != nil {
		t.Fatalf("checkpoint.New: %v", err)
	}
	t.Cleanup(func() { _ = ckpt.Close() })
	state := g.CloneState()

	g.BeginEpoch()
	if err := g.WriteUser(pid, bufVA, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatalf("benign write: %v", err)
	}
	if err := g.WriteUser(pid, bufVA, bytes.Repeat([]byte{2}, 80)); err != nil {
		t.Fatalf("overflow write: %v", err)
	}
	if extraOps != nil {
		if err := extraOps(g, pid, bufVA); err != nil {
			t.Fatalf("extra ops: %v", err)
		}
	}
	ops := g.EpochOps()

	ctx, err := vmi.NewContext(dom, g.Profile(), g.SystemMap())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	finds, err := detect.CanaryModule{}.Scan(&detect.ScanContext{VMI: ctx, Counts: &detect.ScanCounts{}})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(finds) != 1 {
		t.Fatalf("findings = %+v", finds)
	}
	return &attackEnv{g: g, ckpt: ckpt, state: state, ops: ops, finds: finds, pid: pid, bufVA: bufVA}
}

func TestReplayPinpointFindsOverflowingWrite(t *testing.T) {
	env := setupOverflow(t, nil)
	pin, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, env.finds)
	if err != nil {
		t.Fatalf("ReplayPinpoint: %v", err)
	}
	// The second write (op index 1 in the epoch) is the overflow.
	if pin.Op.Kind != guestos.OpUserWrite || pin.Op.VA != env.bufVA || pin.Length < 8 {
		t.Fatalf("pinpoint = %+v", pin)
	}
	if pin.CanaryPA != env.finds[0].CanaryPA {
		t.Fatalf("canary PA mismatch: %#x vs %#x", pin.CanaryPA, env.finds[0].CanaryPA)
	}
	if env.g.Domain().State() != hv.StatePaused {
		t.Fatalf("VM not paused at attack point: %v", env.g.Domain().State())
	}
	if !strings.Contains(pin.Describe(), "destroying canary") {
		t.Fatalf("Describe = %q", pin.Describe())
	}
}

func TestReplaySkipsBenignCanaryInitialization(t *testing.T) {
	// An epoch that allocates (writing a fresh canary on the same page)
	// before overflowing: the alloc's own canary write must not be
	// reported as the attack.
	env := setupOverflow(t, func(g *guestos.Guest, pid uint32, bufVA uint64) error {
		_, err := g.Malloc(pid, 16)
		return err
	})
	pin, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, env.finds)
	if err != nil {
		t.Fatalf("ReplayPinpoint: %v", err)
	}
	if pin.Op.Kind != guestos.OpUserWrite {
		t.Fatalf("pinpointed %v, want the user write", pin.Op.Kind)
	}
}

func TestReplayPinpointNoOverflowFindings(t *testing.T) {
	env := setupOverflow(t, nil)
	_, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, []detect.Finding{
		{Kind: detect.KindMalware},
	})
	if err == nil {
		t.Fatal("ReplayPinpoint without overflow findings succeeded")
	}
}

func TestReplayDiscardOutputs(t *testing.T) {
	var sink recordingSink
	env := setupOverflow(t, func(g *guestos.Guest, pid uint32, _ uint64) error {
		return g.SendPacket(pid, [4]byte{9, 9, 9, 9}, 99, []byte("exfil"))
	})
	env.g.SetOutputSink(&sink)
	if _, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, env.finds); err != nil {
		t.Fatalf("ReplayPinpoint: %v", err)
	}
	if len(sink.pkts) != 0 {
		t.Fatal("replay emitted external outputs")
	}
}

type recordingSink struct{ pkts []guestos.Packet }

func (r *recordingSink) SendPacket(p guestos.Packet) { r.pkts = append(r.pkts, p) }
func (r *recordingSink) WriteDisk(guestos.DiskWrite) {}

func TestCaptureDumpsAndPostmortem(t *testing.T) {
	env := setupOverflow(t, nil)
	dumps, err := CaptureDumps(env.g, env.ckpt)
	if err != nil {
		t.Fatalf("CaptureDumps: %v", err)
	}
	if dumps.LastGood == nil || dumps.AuditFail == nil || dumps.AtAttack != nil {
		t.Fatal("unexpected dump set")
	}
	pin, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, env.finds)
	if err != nil {
		t.Fatalf("ReplayPinpoint: %v", err)
	}
	if err := dumps.CaptureAttackDump(env.g); err != nil {
		t.Fatalf("CaptureAttackDump: %v", err)
	}
	rep, err := Postmortem(dumps, env.finds, pin)
	if err != nil {
		t.Fatalf("Postmortem: %v", err)
	}
	text := rep.Render()
	for _, want := range []string{"Buffer Overflow", "pinpointed", "victim memory map", "[heap]"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestPostmortemTitles(t *testing.T) {
	for kind, want := range map[detect.Kind]string{
		detect.KindMalware:       "Malware",
		detect.KindSyscallHijack: "Kernel Integrity",
		detect.KindHiddenProcess: "Hidden Process",
	} {
		if got := reportTitle([]detect.Finding{{Kind: kind}}); !strings.Contains(got, want) {
			t.Errorf("title for %v = %q", kind, got)
		}
	}
	if got := reportTitle(nil); got != "Security Audit" {
		t.Errorf("empty title = %q", got)
	}
}

func TestErrNotPinpointedOnForeignCause(t *testing.T) {
	// Findings that claim a canary on a page the epoch never writes:
	// replay completes without an event and reports ErrNotPinpointed.
	env := setupOverflow(t, nil)
	bogus := []detect.Finding{{
		Kind:     detect.KindBufferOverflow,
		CanaryPA: uint64(env.g.Domain().Pages()-1) * 4096,
		Expected: 1234,
	}}
	_, err := ReplayPinpoint(env.g, env.ckpt, env.state, env.ops, bogus)
	if !errors.Is(err, ErrNotPinpointed) {
		t.Fatalf("err = %v, want ErrNotPinpointed", err)
	}
}

func TestLeU64(t *testing.T) {
	if v := leU64([]byte{1, 0, 0, 0, 0, 0, 0, 0}); v != 1 {
		t.Fatalf("leU64 = %d", v)
	}
	if v := leU64([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}); v != 0x8000000000000000 {
		t.Fatalf("leU64 high = %#x", v)
	}
}
