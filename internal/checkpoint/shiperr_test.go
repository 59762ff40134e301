package checkpoint

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/remus"
)

// Regression test for the sticky ship-error bug: after replication
// degraded, the first persistent failure stayed parked in c.shipErr and
// the drain could leave the in-flight count nonzero, so a later
// replication session was failed by an error from the previous one.
// Degradation must consume the parked error, drain the window to zero,
// and leave the checkpointer able to run a fresh, healthy session.
func TestDegradedShipErrorNotSticky(t *testing.T) {
	h := hv.New(4*domPages + 8)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := New(h, d, Params{Opt: cost.Full, Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}

	// Two consecutive persistent send failures: the first is parked in
	// shipErr by the window drain, the second lands while the stop path
	// drains the rest of the window — both results must decrement the
	// in-flight count.
	inj.FailNext(remus.FaultSend, 2, false)
	degraded := false
	for i := 1; i <= 5 && !degraded; i++ {
		if err := d.WritePhys(0, []byte{byte(i)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		degraded = c.LastReport().RemoteDegraded
	}
	if !degraded {
		t.Fatal("persistent ship failures never degraded replication")
	}
	if c.shipErr != nil {
		t.Fatalf("shipErr still parked after degradation: %v", c.shipErr)
	}
	if c.inFlight != 0 {
		t.Fatalf("inFlight = %d after degradation, want 0", c.inFlight)
	}

	// A fresh replication session must not inherit the old failure.
	if err := c.EnableRemoteReplication([]byte("fedcba9876543210")); err != nil {
		t.Fatalf("re-enable after degradation: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := d.WritePhys(0, []byte{0x40 + byte(i)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		counts, err := c.Checkpoint()
		if err != nil {
			t.Fatalf("post-recovery checkpoint %d: %v", i, err)
		}
		if counts.RemotePages == 0 {
			t.Fatalf("post-recovery checkpoint %d: remote ship not enqueued", i)
		}
		if c.LastReport().RemoteDegraded {
			t.Fatalf("post-recovery checkpoint %d degraded on a healthy conduit", i)
		}
	}
	remote, backup := c.Remote(), c.Backup()
	if remote == nil {
		t.Fatal("remote nil after healthy recovery session")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !domainsEqual(t, backup, remote) {
		t.Fatal("remote did not converge to the backup after the recovered session")
	}
}
