package checkpoint

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/remus"
)

// Regression test for the sticky ship-error bug: a failed pipelined
// shipment's error once stayed parked after replication degraded, so a
// later replication session was failed by an error from the previous
// one. The awaiting commit must consume the failure, leave nothing in
// flight, and leave the checkpointer able to run a fresh, healthy
// session.
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

	// Checkpoint 1's shipment fails persistently; checkpoint 2 awaits it
	// and degrades.
	inj.FailNext(remus.FaultSend, 1, false)
	for i := 1; i <= 2; i++ {
		if err := d.WritePhys(0, []byte{byte(i)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if !c.LastReport().RemoteDegraded {
		t.Fatalf("checkpoint 2 did not degrade: %+v", c.LastReport())
	}
	if c.ship != nil {
		t.Fatal("shipment still in flight after degradation")
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
			t.Fatalf("post-recovery checkpoint %d: remote ship not started", i)
		}
		if rep := c.LastReport(); rep.RemoteDegraded || rep.RemoteRetries != 0 {
			t.Fatalf("post-recovery checkpoint %d on a healthy conduit: %+v", i, rep)
		}
	}
	if got := inj.Tripped(remus.FaultSend); got != 1 {
		t.Fatalf("send faults tripped = %d, want 1", got)
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
