package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// parallelTestPages is large enough that a 4..8-way shard split gives
// every worker real work.
const parallelTestPages = 256

func newPairWorkers(t *testing.T, opt cost.Optimization, pages, workers int) (*hv.Hypervisor, *hv.Domain, *Checkpointer) {
	t.Helper()
	h := hv.New(3*pages + 8)
	d, err := h.CreateDomain("vm", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := New(h, d, Params{Opt: opt, Workers: workers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h, d, c
}

// applyRandomEpoch dirties a randomized subset of pages with
// deterministic (seeded) contents and returns the rng for reuse.
func applyRandomEpoch(t *testing.T, d *hv.Domain, rng *rand.Rand) {
	t.Helper()
	page := make([]byte, mem.PageSize)
	for pfn := 0; pfn < d.Pages(); pfn++ {
		if rng.Intn(3) != 0 {
			continue
		}
		rng.Read(page)
		if err := d.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys pfn %d: %v", pfn, err)
		}
	}
}

// TestParallelCopyMatchesSerial runs identical randomized epochs
// through a serial and a parallel checkpointer and asserts the backups
// are byte-identical after every commit — the sharded copy, scan, and
// undo capture must be indistinguishable from the serial path.
func TestParallelCopyMatchesSerial(t *testing.T) {
	for _, opt := range []cost.Optimization{cost.Memcpy, cost.Full} {
		for _, workers := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", opt, workers), func(t *testing.T) {
				_, dSerial, cSerial := newPairWorkers(t, opt, parallelTestPages, 1)
				_, dPar, cPar := newPairWorkers(t, opt, parallelTestPages, workers)
				if cPar.Workers() != workers {
					t.Fatalf("Workers() = %d, want %d", cPar.Workers(), workers)
				}
				rngSerial := rand.New(rand.NewSource(7))
				rngPar := rand.New(rand.NewSource(7))
				for epoch := 0; epoch < 4; epoch++ {
					applyRandomEpoch(t, dSerial, rngSerial)
					applyRandomEpoch(t, dPar, rngPar)
					sCounts, err := cSerial.Checkpoint()
					if err != nil {
						t.Fatalf("serial checkpoint: %v", err)
					}
					pCounts, err := cPar.Checkpoint()
					if err != nil {
						t.Fatalf("parallel checkpoint: %v", err)
					}
					if sCounts != pCounts {
						t.Fatalf("epoch %d: counts diverged: serial %+v, parallel %+v", epoch, sCounts, pCounts)
					}
					sSnap, err := cSerial.Backup().DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}
					pSnap, err := cPar.Backup().DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}
					if !bytes.Equal(sSnap.Mem, pSnap.Mem) {
						t.Fatalf("epoch %d: parallel backup differs from serial backup", epoch)
					}
					if !domainsEqual(t, dPar, cPar.Backup()) {
						t.Fatalf("epoch %d: parallel backup diverged from its primary", epoch)
					}
				}
			})
		}
	}
}

// TestParallelWorkerFaultRestoresUndo injects a copy-page fault that
// fires inside one of several concurrent copy workers and asserts the
// undo invariant still holds: capture completed across all shards
// before any worker wrote, so the backup (memory and disk) rewinds to
// the last clean checkpoint and a retry converges.
func TestParallelWorkerFaultRestoresUndo(t *testing.T) {
	h := hv.New(2*parallelTestPages + 8)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := New(h, d, Params{Opt: cost.Full, Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	disk := vdisk.New(16)
	if err := c.AttachDisk(disk); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	preMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	preDisk := c.BackupDisk().Snapshot()

	// Dirty enough pages that all four workers get shards, plus a disk
	// block, then fail one copy call mid-commit.
	rng := rand.New(rand.NewSource(11))
	applyRandomEpoch(t, d, rng)
	if err := disk.WriteBlock(3, 0, []byte("epoch block")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	inj.Fail(FaultCopyPage, inj.Calls(FaultCopyPage)+20, 1, false)
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("mid-commit worker fault did not fail the checkpoint")
	}

	postMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(preMem.Mem, postMem.Mem) {
		t.Fatal("backup memory inconsistent after failed parallel commit")
	}
	if !bytes.Equal(preDisk, c.BackupDisk().Snapshot()) {
		t.Fatal("backup disk inconsistent after failed parallel commit")
	}

	// The restored dirty logs make a plain retry converge.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("backup diverged after retried commit")
	}
	if !vdisk.Equal(disk, c.BackupDisk()) {
		t.Fatal("backup disk diverged after retried commit")
	}
}

// TestPipelinedRemoteConverges drives several epochs through the
// pipelined remote-replication path and asserts at most one shipment is
// ever in flight and that Close awaits it, leaving the remote
// byte-identical to the backup.
func TestPipelinedRemoteConverges(t *testing.T) {
	h := hv.New(4*parallelTestPages + 8)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := New(h, d, Params{Opt: cost.Full, Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	rng := rand.New(rand.NewSource(23))
	for epoch := 0; epoch < 6; epoch++ {
		applyRandomEpoch(t, d, rng)
		counts, err := c.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", epoch, err)
		}
		if counts.RemotePages == 0 {
			t.Fatalf("checkpoint %d: remote ship not enqueued", epoch)
		}
		rep := c.LastReport()
		if rep.RemoteInFlight > 1 {
			t.Fatalf("checkpoint %d: %d shipments in flight, want at most 1",
				epoch, rep.RemoteInFlight)
		}
	}
	remote := c.Remote()
	backup := c.Backup()
	// Close awaits the shipment in flight before closing the conduits.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !domainsEqual(t, backup, remote) {
		t.Fatal("remote backup did not converge to the local backup after Close")
	}
}

// TestPipelinedRemoteDegradesDeterministically injects a fatal send
// fault into a pipelined shipment and asserts replication degrades to
// local-only at exactly the next commit, which awaits that shipment,
// without failing any local commit.
func TestPipelinedRemoteDegradesDeterministically(t *testing.T) {
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
	doms0 := h.DomainCount()
	inj.FailNext(remus.FaultSend, 1, false)

	// Checkpoint 1 starts the doomed shipment; the local commit must
	// succeed regardless.
	if err := d.WritePhys(0, []byte("epoch one")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	if c.LastReport().RemoteDegraded {
		t.Fatal("checkpoint 1 degraded before its shipment was awaited")
	}
	// Checkpoint 2 awaits the failed shipment and degrades.
	if err := d.WritePhys(0, []byte("epoch two")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	if rep := c.LastReport(); !rep.RemoteDegraded || rep.RemoteAcked != 0 {
		t.Fatalf("checkpoint 2 report = %+v, want the awaited failure degraded", rep)
	}
	if c.Remote() != nil {
		t.Fatal("remote still referenced after degradation")
	}
	if got := h.DomainCount(); got != doms0-1 {
		t.Fatalf("DomainCount = %d, want %d (remote domain not destroyed)", got, doms0-1)
	}
	// Local checkpointing carries on.
	if err := d.WritePhys(0, []byte("local-only")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after degradation: %v", err)
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("local backup diverged")
	}
}
