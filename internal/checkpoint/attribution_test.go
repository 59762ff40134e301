package checkpoint

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/remus"
)

// applyMixedEpoch writes a seeded mix of small in-page edits, zeroed
// pages and whole-page copies, so the delta+dedup wire carries delta,
// same and zero records rather than raw pages alone.
func applyMixedEpoch(t *testing.T, d *hv.Domain, rng *rand.Rand) {
	t.Helper()
	page := make([]byte, mem.PageSize)
	for n := 0; n < 24; n++ {
		pfn := uint64(rng.Intn(d.Pages()))
		switch rng.Intn(4) {
		case 0:
			clear(page)
		case 1:
			if err := d.ReadPhys(uint64(rng.Intn(d.Pages()))*mem.PageSize, page); err != nil {
				t.Fatalf("ReadPhys: %v", err)
			}
		default:
			edit := make([]byte, 16)
			rng.Read(edit)
			if err := d.WritePhys(pfn*mem.PageSize+uint64(rng.Intn(mem.PageSize-16)), edit); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			continue
		}
		if err := d.WritePhys(pfn*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
}

// replRun drives 20 seeded epochs with a delta+dedup remote replica and
// returns each checkpoint's RemoteRepl, the remote conduit's traffic
// after its initial sync, and its traffic after Close.
func replRun(t *testing.T, workers int) (perCkpt []cost.ReplicationCounts, initial, final cost.ReplicationCounts) {
	t.Helper()
	h := hv.New(4*parallelTestPages + 8)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := New(h, d, Params{Opt: cost.Full, Workers: workers, Remus: remus.ModeDeltaDedup})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	conduit := c.remoteConduit
	initial = conduit.Stats()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20; i++ {
		applyMixedEpoch(t, d, rng)
		counts, err := c.Checkpoint()
		if err != nil {
			t.Fatalf("workers=%d checkpoint %d: %v", workers, i, err)
		}
		perCkpt = append(perCkpt, counts.RemoteRepl)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return perCkpt, initial, conduit.Stats()
}

// TestRemoteReplAttribution pins the one-shipment contract: every
// remote shipment's wire counts are reported exactly once, by the
// commit that awaits it — the same commit when serial, the next one
// when pipelined, and Close for the last pipelined shipment.
func TestRemoteReplAttribution(t *testing.T) {
	serial, _, _ := replRun(t, 1)
	piped, initial, final := replRun(t, 4)

	if piped[0] != (cost.ReplicationCounts{}) {
		t.Fatalf("pipelined checkpoint 0 reported traffic %+v before any shipment was awaited", piped[0])
	}
	for i := 0; i+1 < len(piped); i++ {
		if serial[i].Batches != 1 {
			t.Fatalf("serial checkpoint %d reported %d batches, want 1", i, serial[i].Batches)
		}
		if piped[i+1] != serial[i] {
			t.Fatalf("pipelined checkpoint %d reported %+v, want serial checkpoint %d's %+v",
				i+1, piped[i+1], i, serial[i])
		}
	}

	// The conduit's own cumulative counts, past the initial sync, are
	// the per-checkpoint reports plus the shipment Close awaited — which
	// is the serial run's last checkpoint.
	var reported cost.ReplicationCounts
	for _, r := range piped {
		reported.Add(r)
	}
	reported.Add(serial[len(serial)-1])
	if sent := final.Sub(initial); sent != reported {
		t.Fatalf("conduit sent %+v after the initial sync, checkpoints and Close reported %+v", sent, reported)
	}
}
