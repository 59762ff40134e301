package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
)

// Delta-replication benchmark shape. Like the CoW benchmark this runs
// the real controller: each sweep point fixes a dirty working set and a
// rewrite locality (a few bytes per page vs. full-page rewrites with
// epoch-fresh content) and drives the same deterministic guest under
// the three conduit wire protocols — raw full-page copies, XOR-delta
// encoding, and delta plus content-hash dedup. The artifact records
// steady-state wire bytes per epoch against the raw-protocol baseline
// plus the priced pause, so both the bandwidth cut and its pause-time
// consequence are regression-gated. Workers=1, Opt=NoOpt (every dirty
// page goes through the encrypted conduit), and a fixed seed keep the
// JSON byte-stable for the bench-drift gate.
const (
	deltaBenchPages  = 4096
	deltaBenchSeed   = 11
	deltaBenchEpochs = 6
	// deltaWarmupEpochs are excluded from the steady-state aggregates:
	// the first epoch allocates the arena (dirtying it wholesale) and
	// the second ships the first stamped copies into the version table.
	deltaWarmupEpochs = 2
)

// deltaBenchSweep is the (working set, rewrite locality) grid: the
// dirty ratio sweeps ws/deltaBenchPages, and writeBytes selects small
// in-place stamps (delta-friendly) or full-page rewrites with content
// that never repeats (the raw-fallback worst case).
var deltaBenchSweep = []struct {
	ws         int
	writeBytes int
}{
	{64, 16},            // small writes, small set — the headline steady state
	{256, 16},           // small writes, medium set
	{1024, 16},          // small writes, large set
	{256, mem.PageSize}, // full rewrites, epoch-fresh content: raw fallback
}

// DeltaPoint compares one sweep point across the three wire protocols.
// Byte figures are steady-state averages per epoch; the raw baseline is
// what the v1 protocol ships for the identical page stream.
type DeltaPoint struct {
	WSSPages   int `json:"wss_pages"`
	WriteBytes int `json:"write_bytes"`
	// RawWireBytes is the v1 full-page protocol's bytes per epoch.
	RawWireBytes int64 `json:"raw_wire_bytes"`
	// DeltaWireBytes / DedupWireBytes are the v2 protocol's bytes per
	// epoch under delta and delta+dedup.
	DeltaWireBytes int64 `json:"delta_wire_bytes"`
	DedupWireBytes int64 `json:"dedup_wire_bytes"`
	// Reductions are 1 - wire/raw.
	DeltaReduction float64 `json:"delta_reduction"`
	DedupReduction float64 `json:"dedup_reduction"`
	// Steady-state per-epoch priced pause under each protocol.
	RawPauseMs   float64 `json:"raw_pause_ms"`
	DeltaPauseMs float64 `json:"delta_pause_ms"`
	DedupPauseMs float64 `json:"dedup_pause_ms"`
	// The dedup arm's per-opcode page mix across the steady state.
	Pages cost.ReplicationCounts `json:"dedup_pages"`
}

// DeltaBench is the machine-readable delta-replication benchmark
// (BENCH_remus.json).
type DeltaBench struct {
	GuestPages int     `json:"guest_pages"`
	EpochMs    float64 `json:"epoch_ms"`
	Epochs     int     `json:"epochs"`
	Warmup     int     `json:"warmup_epochs"`
	// SmallWriteSteadyReduction is the headline figure: the delta+dedup
	// wire-byte cut at the small-write steady-state point. The
	// acceptance floor (>= 0.5) is asserted in delta_test.go.
	SmallWriteSteadyReduction float64      `json:"small_write_steady_reduction"`
	Points                    []DeltaPoint `json:"points"`
}

// deltaArmResult is one protocol arm's steady-state accounting.
type deltaArmResult struct {
	pauseMs float64 // avg virtual pause per steady-state epoch
	repl    cost.ReplicationCounts
	steady  int
}

// runDeltaArm drives deltaBenchEpochs epochs of the sweep-point
// workload under one wire protocol and returns steady-state averages.
func runDeltaArm(ws, writeBytes int, mode core.RemusMode) (*deltaArmResult, error) {
	h := hv.New(2*deltaBenchPages + 16)
	dom, err := h.CreateDomain("guest", deltaBenchPages)
	if err != nil {
		return nil, err
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Profile: guestos.LinuxProfile(), Seed: deltaBenchSeed})
	if err != nil {
		return nil, err
	}
	mods, err := detect.ModulesByName("default")
	if err != nil {
		return nil, err
	}
	ctl, err := core.New(h, g, core.Config{
		EpochInterval: 100 * time.Millisecond,
		Modules:       mods,
		Workers:       1,          // exact serial path: deterministic accounting
		Opt:           cost.NoOpt, // every dirty page goes through the conduit
		Remus:         mode,
	})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	var pid uint32
	var arena uint64
	out := &deltaArmResult{}
	buf := make([]byte, writeBytes)
	for e := 1; e <= deltaBenchEpochs; e++ {
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			if e == 1 {
				if pid, err = g.StartProcess("deltabench", 1000, ws+3); err != nil {
					return err
				}
				if arena, err = g.Malloc(pid, ws*mem.PageSize-64); err != nil {
					return err
				}
			}
			// Full-page writes land at arena+8, so each one spills 8 bytes
			// into the next page; stop one page short so the last write
			// stays inside the allocation instead of smashing its canary.
			pmax := ws
			if writeBytes >= mem.PageSize {
				pmax = ws - 1
			}
			for p := 0; p < pmax; p++ {
				// The stamp keys on the page *pair*, so neighboring pages
				// carry identical content (cross-page dups for the dedup
				// arm); every fourth page takes an epoch-independent
				// stamp, so it is dirtied but unchanged after the first
				// write (the unchanged-content case). Full-page rewrites
				// instead key on (epoch, page): content never repeats, so
				// deltas cannot compress and the encoder must fall back
				// to raw.
				v := uint64(e)<<32 | uint64(p/2)
				if writeBytes >= mem.PageSize {
					v = uint64(e)<<32 | uint64(p)
				} else if p%4 == 3 {
					v = uint64(p / 2)
				}
				for i := range buf {
					buf[i] = byte(v >> (8 * (i % 8)))
					if writeBytes >= mem.PageSize {
						// Scramble every byte with the epoch so successive
						// rewrites share nothing: the XOR delta is a full-
						// page literal and the encoder must fall back to
						// shipping the raw page.
						buf[i] ^= byte(i*31 + e*131)
					}
				}
				if err := g.WriteUser(pid, arena+uint64(p)*mem.PageSize+8, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("delta bench (ws=%d wb=%d mode=%v) epoch %d: %w", ws, writeBytes, mode, e, err)
		}
		if res.Incident != nil {
			return nil, fmt.Errorf("delta bench (ws=%d wb=%d mode=%v) epoch %d: unexpected incident", ws, writeBytes, mode, e)
		}
		if e <= deltaWarmupEpochs {
			continue
		}
		out.steady++
		out.pauseMs += ms(res.Phases.Total())
		out.repl.Add(res.Counts.Repl())
	}
	out.pauseMs /= float64(out.steady)
	return out, nil
}

// DeltaSweep runs the three protocol arms across the sweep grid and
// assembles the benchmark.
func DeltaSweep() (*DeltaBench, error) {
	bench := &DeltaBench{
		GuestPages: deltaBenchPages,
		EpochMs:    100,
		Epochs:     deltaBenchEpochs,
		Warmup:     deltaWarmupEpochs,
	}
	for _, sp := range deltaBenchSweep {
		raw, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusRaw)
		if err != nil {
			return nil, err
		}
		delta, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusDelta)
		if err != nil {
			return nil, err
		}
		dedup, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusDeltaDedup)
		if err != nil {
			return nil, err
		}
		n := int64(dedup.steady)
		p := DeltaPoint{
			WSSPages:   sp.ws,
			WriteBytes: sp.writeBytes,
			// The raw baseline comes from the v2 arms' RawBytes counter,
			// which prices the identical page stream at v1 framing.
			RawWireBytes:   dedup.repl.RawBytes / n,
			DeltaWireBytes: delta.repl.WireBytes / n,
			DedupWireBytes: dedup.repl.WireBytes / n,
			DeltaReduction: delta.repl.Reduction(),
			DedupReduction: dedup.repl.Reduction(),
			RawPauseMs:     raw.pauseMs,
			DeltaPauseMs:   delta.pauseMs,
			DedupPauseMs:   dedup.pauseMs,
			Pages:          dedup.repl,
		}
		bench.Points = append(bench.Points, p)
	}
	bench.SmallWriteSteadyReduction = bench.Points[0].DedupReduction
	return bench, nil
}

// DeltaSweepJSON renders the delta-replication benchmark as indented
// JSON for BENCH_remus.json.
func DeltaSweepJSON() ([]byte, error) {
	bench, err := DeltaSweep()
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// DeltaWireComparison regenerates the wire-protocol comparison as a
// text experiment ("delta"): per-sweep-point wire bytes and pause under
// raw, delta, and delta+dedup replication.
func DeltaWireComparison() (*Result, error) {
	bench, err := DeltaSweep()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	renderHeader(&b, fmt.Sprintf(
		"Delta replication: steady-state wire bytes/epoch and pause vs dirty set and rewrite locality, %d-page guest",
		bench.GuestPages))
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %12s %9s %9s %10s %10s\n",
		"wss-pages", "wr-bytes", "raw-B", "delta-B", "dedup-B", "delta-cut", "dedup-cut", "raw-ms", "dedup-ms")
	var csv strings.Builder
	csv.WriteString("wss_pages,write_bytes,raw_wire_bytes,delta_wire_bytes,dedup_wire_bytes,delta_reduction,dedup_reduction,raw_pause_ms,dedup_pause_ms\n")
	for _, p := range bench.Points {
		fmt.Fprintf(&b, "%-10d %8d %12d %12d %12d %8.1f%% %8.1f%% %10.3f %10.3f\n",
			p.WSSPages, p.WriteBytes, p.RawWireBytes, p.DeltaWireBytes, p.DedupWireBytes,
			100*p.DeltaReduction, 100*p.DedupReduction, p.RawPauseMs, p.DedupPauseMs)
		fmt.Fprintf(&csv, "%d,%d,%d,%d,%d,%.4f,%.4f,%.3f,%.3f\n",
			p.WSSPages, p.WriteBytes, p.RawWireBytes, p.DeltaWireBytes, p.DedupWireBytes,
			p.DeltaReduction, p.DedupReduction, p.RawPauseMs, p.DedupPauseMs)
	}
	fmt.Fprintf(&b, "small-write steady-state dedup cut: %.1f%%\n", 100*bench.SmallWriteSteadyReduction)
	return &Result{
		ID:    "delta",
		Title: "Delta replication: wire bytes vs dirty set and locality",
		Text:  b.String(),
		CSV:   csv.String(),
	}, nil
}
