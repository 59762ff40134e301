package crimes_test

// One benchmark per paper table and figure (run with `go test -bench=.`),
// plus real micro-benchmarks for the claims the substrate can measure
// directly (canary validation rate, copy paths, checkpoint cost). The
// table/figure benchmarks execute the corresponding experiment generator
// and log its rows on the first iteration, so `go test -bench . -v`
// regenerates the full evaluation.
//
// This file lives in the external test package: it imports
// internal/experiments, which reaches the scenario arm catalog, which
// in turn builds on the root package — an import cycle if this were an
// in-package test.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	crimes "repro"
	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vmi"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	gen, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Text)
		}
	}
}

func BenchmarkTable1CostBreakdown(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2ParsecSuite(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3VMICosts(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFig3ParsecNormalized(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4SwaptionsBreakdown(b *testing.B) {
	benchExperiment(b, "fig4")
}
func BenchmarkFig5IntervalSweep(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6aFluidanimate(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6bBitmapScan(b *testing.B)    { benchExperiment(b, "fig6b") }
func BenchmarkFig7WebServer(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8AttackTimeline(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkCase2MalwareReport(b *testing.B) { benchExperiment(b, "case2") }
func BenchmarkRemusVsCRIMES(b *testing.B)      { benchExperiment(b, "remus") }

// BenchmarkCanaryValidationRate measures the real guest-aided canary
// scan. The paper reports ~90,000 canary validations per millisecond;
// the reported canaries/ms metric is this substrate's real rate.
func BenchmarkCanaryValidationRate(b *testing.B) {
	h := hv.New(4112)
	dom, err := h.CreateDomain("guest", 4096)
	if err != nil {
		b.Fatal(err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 1, CanaryCapacity: 2048})
	if err != nil {
		b.Fatal(err)
	}
	pid, err := g.StartProcess("app", 0, 256)
	if err != nil {
		b.Fatal(err)
	}
	const canaries = 2000
	for i := 0; i < canaries; i++ {
		if _, err := g.Malloc(pid, 128); err != nil {
			b.Fatal(err)
		}
	}
	ctx, err := vmi.NewContext(dom, g.Profile(), g.SystemMap())
	if err != nil {
		b.Fatal(err)
	}
	sc := &detect.ScanContext{VMI: ctx, Counts: &detect.ScanCounts{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := detect.CanaryModule{}.Scan(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) != 0 {
			b.Fatal("unexpected findings")
		}
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(canaries/(perOp/1e6), "canaries/ms")
}

// BenchmarkCheckpointPath measures the real cost of propagating one
// epoch's dirty pages for each optimization level — the socket path
// really serializes and AES-encrypts to a restore process, the memcpy
// paths really copy frames (Optimization 1's real effect).
func BenchmarkCheckpointPath(b *testing.B) {
	const pages = 2048
	const dirtyPages = 256
	for _, opt := range []cost.Optimization{cost.NoOpt, cost.Memcpy, cost.Premap, cost.Full} {
		b.Run(opt.String(), func(b *testing.B) {
			h := hv.New(2*pages + 8)
			dom, err := h.CreateDomain("vm", pages)
			if err != nil {
				b.Fatal(err)
			}
			c, err := checkpoint.New(h, dom, checkpoint.Params{Opt: opt})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			data := bytes.Repeat([]byte{0xAB}, mem.PageSize)
			b.SetBytes(dirtyPages * mem.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for p := 0; p < dirtyPages; p++ {
					data[0] = byte(i)
					if err := dom.WritePhys(uint64(p*8)*mem.PageSize%dom.MemBytes(), data); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPauseParallel measures the parallel pause path on a 64 MiB
// dirty set at 1, 2, 4 and 8 workers. The reported vpause_ms metric is
// the calibrated cost model's virtual pause time (CheckpointParallel),
// which is deterministic and shows the >=2x speedup at 4 workers even
// on hosts where GOMAXPROCS limits real concurrency; ns/op is the
// substrate's real wall-clock commit time.
func BenchmarkPauseParallel(b *testing.B) {
	const pages = 16384 // 64 MiB guest, fully dirty each iteration
	m := cost.Default()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h := hv.New(2*pages + 8)
			dom, err := h.CreateDomain("vm", pages)
			if err != nil {
				b.Fatal(err)
			}
			c, err := checkpoint.New(h, dom, checkpoint.Params{Opt: cost.Full, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var counts cost.Counts
			b.SetBytes(pages * mem.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dom.MarkAllDirty()
				b.StartTimer()
				if counts, err = c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			vpause := m.CheckpointParallel(cost.Full, counts, workers).Total()
			b.ReportMetric(float64(vpause)/1e6, "vpause_ms")
		})
	}
}

// BenchmarkFleet measures a real co-located fleet at 1, 2, 4 and 8 VMs
// under staggered scheduling: every VM runs the scaled swaptions
// workload for three epochs with epoch boundaries gated to one paused
// VM at a time. ns/op is the real wall-clock fleet round; the reported
// metrics are the fleet's virtual aggregate pause and the cost model's
// synchronized-scheduling aggregate for the same per-VM dirty counts
// (the BENCH_fleet.json comparison, reproduced on the live substrate).
func BenchmarkFleet(b *testing.B) {
	m := cost.Default()
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 3
	for _, vms := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			var agg time.Duration
			var syncAgg time.Duration
			for i := 0; i < b.N; i++ {
				f, err := fleet.New(fleet.Config{
					VMs:        vms,
					GuestPages: 512,
					Stagger:    true,
					Seed:       7,
					Core: crimes.Config{
						EpochInterval: 20 * time.Millisecond,
						Workers:       4,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				runners := make([]*workload.Runner, vms)
				for j := range runners {
					runners[j] = workload.NewRunner(spec, 128)
				}
				rep := f.Run(epochs, func(vm *fleet.VM, epoch int) func(g *guestos.Guest) error {
					r := runners[vm.Index]
					return func(g *guestos.Guest) error {
						return r.RunEpoch(g, 20*time.Millisecond)
					}
				})
				agg = rep.AggregatePause
				syncAgg = 0
				for _, s := range rep.VMs {
					perEpoch := cost.Counts{
						TotalPages:  512,
						DirtyPages:  s.DirtyPages / epochs,
						BytesCopied: s.DirtyPages / epochs * mem.PageSize,
					}
					syncAgg += time.Duration(epochs) *
						m.CheckpointContended(cost.Full, perEpoch, 4, vms).Total()
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(agg)/1e6, "vpause_agg_ms")
			b.ReportMetric(float64(syncAgg)/1e6, "vpause_sync_ms")
		})
	}
}

// BenchmarkEpochEndToEnd measures a full real CRIMES epoch: workload
// writes, pause, audit, checkpoint, release, resume.
func BenchmarkEpochEndToEnd(b *testing.B) {
	sys, err := crimes.Launch(crimes.Options{GuestPages: 2048, Config: crimes.Config{EpochInterval: 50 * time.Millisecond}})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	var pid uint32
	if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
		pid, err = g.StartProcess("bench", 0, 64)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
			base := g.Profile().UserVirtBase
			for p := 0; p < 16; p++ {
				if err := g.WriteUser(pid, base+uint64(p)*mem.PageSize, payload); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
