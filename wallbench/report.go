package main

import (
	"fmt"
	"strings"
	"time"
)

// layerAcc accumulates one traced pass's per-epoch layer values.
type layerAcc struct {
	vals map[string][]float64 // per-epoch values, µs unless named _ms
	sums map[string]float64   // sums for shares
}

func (a *layerAcc) add(name string, v float64) {
	a.vals[name] = append(a.vals[name], v)
	a.sums[name] += v
}

func (a *layerAcc) p50(name string) float64 { return pct(a.vals[name], 50) }

// share is the child's total as a percentage of the parent's.
func (a *layerAcc) share(child, parent string) float64 {
	if a.sums[parent] == 0 {
		return 0
	}
	return 100 * a.sums[child] / a.sums[parent]
}

var commitSpans = []struct{ span, metric string }{
	{spanScan, "mem.bitmap_scan_us"},
	{spanUndo, "checkpoint.undo_us"},
	{spanMemcopy, "checkpoint.memcopy_us"},
	{spanDiskcopy, "checkpoint.diskcopy_us"},
	{spanRemote, "checkpoint.remote_enqueue_us"},
}

// layerMetrics folds the traced pass's spans into the per-layer
// metrics, prints them with the priced-vs-measured ledger and the
// tracing overhead, and returns them.
func (r *run) layerMetrics(plain, traced *pass) map[string]metric {
	byID := map[int64]span{}
	kids := map[int64][]span{}
	var launches []float64
	for _, t := range traced.traces {
		for _, s := range t.spans {
			byID[s.ID] = s
			if s.Parent != 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
			if s.Name == spanLaunch {
				launches = append(launches, float64(s.dur())/1e6)
			}
		}
	}
	acc := &layerAcc{vals: map[string][]float64{}, sums: map[string]float64{}}
	mods := defaultModuleNames()
	for _, s := range traced.vm {
		for _, ce := range s.clean {
			r.foldEpoch(acc, byID[ce.id], kids, mods)
			ph := ce.phases
			acc.add("priced.suspend_resume", us(ph.Suspend+ph.Resume))
			acc.add("priced.vmi", us(ph.VMI))
			acc.add("priced.bitscan", us(ph.Bitscan))
			acc.add("priced.map", us(ph.Map))
			acc.add("priced.copy", us(ph.Copy))
			acc.add("priced.total", us(ph.Total()))
		}
		for _, c := range s.clones {
			acc.add("guestos.clone_state_us", float64(c)/1e3)
		}
	}
	for i, id := range traced.incEpochs {
		e := byID[id]
		work, window := 0.0, 0.0
		for _, k := range kids[id] {
			switch k.Name {
			case spanWork:
				work += float64(k.dur())
			case spanPause:
				window = float64(detectWindow(kids[k.ID]))
			}
		}
		acc.add("incident.epoch_ms", float64(e.dur())/1e6)
		acc.add("analyze.respond_ms", (float64(e.dur())-work-window)/1e6)
		acc.add("volatility.postmortem_ms", float64(traced.postmort[i])/1e6)
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	timing := func(name, parent string) {
		put(name, acc.p50(name), "us")
		put(strings.TrimSuffix(name, "_us")+"_share", acc.share(name, parent), "%")
	}
	put("core.epoch_us", acc.p50("core.epoch_us"), "us")
	// Tails of the untraced pass: they move with host CPU steal, so they
	// are reported here rather than gated end to end.
	pauses, cycles := plain.durations()
	put("tail.pause_us_p90", pct(pauses, 90), "us")
	put("tail.pause_us_p99", pct(pauses, 99), "us")
	put("tail.cycle_us_p90", pct(cycles, 90), "us")
	put("tail.cycle_us_p99", pct(cycles, 99), "us")
	timing("guestos.work_us", "core.epoch_us")
	timing("core.pause_us", "core.epoch_us")
	timing("core.self_us", "core.epoch_us")
	timing("core.pause_self_us", "core.pause_us")
	timing("detect.window_us", "core.pause_us")
	for _, m := range mods {
		timing("detect."+m+"_us", "core.pause_us")
	}
	put("detect.parallelism", ratio(acc.sums["detect.modules_us"], acc.sums["detect.window_us"]), "x")
	for _, c := range commitSpans {
		timing(c.metric, "core.pause_us")
	}
	put("guestos.clone_state_us", acc.p50("guestos.clone_state_us"), "us")
	put("guestos.clone_state_share", 100*ratio(acc.p50("guestos.clone_state_us"), acc.p50("core.epoch_us")), "%")
	put("crimes.launch_ms", pct(launches, 50), "ms")
	put("incident.epoch_ms_p50", acc.p50("incident.epoch_ms"), "ms")
	put("incident.epoch_ms_p90", pct(acc.vals["incident.epoch_ms"], 90), "ms")
	put("analyze.respond_ms", acc.p50("analyze.respond_ms"), "ms")
	put("analyze.respond_share", acc.share("analyze.respond_ms", "incident.epoch_ms"), "%")
	put("volatility.postmortem_ms", acc.p50("volatility.postmortem_ms"), "ms")
	put("volatility.postmortem_share", acc.share("volatility.postmortem_ms", "incident.epoch_ms"), "%")

	// Fleet: each VM's protected epoch in the untraced pass, and how far
	// apart the VMs sit.
	var fast, slow float64
	for i := 0; i < 4; i++ {
		var durs []float64
		if i < len(plain.vm) {
			for _, d := range plain.vm[i].durs {
				durs = append(durs, float64(d)/1e3)
			}
		}
		put(fmt.Sprintf("fleet.vm%d_epoch_us", i), pct(durs, 50), "us")
		if len(durs) > 0 {
			m := mean(durs)
			if fast == 0 || m < fast {
				fast = m
			}
			if m > slow {
				slow = m
			}
		}
	}
	put("fleet.epoch_spread", ratio(slow, fast), "x")

	// Exact counts, per epoch.
	var sum countRow
	epochs, remoteEpochs := 0, 0
	for _, s := range traced.vm {
		sum.add(s.sum)
		epochs += len(s.durs)
		remoteEpochs += s.remoteEpochs
	}
	per := func(v int64) float64 { return ratio(float64(v), float64(epochs)) }
	put("checkpoint.dirty_pages", per(int64(sum.Dirty)), "count")
	put("vmi.nodes_walked", per(int64(sum.Nodes)), "count")
	put("vmi.canaries_checked", per(int64(sum.Canaries)), "count")
	put("hv.map_page", per(int64(sum.HC.MapPage)), "count")
	put("hv.unmap_page", per(int64(sum.HC.UnmapPage)), "count")
	put("hv.translate", per(int64(sum.HC.Translate)), "count")
	put("hv.dirty_read", per(int64(sum.HC.DirtyRead)), "count")
	put("hv.event_config", per(int64(sum.HC.EventConfig)), "count")
	put("remus.wire_bytes", per(sum.Local.WireBytes), "B")
	put("remus.raw_bytes", per(sum.Local.RawBytes), "B")
	put("remus.wire_ratio", ratio(float64(sum.Local.WireBytes), float64(sum.Local.RawBytes)), "x")
	put("remus.raw_pages", per(int64(sum.Local.RawPages)), "count")
	put("remus.delta_pages", per(int64(sum.Local.DeltaPages)), "count")
	put("remus.same_pages", per(int64(sum.Local.SamePages)), "count")
	put("remus.dup_pages", per(int64(sum.Local.DupPages)), "count")
	put("remus.zero_pages", per(int64(sum.Local.ZeroPages)), "count")
	put("remus.remote_pages", per(int64(sum.RemotePages)), "count")
	put("remus.remote_attributed_share", 100*per(int64(remoteEpochs)), "%")
	if sum.RemotePages > 0 {
		fmt.Printf("remus: remote wire traffic attributed to %d of %d epochs (%d B); a pipelined remote ship "+
			"is counted by whichever commit its Send overlaps\n", remoteEpochs, epochs, sum.Remote.WireBytes)
	}

	// Tracing overhead: the traced pass's throughput with probe time
	// taken out, against the untraced pass over the same inputs.
	plainEPS, _ := plain.rate()
	tracedEPS, _ := traced.rate()
	put("trace.untraced_epochs_per_s", plainEPS, "1/s")
	put("trace.traced_epochs_per_s", tracedEPS, "1/s")
	put("trace.overhead", 100*(1-ratio(tracedEPS, plainEPS)), "%")

	r.printLayers(out, acc)
	for k, v := range r.ledger(acc) {
		out[k] = v
	}
	return out
}

// foldEpoch adds one clean epoch's span tree to the accumulator.
func (r *run) foldEpoch(acc *layerAcc, e span, kids map[int64][]span, mods []string) {
	var leaves [][2]int64
	var pause span
	work := 0.0
	for _, k := range kids[e.ID] {
		switch k.Name {
		case spanWork:
			work += float64(k.dur())
			leaves = append(leaves, [2]int64{k.Start, k.End})
		case spanGateWait:
			leaves = append(leaves, [2]int64{k.Start, k.End})
		case spanPause:
			pause = k
		}
	}
	var inPause [][2]int64
	byName := map[string]float64{}
	modSum := 0.0
	for _, k := range kids[pause.ID] {
		byName[k.Name] += float64(k.dur())
		if strings.HasPrefix(k.Name, detectPrefix) {
			modSum += float64(k.dur())
		}
		inPause = append(inPause, [2]int64{k.Start, k.End})
	}
	leaves = append(leaves, inPause...)
	acc.add("core.epoch_us", float64(e.dur())/1e3)
	acc.add("guestos.work_us", work/1e3)
	acc.add("core.pause_us", float64(pause.dur())/1e3)
	acc.add("core.self_us", float64(e.dur()-covered(e.Start, e.End, leaves))/1e3)
	acc.add("core.pause_self_us", float64(pause.dur()-covered(pause.Start, pause.End, inPause))/1e3)
	acc.add("detect.window_us", float64(detectWindow(kids[pause.ID]))/1e3)
	acc.add("detect.modules_us", modSum/1e3)
	for _, m := range mods {
		acc.add("detect."+m+"_us", byName[detectPrefix+m]/1e3)
	}
	for _, c := range commitSpans {
		acc.add(c.metric, byName[c.span]/1e3)
	}
}

// detectWindow is first module start to last module end.
func detectWindow(spans []span) int64 {
	var lo, hi int64 = -1, -1
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, detectPrefix) {
			continue
		}
		if lo < 0 || s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	if lo < 0 {
		return 0
	}
	return hi - lo
}

func (r *run) printLayers(out map[string]metric, acc *layerAcc) {
	fmt.Printf("per-layer (%s, seed %d, traced half of %.0fs, resolved Workers=%d; timings are p50 over %d clean epochs, %d incidents):\n",
		r.w.name, r.seed, r.seconds, r.workers, len(acc.vals["core.epoch_us"]), len(acc.vals["incident.epoch_ms"]))
	printMetrics(out, nil)
}

// ledger prints, next to each measured layer of the pause, the cost
// model's price for the same epochs (EpochResult.Phases), their ratio,
// and whether the two clocks agree about which layer dominates.
func (r *run) ledger(acc *layerAcc) map[string]metric {
	copyUs := 0.0
	for _, c := range commitSpans[1:] {
		copyUs += acc.sums[c.metric]
	}
	n := float64(len(acc.vals["core.epoch_us"]))
	// The pause's unattributed self time holds the guest-state snapshot
	// (CloneState), which the model does not price; the between-epoch
	// probe estimates it, and the rest is suspend, harvest and resume.
	clone := mean(acc.vals["guestos.clone_state_us"])
	pauseSelf := acc.sums["core.pause_self_us"] / n
	rows := []struct {
		layer, measuredAs string
		measured, priced  float64 // mean µs per epoch
	}{
		{"Suspend+Resume", "pause self minus snapshot (suspend, harvest, resume)", max(pauseSelf-clone, 0), acc.sums["priced.suspend_resume"] / n},
		{"Snapshot", "CloneState probe (not priced)", min(clone, pauseSelf), 0},
		{"VMI", "detect window", acc.sums["detect.window_us"] / n, acc.sums["priced.vmi"] / n},
		{"Bitscan", "mem.bitmap_scan", acc.sums["mem.bitmap_scan_us"] / n, acc.sums["priced.bitscan"] / n},
		{"Map", "not separable from outside", 0, acc.sums["priced.map"] / n},
		{"Copy", "undo+memcopy+diskcopy+remote_enqueue", copyUs / n, acc.sums["priced.copy"] / n},
		{"Total", "gate held (core.pause)", acc.sums["core.pause_us"] / n, acc.sums["priced.total"] / n},
	}
	out := map[string]metric{}
	fmt.Printf("priced-vs-measured ledger (%s, mean per clean epoch, no constant recalibrated):\n", r.w.name)
	fmt.Printf("  %-15s %12s %12s %10s  measured as\n", "phase", "measured_us", "priced_us", "ratio")
	domM, domP := "", ""
	var maxM, maxP float64
	for _, row := range rows {
		rt := ratio(row.measured, row.priced)
		fmt.Printf("  %-15s %12.2f %12.2f %10.3f  %s\n", row.layer, row.measured, row.priced, rt, row.measuredAs)
		key := strings.ToLower(strings.ReplaceAll(row.layer, "+", "_"))
		switch row.layer {
		case "Snapshot": // the model has no term for it
		case "Map":
			out["cost.priced_"+key+"_us"] = metric{row.priced, "us"}
		default:
			out["cost.priced_"+key+"_us"] = metric{row.priced, "us"}
			out["cost."+key+"_ratio"] = metric{rt, "x"}
		}
		if row.layer == "Total" {
			continue
		}
		if row.measured > maxM {
			maxM, domM = row.measured, row.layer
		}
		if row.priced > maxP {
			maxP, domP = row.priced, row.layer
		}
	}
	agree := 0.0
	if domM == domP {
		agree = 1
		fmt.Printf("  dominant layer: %s on both clocks\n", domM)
	} else {
		fmt.Printf("  DISAGREE on the dominant layer: measured says %s, priced says %s\n", domM, domP)
	}
	out["cost.dominant_agree"] = metric{agree, "bool"}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
