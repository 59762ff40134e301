package cost

import (
	"fmt"
	"strings"
)

// This file is the single definition of every per-epoch counter set:
// the producers count straight into these types, the trace carries them
// (their JSON keys are the trace keys), the controller exports them as
// metric series through each set's field table, and fleet and cluster
// roll-ups sum them through Totals. Adding a counter means adding the
// field, its line in Add and Sub, and its Field entry — all here; the
// table test fails if any of the three is missed.

// Field names one counter of set T: the metric series it is exported
// as and how to read it. A Field with an empty Metric is a bookkeeping
// counter that is priced and traced but not exported as a series.
type Field[T any] struct {
	Metric string // series name, e.g. "crimes_cow_total"
	Label  string // label key that tells the set's series apart
	Value  string // label value
	Get    func(T) int64
}

// sub is a - b clamped at zero: every Sub derives one interval from two
// cumulative snapshots, and a source destroyed between them (a remote
// backup torn down mid-epoch takes its attributed hypercalls with it)
// must not produce a negative count.
func sub[N int | int64](a, b N) N {
	if a < b {
		return 0
	}
	return a - b
}

// Hypercalls counts the hypervisor operations a client performed, so
// experiments can price them with a cost model.
type Hypercalls struct {
	MapPage     int `json:"map_page,omitempty"`     // per-page foreign map operations
	UnmapPage   int `json:"unmap_page,omitempty"`   // per-page unmap operations
	Translate   int `json:"translate,omitempty"`    // PFN-to-MFN translation lookups via hypercall
	DirtyRead   int `json:"dirty_read,omitempty"`   // dirty-bitmap harvest hypercalls
	EventConfig int `json:"event_config,omitempty"` // memory-event (un)watch configuration calls
}

// Add accumulates another counter set into h.
func (h *Hypercalls) Add(o Hypercalls) {
	h.MapPage += o.MapPage
	h.UnmapPage += o.UnmapPage
	h.Translate += o.Translate
	h.DirtyRead += o.DirtyRead
	h.EventConfig += o.EventConfig
}

// Sub returns h minus an earlier snapshot o, clamped at zero.
func (h Hypercalls) Sub(o Hypercalls) Hypercalls {
	return Hypercalls{
		MapPage:     sub(h.MapPage, o.MapPage),
		UnmapPage:   sub(h.UnmapPage, o.UnmapPage),
		Translate:   sub(h.Translate, o.Translate),
		DirtyRead:   sub(h.DirtyRead, o.DirtyRead),
		EventConfig: sub(h.EventConfig, o.EventConfig),
	}
}

// Total sums the counters.
func (h Hypercalls) Total() int {
	return h.MapPage + h.UnmapPage + h.Translate + h.DirtyRead + h.EventConfig
}

// HypercallFields is the Hypercalls field table.
var HypercallFields = []Field[Hypercalls]{
	{"crimes_hypercalls_total", "op", "map_page", func(h Hypercalls) int64 { return int64(h.MapPage) }},
	{"crimes_hypercalls_total", "op", "unmap_page", func(h Hypercalls) int64 { return int64(h.UnmapPage) }},
	{"crimes_hypercalls_total", "op", "translate", func(h Hypercalls) int64 { return int64(h.Translate) }},
	{"crimes_hypercalls_total", "op", "dirty_read", func(h Hypercalls) int64 { return int64(h.DirtyRead) }},
	{"crimes_hypercalls_total", "op", "event_config", func(h Hypercalls) int64 { return int64(h.EventConfig) }},
}

// ScanCacheCounts are the real scan-path cache operation counts one
// epoch's audit produced: page-cache traffic from hv.CachedMapping and
// walk-memo traffic from vmi.WalkMemo.
type ScanCacheCounts struct {
	CacheHits   int `json:"hits,omitempty"`        // page reads served by a live mapping
	CacheMisses int `json:"misses,omitempty"`      // page reads that performed a MapPage
	CacheUnmaps int `json:"unmaps,omitempty"`      // mappings dropped (evicted, invalidated, or flushed)
	CacheSwept  int `json:"swept,omitempty"`       // cached entries examined by invalidation sweeps
	MemoHits    int `json:"memo_hits,omitempty"`   // structure walks answered from the memo
	MemoMisses  int `json:"memo_misses,omitempty"` // structure walks that ran against guest memory
}

// Add accumulates another counter set into s.
func (s *ScanCacheCounts) Add(o ScanCacheCounts) {
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheUnmaps += o.CacheUnmaps
	s.CacheSwept += o.CacheSwept
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
}

// Sub returns s minus an earlier snapshot o, clamped at zero.
func (s ScanCacheCounts) Sub(o ScanCacheCounts) ScanCacheCounts {
	return ScanCacheCounts{
		CacheHits:   sub(s.CacheHits, o.CacheHits),
		CacheMisses: sub(s.CacheMisses, o.CacheMisses),
		CacheUnmaps: sub(s.CacheUnmaps, o.CacheUnmaps),
		CacheSwept:  sub(s.CacheSwept, o.CacheSwept),
		MemoHits:    sub(s.MemoHits, o.MemoHits),
		MemoMisses:  sub(s.MemoMisses, o.MemoMisses),
	}
}

// ScanCacheFields is the ScanCacheCounts field table.
var ScanCacheFields = []Field[ScanCacheCounts]{
	{"crimes_scan_cache_total", "op", "hit", func(s ScanCacheCounts) int64 { return int64(s.CacheHits) }},
	{"crimes_scan_cache_total", "op", "miss", func(s ScanCacheCounts) int64 { return int64(s.CacheMisses) }},
	{"crimes_scan_cache_total", "op", "unmap", func(s ScanCacheCounts) int64 { return int64(s.CacheUnmaps) }},
	{"crimes_scan_cache_total", "op", "sweep", func(s ScanCacheCounts) int64 { return int64(s.CacheSwept) }},
	{"crimes_scan_cache_total", "op", "memo_hit", func(s ScanCacheCounts) int64 { return int64(s.MemoHits) }},
	{"crimes_scan_cache_total", "op", "memo_miss", func(s ScanCacheCounts) int64 { return int64(s.MemoMisses) }},
}

// CoWCounts are the real copy-on-write commit counts one epoch
// produced. All three are deterministic functions of the guest's
// behavior — the background copier's racy eager/lazy split never
// appears here, so CoW pricing is reproducible run to run.
type CoWCounts struct {
	ArmedPages  int `json:"armed,omitempty"`        // dirty pages write-protected at this commit
	WriteFaults int `json:"write_faults,omitempty"` // write faults taken on armed pages since the previous commit
	DrainPages  int `json:"drained,omitempty"`      // previous commit's armed pages settled lazily (armed - faulted)
}

// Add accumulates another counter set into c.
func (c *CoWCounts) Add(o CoWCounts) {
	c.ArmedPages += o.ArmedPages
	c.WriteFaults += o.WriteFaults
	c.DrainPages += o.DrainPages
}

// Sub returns c minus an earlier snapshot o, clamped at zero.
func (c CoWCounts) Sub(o CoWCounts) CoWCounts {
	return CoWCounts{
		ArmedPages:  sub(c.ArmedPages, o.ArmedPages),
		WriteFaults: sub(c.WriteFaults, o.WriteFaults),
		DrainPages:  sub(c.DrainPages, o.DrainPages),
	}
}

// CoWFields is the CoWCounts field table.
var CoWFields = []Field[CoWCounts]{
	{"crimes_cow_total", "op", "armed", func(c CoWCounts) int64 { return int64(c.ArmedPages) }},
	{"crimes_cow_total", "op", "write_fault", func(c CoWCounts) int64 { return int64(c.WriteFaults) }},
	{"crimes_cow_total", "op", "drained", func(c CoWCounts) int64 { return int64(c.DrainPages) }},
}

// ReplicationCounts are the v2 replication wire protocol's real counts:
// the conduit accumulates them cumulatively, and one epoch's traffic is
// the difference of two snapshots. RawBytes is what the v1 protocol
// would have shipped for the same batches, so RawBytes-WireBytes is the
// protocol's saving. All fields stay zero in raw mode. The fields carry
// no JSON tags: BENCH_remus.json and the trace's repl object use the Go
// field names.
type ReplicationCounts struct {
	Batches      int   // checkpoint batches sent
	Pages        int   // pages carried (each one content-hashed)
	RawPages     int   // full raw records
	DeltaPages   int   // XOR-delta records
	SamePages    int   // unchanged-page references
	DupPages     int   // cross-page duplicate references
	ZeroPages    int   // zero-page references
	EncodedPages int   // pages run through the XOR encoder (deltas + raw fallbacks)
	WireBytes    int64 // bytes actually on the wire
	RawBytes     int64 // bytes the v1 raw protocol would have shipped
}

// Add accumulates another counter set into r.
func (r *ReplicationCounts) Add(o ReplicationCounts) {
	r.Batches += o.Batches
	r.Pages += o.Pages
	r.RawPages += o.RawPages
	r.DeltaPages += o.DeltaPages
	r.SamePages += o.SamePages
	r.DupPages += o.DupPages
	r.ZeroPages += o.ZeroPages
	r.EncodedPages += o.EncodedPages
	r.WireBytes += o.WireBytes
	r.RawBytes += o.RawBytes
}

// Sub returns r minus an earlier snapshot o, clamped at zero.
func (r ReplicationCounts) Sub(o ReplicationCounts) ReplicationCounts {
	return ReplicationCounts{
		Batches:      sub(r.Batches, o.Batches),
		Pages:        sub(r.Pages, o.Pages),
		RawPages:     sub(r.RawPages, o.RawPages),
		DeltaPages:   sub(r.DeltaPages, o.DeltaPages),
		SamePages:    sub(r.SamePages, o.SamePages),
		DupPages:     sub(r.DupPages, o.DupPages),
		ZeroPages:    sub(r.ZeroPages, o.ZeroPages),
		EncodedPages: sub(r.EncodedPages, o.EncodedPages),
		WireBytes:    sub(r.WireBytes, o.WireBytes),
		RawBytes:     sub(r.RawBytes, o.RawBytes),
	}
}

// Reduction is the fraction of raw bytes the wire protocol saved
// (0 when nothing was shipped).
func (r ReplicationCounts) Reduction() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 1 - float64(r.WireBytes)/float64(r.RawBytes)
}

// ReplicationFields is the ReplicationCounts field table. Batches,
// Pages and EncodedPages price the protocol's CPU but are not exported.
var ReplicationFields = []Field[ReplicationCounts]{
	{Get: func(r ReplicationCounts) int64 { return int64(r.Batches) }},
	{Get: func(r ReplicationCounts) int64 { return int64(r.Pages) }},
	{"crimes_remus_pages_total", "op", "raw", func(r ReplicationCounts) int64 { return int64(r.RawPages) }},
	{"crimes_remus_pages_total", "op", "delta", func(r ReplicationCounts) int64 { return int64(r.DeltaPages) }},
	{"crimes_remus_pages_total", "op", "same", func(r ReplicationCounts) int64 { return int64(r.SamePages) }},
	{"crimes_remus_pages_total", "op", "dup", func(r ReplicationCounts) int64 { return int64(r.DupPages) }},
	{"crimes_remus_pages_total", "op", "zero", func(r ReplicationCounts) int64 { return int64(r.ZeroPages) }},
	{Get: func(r ReplicationCounts) int64 { return int64(r.EncodedPages) }},
	{"crimes_remus_bytes_total", "kind", "wire", func(r ReplicationCounts) int64 { return r.WireBytes }},
	{"crimes_remus_bytes_total", "kind", "raw", func(r ReplicationCounts) int64 { return r.RawBytes }},
}

// Repl is the epoch's replication traffic across both conduits, local
// and remote.
func (c Counts) Repl() ReplicationCounts {
	r := c.LocalRepl
	r.Add(c.RemoteRepl)
	return r
}

// Totals is one cumulative record of every counter set: a controller's
// running totals, one VM's row in a fleet report, and the fleet's
// roll-up are all this one type, summed with one Add.
type Totals struct {
	// Hypercalls is the attributed hypercall footprint.
	Hypercalls Hypercalls
	// ScanCache is the scan-path cache activity; zero when the scan
	// cache is off.
	ScanCache ScanCacheCounts
	// CoW is the copy-on-write commit activity; zero when CoW is off.
	CoW CoWCounts
	// Replication is the delta-replication wire activity across the
	// local and remote conduits; zero under the raw wire protocol.
	Replication ReplicationCounts
}

// Add accumulates another record into t.
func (t *Totals) Add(o Totals) {
	t.Hypercalls.Add(o.Hypercalls)
	t.ScanCache.Add(o.ScanCache)
	t.CoW.Add(o.CoW)
	t.Replication.Add(o.Replication)
}

// Summary renders one report line per mode that did work — scan cache,
// CoW, replication — and nothing for a set that stayed all zero, so a
// run with every mode off prints nothing. live describes the scan
// cache's current mapping footprint in pages ("60" fleet-wide,
// "20/2048" as used/capacity for one VM).
func (t Totals) Summary(live string) string {
	var b strings.Builder
	if sc := t.ScanCache; sc != (ScanCacheCounts{}) {
		rate := 0.0
		if reads := sc.CacheHits + sc.CacheMisses; reads > 0 {
			rate = 100 * float64(sc.CacheHits) / float64(reads)
		}
		fmt.Fprintf(&b, "scan cache: hits=%d misses=%d (%.1f%% hit) unmaps=%d swept=%d memo=%d/%d live=%s pages\n",
			sc.CacheHits, sc.CacheMisses, rate, sc.CacheUnmaps, sc.CacheSwept,
			sc.MemoHits, sc.MemoHits+sc.MemoMisses, live)
	}
	if cw := t.CoW; cw != (CoWCounts{}) {
		fmt.Fprintf(&b, "cow: armed=%d write_faults=%d drained=%d\n",
			cw.ArmedPages, cw.WriteFaults, cw.DrainPages)
	}
	if rp := t.Replication; rp != (ReplicationCounts{}) {
		fmt.Fprintf(&b, "replication: wire=%d raw=%d (%.1f%% cut) pages raw=%d delta=%d same=%d dup=%d zero=%d\n",
			rp.WireBytes, rp.RawBytes, 100*rp.Reduction(),
			rp.RawPages, rp.DeltaPages, rp.SamePages, rp.DupPages, rp.ZeroPages)
	}
	return b.String()
}
