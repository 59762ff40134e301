// Package core implements the CRIMES controller: the epoch loop that
// ties speculative execution, output buffering, detection, continuous
// checkpointing, and post-attack analysis together (Figure 1).
//
// Each epoch: the guest executes speculatively with outputs buffered;
// at the epoch boundary the domain is paused, the Detector audits the
// VM through introspection (scoped to the epoch's dirty pages), and on
// a passing audit the Checkpointer commits the epoch and the buffered
// outputs are released. On a failing audit the outputs are discarded,
// dumps are captured, and the Analyzer rolls back and replays the epoch
// to pinpoint the attack before producing a forensic report.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analyze"
	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/netbuf"
	"repro/internal/obs"
	"repro/internal/remus"
	"repro/internal/slo"
	"repro/internal/vdisk"
	"repro/internal/vmi"
	"repro/internal/volatility"
)

// ErrHalted is returned from RunEpoch after an incident paused the VM.
var ErrHalted = errors.New("core: VM halted by incident")

// Gate bounds how many co-located controllers hold their domains paused
// at once. Acquire blocks until a pause slot is free; Release returns
// it. A fleet scheduler shares one Gate across the VMs on a host so at
// most K of them are inside the pause window (paused or committing) at
// any moment, staggering epoch boundaries and bounding contention on
// the shared pause-path worker pool.
type Gate interface {
	Acquire()
	Release()
}

// ScanMode selects when the audit runs relative to the checkpoint.
type ScanMode int

// Scan scheduling modes.
const (
	// ScanSync audits before committing the epoch: combined with
	// Synchronous buffering this is the paper's zero-window-of-
	// vulnerability configuration.
	ScanSync ScanMode = iota + 1
	// ScanAsync audits the previous checkpoint (the backup domain)
	// while the VM keeps running — cheaper, but evidence is found one
	// epoch late and outputs may already have left (§5.3, future work).
	ScanAsync
)

// String renders the scan mode.
func (m ScanMode) String() string {
	if m == ScanAsync {
		return "async"
	}
	return "sync"
}

// ScanCacheMode selects the audit's guest-memory read strategy.
type ScanCacheMode int

// Scan-cache modes. The zero value is ScanCacheOff, so existing
// configurations are untouched: with the cache off the audit reads the
// domain directly, exactly as before, and every priced number is
// bit-identical to previous releases (mirroring how Workers=1
// reproduces the serial pause path).
const (
	// ScanCacheOff reads guest memory directly with no modelled mapping
	// cost — today's behavior, byte-for-byte.
	ScanCacheOff ScanCacheMode = iota
	// ScanCacheUncached routes the audit through per-epoch foreign
	// mappings: every page the scan touches pays one MapPage, and all
	// mappings are torn down after each audit. This models an
	// introspection stack with no page cache (LibVMI with its cache
	// disabled) and is the baseline the cached mode is measured against.
	ScanCacheUncached
	// ScanCacheOn keeps a bounded LRU of foreign mappings alive across
	// epochs and memoizes kernel-structure walks, both invalidated at
	// each epoch boundary by the harvested dirty bitmap. Steady-state
	// scan cost becomes O(dirty pages intersecting structures).
	ScanCacheOn
)

// String renders the scan-cache mode.
func (m ScanCacheMode) String() string {
	switch m {
	case ScanCacheUncached:
		return "uncached"
	case ScanCacheOn:
		return "on"
	default:
		return "off"
	}
}

// ParseScanCacheMode parses "off", "uncached", or "on".
func ParseScanCacheMode(s string) (ScanCacheMode, error) {
	switch s {
	case "off", "":
		return ScanCacheOff, nil
	case "uncached":
		return ScanCacheUncached, nil
	case "on":
		return ScanCacheOn, nil
	default:
		return 0, fmt.Errorf("core: unknown scan-cache mode %q (want off|uncached|on)", s)
	}
}

// RemusMode selects the replication conduit's wire protocol.
type RemusMode int

// Replication wire-protocol modes. The zero value is RemusRaw, so
// existing configurations are untouched: the conduit ships every dirty
// page as a full encrypted copy, exactly as before, and every priced
// number is bit-identical to previous releases (mirroring how
// ScanCacheOff preserves the direct-read audit).
const (
	// RemusRaw ships full 4 KiB pages — today's v1 wire protocol,
	// byte-for-byte.
	RemusRaw RemusMode = iota
	// RemusDelta keeps a bounded shipped-version table on the sender and
	// emits XOR-delta records against the last-shipped copy of each
	// page, falling back to raw when a page has no table entry or the
	// delta does not compress.
	RemusDelta
	// RemusDeltaDedup adds content-hash deduplication on top of delta
	// encoding: unchanged pages, all-zero pages, and cross-page
	// duplicates ship as constant-size references.
	RemusDeltaDedup
)

// String renders the replication mode.
func (m RemusMode) String() string {
	switch m {
	case RemusDelta:
		return "delta"
	case RemusDeltaDedup:
		return "delta+dedup"
	default:
		return "raw"
	}
}

// ParseRemusMode parses "raw", "delta", or "delta+dedup".
func ParseRemusMode(s string) (RemusMode, error) {
	switch s {
	case "raw", "":
		return RemusRaw, nil
	case "delta":
		return RemusDelta, nil
	case "delta+dedup", "dedup":
		return RemusDeltaDedup, nil
	default:
		return 0, fmt.Errorf("core: unknown remus mode %q (want raw|delta|delta+dedup)", s)
	}
}

// wire maps the config-level mode onto the conduit's wire protocol.
func (m RemusMode) wire() remus.Mode {
	switch m {
	case RemusDelta:
		return remus.ModeDelta
	case RemusDeltaDedup:
		return remus.ModeDeltaDedup
	default:
		return remus.ModeRaw
	}
}

// Config configures a CRIMES controller.
type Config struct {
	// EpochInterval is the speculative execution window (10 ms to a few
	// hundred ms, §3.1).
	EpochInterval time.Duration
	// Safety selects Synchronous (buffered) or BestEffort outputs.
	Safety netbuf.Mode
	// Scan selects synchronous or asynchronous audits.
	Scan ScanMode
	// Opt is the checkpointing optimization level.
	Opt cost.Optimization
	// Model prices operations in virtual time.
	Model cost.Model
	// Modules are the detector scan modules.
	Modules []detect.Module
	// Deliverer receives released outputs; nil collects them internally.
	Deliverer netbuf.Deliverer
	// HistoryDepth keeps the last N checkpoints for forensics instead
	// of only the most recent one (the paper's proposed extension).
	HistoryDepth int
	// ReplayOnIncident enables rollback-and-replay pinpointing for
	// buffer-overflow incidents (§3.3 "optional").
	ReplayOnIncident bool
	// DiskBlocks, when positive, attaches a virtual block device of
	// that size to the guest and checkpoints it alongside memory (the
	// paper's disk-snapshot extension).
	DiskBlocks int
	// MaxRetries bounds per-operation retries of transiently failing
	// hypervisor and conduit operations within one epoch (default 3;
	// negative disables retries entirely).
	MaxRetries int
	// RetryBackoff is the initial virtual-time delay charged between
	// retries of a transiently failing operation; it doubles on each
	// successive retry (default 1 ms).
	RetryBackoff time.Duration
	// Workers is the pause-path parallelism: the dirty-bitmap scan, undo
	// capture, and page copy shard across this many goroutines, detector
	// modules scan concurrently, the disk copy overlaps the memory copy,
	// and remote replication is pipelined out of the pause window. The
	// default (0) is runtime.GOMAXPROCS(0); 1 (or negative) forces the
	// exact serial path, which reproduces the paper's Table 1 / Figure 3
	// / Figure 4 numbers bit-for-bit.
	Workers int
	// ScanCache selects the audit's read strategy: ScanCacheOff (the
	// default — direct reads, no modelled mapping cost, bit-identical to
	// previous releases), ScanCacheUncached (per-epoch mappings, the
	// no-page-cache baseline), or ScanCacheOn (cross-epoch LRU mapping
	// cache plus incremental walk memo, invalidated by the dirty
	// bitmap). Only the synchronous audit reads through the cache; the
	// asynchronous mode scans the backup domain, whose contents change
	// wholesale at each commit with no usable dirty bitmap, so it
	// ignores this setting.
	ScanCache ScanCacheMode
	// ScanCacheCapacity bounds the page-mapping cache, in pages; 0 (or
	// a value past the domain size) caches up to the whole domain. A
	// fleet divides its host-wide mapping budget across VMs with this.
	ScanCacheCapacity int
	// CoW enables the copy-on-write commit strategy: under pause the
	// commit captures only dirty metadata (the dirty PFN list and undo
	// intent), write-protects those pages via the hypervisor's memory-
	// event machinery, and resumes the guest immediately. Pages are then
	// copied into the backup lazily by a background copier; a guest
	// write to a not-yet-copied page takes a fault that performs an
	// eager copy-before-write, so the backup still converges to the
	// exact paused-instant snapshot. Requires Opt >= cost.Premap (the
	// copier and fault handler use the premapped global frames) and the
	// synchronous audit (Scan == ScanSync). The zero value (off) keeps
	// the eager commit path bit-for-bit identical to previous releases.
	CoW bool
	// Remus selects the replication conduit's wire protocol: RemusRaw
	// (the default — full encrypted page copies, bit-identical to
	// previous releases), RemusDelta (XOR-delta encoding against a
	// sender-side shipped-version table), or RemusDeltaDedup (delta
	// encoding plus content-hash deduplication of unchanged, zero, and
	// duplicate pages). Both local checkpoint shipping and remote
	// replication use the selected protocol.
	Remus RemusMode
	// RemusBudgetPages bounds the sender's shipped-version table, in
	// pages; 0 (or negative) keeps a full copy of every shipped page.
	// A fleet divides its host-side memory budget across VMs with this.
	RemusBudgetPages int
	// PauseGate, when non-nil, is acquired immediately before the
	// domain pauses at the epoch boundary and released when RunEpoch
	// returns — by which point the domain has resumed, unwound, or been
	// deliberately halted. A fleet controller shares one gate across
	// co-located VMs to bound how many are paused or committing at
	// once; a halted VM never retains its slot, so one incident cannot
	// stall its neighbors' epoch loops.
	PauseGate Gate
	// Obs, when non-nil, receives the structured epoch trace (one event
	// per phase: run, pause, scan, commit, replicate, rollback, replay,
	// halt) and per-VM metrics. The nil default is a strict no-op: no
	// events, no metrics, and no change to any cost-model output —
	// emission never touches the virtual clock, so priced pause times
	// are identical with and without an observer.
	Obs *obs.Observer
	// EpochJitter randomizes each epoch boundary: epoch N runs for
	// EpochInterval plus a deterministic pseudo-random offset in
	// [-EpochJitter, +EpochJitter] derived from JitterSeed and N. An
	// epoch-aware attacker who times its cleanup against the nominal
	// interval can no longer predict when the audit lands, so a
	// hide-then-restore scheduled "just before the boundary" is caught
	// mid-attack with probability proportional to the jitter window.
	// The zero value keeps every boundary at exactly EpochInterval —
	// bit-for-bit identical to previous releases.
	EpochJitter time.Duration
	// JitterSeed seeds the deterministic jitter sequence; runs with the
	// same seed, interval, and jitter reproduce the same boundaries.
	JitterSeed uint64
	// SLO, when non-nil, is the per-VM tail-latency controller: after
	// each clean epoch it reads the epoch's actual interval and priced
	// pause (plus any externally fed client p99) and retunes
	// EpochInterval, Workers, the scan-cache budget, and — when the
	// PauseGate supports Resize — the gate's K for the next epoch. Each
	// controller instance belongs to exactly one VM; fleets construct one
	// per VM. The nil default is a strict no-op (a single nil check per
	// epoch), so an untuned config reproduces every existing benchmark
	// and trace bit-for-bit.
	SLO *slo.Controller
}

func (c *Config) setDefaults() {
	if c.EpochInterval <= 0 {
		c.EpochInterval = 200 * time.Millisecond
	}
	if c.Safety == 0 {
		c.Safety = netbuf.Synchronous
	}
	if c.Scan == 0 {
		c.Scan = ScanSync
	}
	if c.Opt == 0 {
		c.Opt = cost.Full
	}
	if c.Model == (cost.Model{}) {
		c.Model = cost.Default()
	}
	if c.Deliverer == nil {
		c.Deliverer = &netbuf.CollectDeliverer{}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	} else if c.Workers < 0 {
		c.Workers = 1
	}
}

// EpochIntervalAt returns the actual speculative-execution window for
// 1-based epoch n: EpochInterval exactly when EpochJitter is zero,
// otherwise EpochInterval plus a deterministic offset in
// [-EpochJitter, +EpochJitter] drawn from a splitmix64 hash of
// (JitterSeed, n). Deterministic so traces, benchmarks, and scenario
// outcomes reproduce across runs.
func (c *Config) EpochIntervalAt(n int) time.Duration {
	if c.EpochJitter <= 0 {
		return c.EpochInterval
	}
	iv := c.EpochInterval + jitterOffset(c.JitterSeed, uint64(n), c.EpochJitter)
	if iv < c.EpochInterval/2 {
		// A pathological jitter (>= interval/2) still leaves a real window.
		iv = c.EpochInterval / 2
	}
	return iv
}

// jitterOffset hashes (seed, n) through a splitmix64 finalizer into a
// duration in [-jitter, +jitter]. No math/rand and no global state: the
// same inputs always give the same boundary.
func jitterOffset(seed, n uint64, jitter time.Duration) time.Duration {
	z := seed + n*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	span := uint64(2*jitter) + 1
	return time.Duration(z%span) - jitter
}

// HistoryEntry is one retained checkpoint.
type HistoryEntry struct {
	Epoch    int
	Snapshot *hv.Snapshot
	State    *guestos.State
}

// Controller is a CRIMES instance protecting one guest.
type Controller struct {
	cfg   Config
	hv    *hv.Hypervisor
	guest *guestos.Guest
	dom   *hv.Domain

	vmiCtx    *vmi.Context
	vmiBackup *vmi.Context
	detector  *detect.Detector
	ckpt      *checkpoint.Checkpointer
	buf       *netbuf.Buffer

	dirty     *mem.Bitmap
	lastState *guestos.State

	// Scan-path acceleration (nil / unused when cfg.ScanCache is off):
	// scanCache is the cross-epoch page-mapping cache the audit reads
	// through, scanMemo the incremental walk memo (ScanCacheOn only).
	scanCache *hv.CachedMapping
	scanMemo  *vmi.WalkMemo

	// cowPrevArmed is the page count armed at the previous successful
	// commit — the pool the next epoch's write faults and lazy drain
	// draw from (zero / unused when cfg.CoW is off).
	cowPrevArmed int

	// totals accumulates every epoch's scan-cache, CoW and replication
	// counters for fleet roll-ups; Totals fills in the hypercalls.
	totals cost.Totals

	epoch      int
	virtualNow time.Duration
	setupTime  time.Duration
	totalPause time.Duration
	halted     bool

	history []HistoryEntry

	// Observability: obs is nil when disabled (every emit is then a
	// single nil check); obsVM labels this VM's events and metric
	// series; met holds the handles resolved once at construction.
	obs   *obs.Observer
	obsVM string
	met   coreMetrics
}

// coreMetrics are the controller's pre-resolved metric handles. All are
// nil (inert) when no metrics registry is configured.
type coreMetrics struct {
	epochs     *obs.Counter
	findings   *obs.Counter
	incidents  *obs.Counter
	retries    *obs.Counter
	pauseNs    *obs.Histogram // priced (virtual) pause per clean epoch
	dirtyPages *obs.Histogram
	gateWaitNs *obs.Histogram // measured wall-clock pause-gate wait

	// One series set per counter set. The scan-cache, CoW and
	// replication sets are registered only when their mode is on, so a
	// mode-off metric dump is unchanged; an unregistered set is inert.
	hc   counterSeries[cost.Hypercalls]
	sc   counterSeries[cost.ScanCacheCounts]
	cow  counterSeries[cost.CoWCounts]
	repl counterSeries[cost.ReplicationCounts]

	// SLO-controller series; registered only when a controller is
	// configured so untuned metric dumps are unchanged.
	sloSteps *obs.Counter
}

// counterSeries are the metric handles of one counter set, resolved
// from its cost field table (nil for fields that are not exported).
type counterSeries[T any] struct {
	fields []cost.Field[T]
	ctrs   []*obs.Counter
}

func newCounterSeries[T any](reg *obs.Registry, vm string, fields []cost.Field[T]) counterSeries[T] {
	s := counterSeries[T]{fields: fields, ctrs: make([]*obs.Counter, len(fields))}
	for i, f := range fields {
		if f.Metric != "" {
			s.ctrs[i] = reg.Counter(f.Metric, "vm", vm, f.Label, f.Value)
		}
	}
	return s
}

// add folds one epoch's counts into the series.
func (s counterSeries[T]) add(v T) {
	for i, c := range s.ctrs {
		c.Add(s.fields[i].Get(v))
	}
}

// New creates a controller: it initializes introspection (init +
// preprocess), wires the output buffer into the guest, creates the
// backup domain and performs the initial synchronization.
func New(h *hv.Hypervisor, g *guestos.Guest, cfg Config) (*Controller, error) {
	cfg.setDefaults()
	if cfg.CoW {
		if cfg.Opt < cost.Premap {
			return nil, fmt.Errorf("core: CoW commit requires Opt >= Premap (got %v): the background copier and fault handler run over the premapped global frames", cfg.Opt)
		}
		if cfg.Scan != ScanSync {
			return nil, fmt.Errorf("core: CoW commit requires the synchronous audit: the async audit scans the backup, which is still converging while the guest runs")
		}
	}
	c := &Controller{
		cfg:   cfg,
		hv:    h,
		guest: g,
		dom:   g.Domain(),
		dirty: mem.NewBitmap(g.Domain().Pages()),
	}

	var reader vmi.PhysReader = c.dom
	if cfg.ScanCache != ScanCacheOff {
		c.scanCache = hv.NewCachedMapping(c.dom, cfg.ScanCacheCapacity)
		reader = c.scanCache
	}
	ctx, err := vmi.NewContext(reader, g.Profile(), g.SystemMap())
	if err != nil {
		return nil, fmt.Errorf("core: vmi init: %w", err)
	}
	if err := ctx.Preprocess(); err != nil {
		return nil, fmt.Errorf("core: vmi preprocess: %w", err)
	}
	switch cfg.ScanCache {
	case ScanCacheOn:
		// Preprocess warmed the cache; keep those mappings and start
		// memoizing walks from here (known-good state is now captured).
		c.scanMemo = vmi.NewWalkMemo()
		ctx.SetMemo(c.scanMemo)
	case ScanCacheUncached:
		// The uncached baseline maps per epoch: drop the preprocess
		// warmup so every audit starts cold.
		c.scanCache.Flush()
	}
	c.vmiCtx = ctx
	c.setupTime += time.Duration(cfg.Model.VMIInitNs + cfg.Model.VMIPreprocessNs)

	c.detector = detect.NewDetector(cfg.Modules...)
	c.detector.SetWorkers(cfg.Workers)
	c.buf = netbuf.New(cfg.Safety, cfg.Deliverer)
	g.SetOutputSink(c.buf)

	if c.ckpt, err = checkpoint.New(h, c.dom, checkpoint.Params{
		Opt:              cfg.Opt,
		Workers:          cfg.Workers,
		Remus:            cfg.Remus.wire(),
		RemusBudgetPages: cfg.RemusBudgetPages,
	}); err != nil {
		return nil, err
	}
	if cfg.DiskBlocks > 0 {
		disk := vdisk.New(cfg.DiskBlocks)
		g.AttachDisk(disk)
		if err := c.ckpt.AttachDisk(disk); err != nil {
			return nil, err
		}
	}
	if cfg.CoW {
		if err := c.ckpt.EnableCoW(); err != nil {
			return nil, err
		}
	}
	if cfg.Opt >= cost.Premap {
		c.setupTime += cfg.Model.PremapStartup(2 * c.dom.Pages())
	}
	if cfg.Scan == ScanAsync {
		bctx, err := vmi.NewContext(c.ckpt.Backup(), g.Profile(), g.SystemMap())
		if err != nil {
			return nil, fmt.Errorf("core: backup vmi init: %w", err)
		}
		if err := bctx.Preprocess(); err != nil {
			return nil, fmt.Errorf("core: backup vmi preprocess: %w", err)
		}
		c.vmiBackup = bctx
	}
	c.lastState = g.CloneState()
	if cfg.Obs.Enabled() {
		c.obs = cfg.Obs
		c.obsVM = c.dom.Name()
		reg := cfg.Obs.Registry()
		vm := c.obsVM
		c.met = coreMetrics{
			epochs:     reg.Counter("crimes_epochs_total", "vm", vm),
			findings:   reg.Counter("crimes_findings_total", "vm", vm),
			incidents:  reg.Counter("crimes_incidents_total", "vm", vm),
			retries:    reg.Counter("crimes_retries_total", "vm", vm),
			pauseNs:    reg.Histogram("crimes_pause_virtual_ns", obs.DurationBuckets(), "vm", vm),
			dirtyPages: reg.Histogram("crimes_dirty_pages", obs.PageBuckets(), "vm", vm),
			gateWaitNs: reg.Histogram("crimes_gate_wait_ns", obs.DurationBuckets(), "vm", vm),
			hc:         newCounterSeries(reg, vm, cost.HypercallFields),
		}
		if cfg.ScanCache != ScanCacheOff {
			c.met.sc = newCounterSeries(reg, vm, cost.ScanCacheFields)
		}
		if cfg.CoW {
			c.met.cow = newCounterSeries(reg, vm, cost.CoWFields)
		}
		if cfg.Remus != RemusRaw {
			c.met.repl = newCounterSeries(reg, vm, cost.ReplicationFields)
		}
		if cfg.SLO.Enabled() {
			c.met.sloSteps = reg.Counter("crimes_slo_steps_total", "vm", vm)
		}
		c.ckpt.SetObserver(cfg.Obs, vm)
	}
	// Seed the SLO controller with the system's actual starting knobs so
	// its first decision steps relative to the configured state.
	cfg.SLO.Init(slo.Tunables{
		Interval:   cfg.EpochInterval,
		Workers:    cfg.Workers,
		CachePages: cfg.ScanCacheCapacity,
	})
	return c, nil
}

// emit fills the event's identity fields (VM, epoch, virtual clock) and
// forwards it to the observer's trace. Emission is strictly additive:
// it never advances the virtual clock, so priced pause numbers are
// byte-identical with tracing on or off.
func (c *Controller) emit(ev obs.Event) {
	if c.obs == nil {
		return
	}
	ev.VM = c.obsVM
	ev.Epoch = c.epoch
	ev.VirtualNs = int64(c.virtualNow)
	c.obs.Emit(ev)
}

// domainCalls sums the per-domain hypercall attribution across every
// domain this VM's checkpointer touches (primary, backup, remote).
func (c *Controller) domainCalls() hv.Hypercalls {
	var total hv.Hypercalls
	for _, d := range c.ckpt.Domains() {
		total.Add(d.Calls())
	}
	return total
}

// scanCounts reads the scan cache's and walk memo's cumulative
// counters; one epoch's activity is the difference of two reads.
func (c *Controller) scanCounts() cost.ScanCacheCounts {
	cs := c.scanCache.Stats()
	out := cost.ScanCacheCounts{CacheHits: cs.Hits, CacheMisses: cs.Misses, CacheUnmaps: cs.Unmaps, CacheSwept: cs.Swept}
	if c.scanMemo != nil {
		ms := c.scanMemo.Stats()
		out.MemoHits, out.MemoMisses = ms.Hits, ms.Misses
	}
	return out
}

// cowCounts reads the cumulative CoW counters: pages armed across all
// commits and write faults taken on armed pages.
func (c *Controller) cowCounts() cost.CoWCounts {
	return cost.CoWCounts{
		ArmedPages:  c.ckpt.CoWStats().ArmedPages,
		WriteFaults: int(c.dom.WriteFaults()),
	}
}

// recordEpochMetrics rolls one completed RunEpoch (clean or not) into
// the per-VM metric series.
func (c *Controller) recordEpochMetrics(res *EpochResult, err error) {
	c.met.epochs.Add(1)
	c.met.findings.Add(int64(len(res.Findings)))
	if res.Incident != nil {
		c.met.incidents.Add(1)
	}
	c.met.retries.Add(int64(res.Recovery.Retries))
	if res.Recovery.Unwind != UnwindNone {
		c.obs.Registry().Counter("crimes_unwinds_total", "vm", c.obsVM, "path", res.Recovery.Unwind).Add(1)
	}
	if t := res.Phases.Total(); t > 0 {
		c.met.pauseNs.ObserveDuration(int64(t))
	}
	if err == nil && res.Incident == nil {
		c.met.dirtyPages.Observe(float64(res.Counts.DirtyPages))
	}
}

// Guest returns the protected guest.
func (c *Controller) Guest() *guestos.Guest { return c.guest }

// Buffer returns the output buffer (for inspection in tests and tools).
func (c *Controller) Buffer() *netbuf.Buffer { return c.buf }

// Checkpointer returns the underlying checkpointer.
func (c *Controller) Checkpointer() *checkpoint.Checkpointer { return c.ckpt }

// VirtualTime returns accumulated virtual execution time (epochs plus
// paused intervals).
func (c *Controller) VirtualTime() time.Duration { return c.virtualNow }

// TotalPause returns accumulated virtual paused time.
func (c *Controller) TotalPause() time.Duration { return c.totalPause }

// SetupTime returns the one-time initialization cost (VMI init and
// preprocessing, premapping).
func (c *Controller) SetupTime() time.Duration { return c.setupTime }

// Epoch returns the number of completed epochs.
func (c *Controller) Epoch() int { return c.epoch }

// SLOSteps counts the tuning decisions the SLO controller has taken; 0
// when no controller is configured.
func (c *Controller) SLOSteps() int { return c.cfg.SLO.Steps() }

// EpochIntervalAt returns the (possibly jittered) speculative window the
// controller will use for 1-based epoch n. Workload drivers that plan
// sub-epoch action timing consult this; an in-guest attacker cannot —
// that asymmetry is exactly what Config.EpochJitter buys.
func (c *Controller) EpochIntervalAt(n int) time.Duration { return c.cfg.EpochIntervalAt(n) }

// Totals returns the cumulative counters across all epochs: the
// scan-cache, CoW and replication activity (each all zero when its mode
// is off) and the hypercalls attributed to every domain this VM's
// checkpointer touches. Fleet reporting rolls these up per VM.
func (c *Controller) Totals() cost.Totals {
	t := c.totals
	t.Hypercalls = c.domainCalls()
	return t
}

// ScanCacheLive reports the page-mapping cache's current size and
// capacity in pages (0, 0 when the scan cache is disabled).
func (c *Controller) ScanCacheLive() (used, capacity int) {
	if c.scanCache == nil {
		return 0, 0
	}
	return c.scanCache.Len(), c.scanCache.Cap()
}

// Halted reports whether an incident has stopped the VM.
func (c *Controller) Halted() bool { return c.halted }

// History returns the retained checkpoint history (most recent last).
func (c *Controller) History() []HistoryEntry {
	out := make([]HistoryEntry, len(c.history))
	copy(out, c.history)
	return out
}

// Close releases the checkpointer resources.
func (c *Controller) Close() error { return c.ckpt.Close() }

// EpochResult reports what one epoch did.
type EpochResult struct {
	Epoch    int
	Findings []detect.Finding
	Counts   cost.Counts
	Phases   cost.Phases
	Incident *Incident
	// Commit is the checkpointer's report for this epoch's commit:
	// measured wall-clock phase timings and the pipelined remote-
	// replication window state (in-flight / acked shipments).
	Commit checkpoint.CommitReport
	// VirtualTime is the controller's clock after this epoch.
	VirtualTime time.Duration
	// Interval is the actual speculative window this epoch ran —
	// EpochIntervalAt's jittered value, further retuned when an SLO
	// controller is steering.
	Interval time.Duration
	// Recovery describes the fault-recovery actions the controller took
	// during the epoch (retries, degradations, the unwind path).
	Recovery Recovery
	// ScanCache is the epoch's scan-path cache activity (page-mapping
	// cache plus walk memo); zero when the scan cache is disabled.
	ScanCache cost.ScanCacheCounts
	// CoW is the epoch's copy-on-write commit activity (pages armed at
	// this commit, write faults taken during the epoch, previously
	// armed pages drained lazily); zero when CoW is disabled. The
	// epoch's replication traffic is Counts.Repl().
	CoW cost.CoWCounts
}

// Unwind paths a failing epoch can take; see Recovery.Unwind.
const (
	// UnwindNone: the epoch needed no unwinding.
	UnwindNone = ""
	// UnwindResume: a pre-commit failure; nothing was committed or
	// released, the harvested dirty pages were merged back, and the
	// domain resumed — the next epoch re-audits everything.
	UnwindResume = "resume"
	// UnwindRollback: a mid-commit failure; the epoch's outputs were
	// discarded and the VM was rolled back to the last clean checkpoint
	// and resumed.
	UnwindRollback = "rollback"
	// UnwindHalt: an unrecoverable fault; the VM was deliberately
	// halted and further RunEpoch calls return ErrHalted.
	UnwindHalt = "halt"
)

// Recovery reports how the controller recovered from infrastructure
// faults during one epoch. The zero value means the epoch needed no
// recovery at all.
type Recovery struct {
	// Retries counts transient operation failures that were retried
	// (including remote-replication ship retries inside the commit).
	Retries int
	// Unwind names the unwind path taken when the epoch failed:
	// UnwindNone, UnwindResume, UnwindRollback, or UnwindHalt.
	Unwind string
	// Degradations lists features that were disabled to keep the epoch
	// alive (e.g. remote replication downgraded to local-only).
	Degradations []string
	// Warnings lists non-fatal anomalies (e.g. checkpoint history not
	// retained this epoch).
	Warnings []string
}

// Clean reports whether the epoch completed with no recovery action.
func (r Recovery) Clean() bool {
	return r.Retries == 0 && r.Unwind == UnwindNone &&
		len(r.Degradations) == 0 && len(r.Warnings) == 0
}

// Incident is a failed audit plus the Analyzer's output.
type Incident struct {
	Epoch    int
	Findings []detect.Finding
	Pinpoint *analyze.Pinpoint
	Dumps    *analyze.Dumps
	Report   *volatility.Report
	Timeline Timeline
}

// SaveDumps writes the incident's memory dumps to dir as
// .crimesdump files — the paper's "three full system checkpoints for
// future analysis" (§5.5) — and returns the written paths. They can be
// analyzed offline with cmd/crimes-forensics.
func (inc *Incident) SaveDumps(dir string) ([]string, error) {
	if inc.Dumps == nil {
		return nil, errors.New("core: incident has no dumps")
	}
	var paths []string
	save := func(name string, d *volatility.Dump) error {
		if d == nil {
			return nil
		}
		path := filepath.Join(dir, fmt.Sprintf("epoch%d-%s.crimesdump", inc.Epoch, name))
		if err := d.SaveFile(path); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if err := save("last-good", inc.Dumps.LastGood); err != nil {
		return nil, err
	}
	if err := save("audit-fail", inc.Dumps.AuditFail); err != nil {
		return nil, err
	}
	if err := save("at-attack", inc.Dumps.AtAttack); err != nil {
		return nil, err
	}
	return paths, nil
}

// Timeline prices the detection-and-response sequence of Figure 8.
type Timeline struct {
	// AttackToEpochEnd is the speculative time between the attack op
	// and the epoch boundary where it was caught.
	AttackToEpochEnd time.Duration
	// SuspendAndScan is the pause plus audit cost at detection.
	SuspendAndScan time.Duration
	// ReplayReady is when the rolled-back VM resumed for replay.
	ReplayReady time.Duration
	// MemDump is the Volatility process-dump extraction time.
	MemDump time.Duration
	// CheckpointsToDisk is the time to persist the full system
	// checkpoints for later analysis.
	CheckpointsToDisk time.Duration
}

// RunEpoch speculatively executes one epoch of guest work, then runs
// the audit/commit/respond cycle. After an incident it returns the
// incident result; further calls return ErrHalted.
//
// RunEpoch is transactional with respect to the domain's lifecycle:
// when it returns an error the domain has always been unwound to a
// consistent state — resumed with nothing committed (pre-commit
// failures), rolled back to the last clean checkpoint and resumed
// (mid-commit failures), or deliberately halted (unrecoverable faults
// and incident-response failures). Transient failures are retried with
// bounded virtual-time backoff before any unwind. On error the returned
// result is non-nil whenever the epoch reached the pause boundary; its
// Recovery field reports the retries, degradations, and unwind path.
func (c *Controller) RunEpoch(work func(*guestos.Guest) error) (*EpochResult, error) {
	res, err := c.runEpoch(work)
	if c.obs != nil && res != nil {
		c.recordEpochMetrics(res, err)
	}
	return res, err
}

// runEpoch is RunEpoch's body; the wrapper folds the result into the
// per-VM metrics when observability is enabled.
func (c *Controller) runEpoch(work func(*guestos.Guest) error) (*EpochResult, error) {
	if c.halted {
		return nil, ErrHalted
	}
	c.epoch++
	res := &EpochResult{Epoch: c.epoch}
	var hcBefore hv.Hypercalls
	if c.obs != nil {
		hcBefore = c.domainCalls()
	}
	var cowBefore cost.CoWCounts
	if c.cfg.CoW {
		cowBefore = c.cowCounts()
	}

	// Speculative execution.
	c.guest.BeginEpoch()
	if work != nil {
		if err := work(c.guest); err != nil {
			c.emit(obs.Event{Phase: obs.PhaseRun, Err: err.Error()})
			return nil, fmt.Errorf("core: epoch %d workload: %w", c.epoch, err)
		}
	}
	interval := c.cfg.EpochIntervalAt(c.epoch)
	res.Interval = interval
	c.virtualNow += interval
	c.emit(obs.Event{Phase: obs.PhaseRun, DurNs: int64(interval)})

	// Pause at the epoch boundary. With a PauseGate configured, a pause
	// slot is acquired first and held until RunEpoch returns: the fleet
	// scheduler uses this to stagger epoch boundaries so at most K
	// co-located VMs are paused or committing at once.
	if c.cfg.PauseGate != nil {
		if c.obs != nil {
			gateStart := time.Now()
			c.cfg.PauseGate.Acquire()
			c.met.gateWaitNs.ObserveDuration(int64(time.Since(gateStart)))
		} else {
			c.cfg.PauseGate.Acquire()
		}
		defer c.cfg.PauseGate.Release()
	}
	// Until Pause succeeds the domain is still Running, so a pause
	// failure needs no unwind.
	if err := c.retryOp(res, c.dom.Pause); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error()})
		res.VirtualTime = c.virtualNow
		return res, fmt.Errorf("core: epoch %d pause: %w", c.epoch, err)
	}
	// From here until Resume the domain is stopped: every early return
	// must take an unwind path that leaves it Running again (or
	// deliberately halted) — never silently stranded in Suspended.
	if err := c.retryOp(res, c.dom.Suspend); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error(), Action: UnwindResume})
		return res, c.unwindResume(res, false, fmt.Errorf("core: epoch %d suspend: %w", c.epoch, err))
	}
	if err := c.retryOp(res, func() error { return c.dom.HarvestDirty(c.dirty) }); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error(), Action: UnwindResume})
		return res, c.unwindResume(res, false, fmt.Errorf("core: epoch %d harvest: %w", c.epoch, err))
	}
	if c.obs != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Pages: c.dirty.Count(), Retries: res.Recovery.Retries})
	}

	// Epoch-boundary cache invalidation: pages the guest wrote during
	// the epoch must be remapped and the structure walks that touched
	// them re-run; everything else stays cached across the boundary. The
	// counter snapshots are taken first so the sweep itself is billed to
	// this epoch's scan phase.
	scanActive := c.scanCache != nil && c.cfg.Scan == ScanSync
	var scanBefore cost.ScanCacheCounts
	if scanActive {
		scanBefore = c.scanCounts()
		if c.cfg.ScanCache == ScanCacheOn {
			c.scanCache.Invalidate(c.dirty)
			c.scanMemo.Invalidate(c.dirty)
		}
	}

	scanCounts := &detect.ScanCounts{}
	var findings []detect.Finding
	if c.cfg.Scan == ScanSync {
		var err error
		findings, err = c.detector.Scan(&detect.ScanContext{
			VMI: c.vmiCtx, Dirty: c.dirty, Counts: scanCounts,
			Packets: c.buf.PendingPackets(), DiskWrites: c.buf.PendingDisks(),
		})
		if scanActive && c.cfg.ScanCache == ScanCacheUncached {
			// The no-page-cache baseline tears every mapping down after
			// each audit, so the next epoch maps from scratch.
			c.scanCache.Flush()
		}
		if err != nil {
			// Pre-commit audit failure: nothing was committed and no
			// output released. Resume with the harvested dirty pages
			// merged back into the domain's log so the next epoch's
			// audit and checkpoint still cover them.
			c.emit(obs.Event{Phase: obs.PhaseScan, Err: err.Error(), Action: UnwindResume})
			return res, c.unwindResume(res, true, fmt.Errorf("core: epoch %d audit: %w", c.epoch, err))
		}
		ev := obs.Event{Phase: obs.PhaseScan, Findings: len(findings)}
		if scanActive {
			res.ScanCache = c.scanCounts().Sub(scanBefore)
			c.totals.ScanCache.Add(res.ScanCache)
			if c.obs != nil {
				c.met.sc.add(res.ScanCache)
				sc := res.ScanCache
				ev.ScanCache = &sc
			}
		}
		c.emit(ev)
	}

	if len(findings) > 0 {
		inc, err := c.respond(findings, scanCounts)
		if err != nil {
			// The incident-response machinery itself failed. With
			// evidence of an attack in hand the VM must not resume on a
			// best-effort basis: quarantine it deliberately.
			return res, c.haltDomain(res, fmt.Errorf("core: epoch %d respond: %w", c.epoch, err))
		}
		res.Findings = findings
		res.Incident = inc
		res.VirtualTime = c.virtualNow
		c.halted = true
		c.emit(obs.Event{Phase: obs.PhaseHalt, Action: "incident", Findings: len(findings)})
		return res, nil
	}

	// Audit passed (or deferred): commit the epoch.
	var counts cost.Counts
	var commitStart time.Time
	if c.obs != nil {
		commitStart = time.Now()
	}
	err := c.retryOp(res, func() error {
		var cerr error
		counts, cerr = c.ckpt.CheckpointBitmap(c.dirty)
		return cerr
	})
	rep := c.ckpt.LastReport()
	res.Commit = rep
	res.Recovery.Retries += rep.RemoteRetries
	if rep.RemoteDegraded {
		res.Recovery.Degradations = append(res.Recovery.Degradations, rep.Warnings...)
	}
	if err != nil {
		// Mid-commit failure: the checkpointer's undo log has restored
		// the backup to the last clean checkpoint; roll the primary
		// back to it and resume.
		c.emit(obs.Event{Phase: obs.PhaseCommit, Err: err.Error(), Action: UnwindRollback,
			Retries: res.Recovery.Retries})
		return res, c.unwindRollback(res, fmt.Errorf("core: epoch %d commit: %w", c.epoch, err))
	}
	if c.cfg.CoW {
		// The commit quiesced the previous epoch's arm set on entry and
		// armed this epoch's dirty pages on exit: whatever the guest did
		// not fault on during the epoch was (or will be) settled by the
		// background copier.
		res.CoW = c.cowCounts().Sub(cowBefore)
		res.CoW.DrainPages = max(c.cowPrevArmed-res.CoW.WriteFaults, 0)
		c.cowPrevArmed = res.CoW.ArmedPages
		c.totals.CoW.Add(res.CoW)
	}
	// Raw mode leaves both conduits' counts zero, so this adds nothing.
	repl := counts.Repl()
	c.totals.Replication.Add(repl)
	if c.obs != nil {
		hc := c.domainCalls().Sub(hcBefore)
		c.met.hc.add(hc)
		c.met.cow.add(res.CoW)
		c.met.repl.add(repl)
		ev := obs.Event{Phase: obs.PhaseCommit, DurNs: int64(time.Since(commitStart)),
			Pages: counts.DirtyPages, Retries: res.Recovery.Retries, Hypercalls: &hc}
		if cw := res.CoW; cw != (cost.CoWCounts{}) {
			ev.CoW = &cw
		}
		if r := repl; r != (cost.ReplicationCounts{}) {
			ev.Repl = &r
		}
		c.emit(ev)
		if rep.RemoteAcked > 0 || rep.RemoteInFlight > 0 || rep.RemoteDegraded || counts.RemotePages > 0 {
			action := ""
			if rep.RemoteDegraded {
				action = "degraded"
			}
			c.emit(obs.Event{Phase: obs.PhaseReplicate, Pages: counts.RemotePages,
				InFlight: rep.RemoteInFlight, Acked: rep.RemoteAcked,
				Retries: rep.RemoteRetries, Action: action})
		}
	}
	c.buf.Release()
	c.lastState = c.guest.CloneState()
	if c.cfg.HistoryDepth > 0 {
		if err := c.retainHistory(); err != nil {
			// History is a forensic nicety, not the safety invariant:
			// degrade with a warning instead of stranding the domain.
			res.Recovery.Warnings = append(res.Recovery.Warnings,
				fmt.Sprintf("checkpoint history not retained: %v", err))
		}
	}
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		// The epoch committed but the domain cannot return to
		// execution: quarantine it deliberately.
		return res, c.haltDomain(res, fmt.Errorf("core: epoch %d resume: %w", c.epoch, err))
	}

	// Asynchronous audits inspect the checkpoint just committed while
	// the VM continues to run.
	if c.cfg.Scan == ScanAsync {
		findings, err = c.detector.Scan(&detect.ScanContext{
			VMI: c.vmiBackup, Counts: scanCounts,
		})
		if err != nil {
			// The commit stands and the VM is already Running; the
			// deferred audit simply failed. Report without unwinding.
			res.VirtualTime = c.virtualNow
			return res, fmt.Errorf("core: epoch %d async audit: %w", c.epoch, err)
		}
		res.Findings = findings
		if len(findings) > 0 {
			// Too late to withhold outputs; still halt and report.
			if err := c.retryOp(res, c.dom.Pause); err != nil {
				return res, c.haltDomain(res, fmt.Errorf("core: epoch %d async pause: %w", c.epoch, err))
			}
			inc, err := c.respondAsync(findings)
			if err != nil {
				return res, c.haltDomain(res, fmt.Errorf("core: epoch %d async respond: %w", c.epoch, err))
			}
			res.Incident = inc
			c.halted = true
		}
	}

	// Fold the scan counters in only now: in async mode the deferred
	// audit above contributes this epoch's VMI node and canary counts,
	// so capturing them before the scan would lose them.
	counts.VMINodes = scanCounts.NodesWalked
	counts.Canaries = scanCounts.CanariesChecked
	res.Counts = counts
	if c.cfg.CoW {
		// The CoW commit arms the dirty pages instead of copying them
		// under pause; faults taken during the epoch are guest-time
		// overhead (the guest was running), not pause, so they advance
		// the virtual clock directly.
		var faultNs time.Duration
		res.Phases, faultNs = c.cfg.Model.CheckpointCoW(c.cfg.Opt, counts, c.cfg.Workers, res.CoW, c.cfg.EpochIntervalAt(c.epoch))
		c.virtualNow += faultNs
	} else {
		res.Phases = c.cfg.Model.CheckpointParallel(c.cfg.Opt, counts, c.cfg.Workers)
	}
	if c.cfg.Workers > 1 && len(c.cfg.Modules) > 1 && c.cfg.Scan == ScanSync {
		// Detector modules scanned concurrently; the cost model leaves
		// audit concurrency to the caller, which knows the module count.
		conc := c.cfg.Workers
		if m := len(c.cfg.Modules); m < conc {
			conc = m
		}
		res.Phases.VMI = time.Duration(float64(res.Phases.VMI) / c.cfg.Model.Speedup(conc))
	}
	if c.cfg.Scan == ScanAsync {
		// The audit does not extend the pause in async mode.
		res.Phases.VMI = 0
	}
	if scanActive {
		// Price the audit's real mapping traffic: map/unmap hypercalls
		// the cache performed plus its lookup/sweep/memo bookkeeping.
		// The base VMI term above already shrank on memo hits (memoized
		// walks report zero nodes walked).
		res.Phases.VMI += c.cfg.Model.ScanCacheOverhead(res.ScanCache)
	}
	c.totalPause += res.Phases.Total()
	c.virtualNow += res.Phases.Total()
	res.VirtualTime = c.virtualNow
	c.applySLO(res)
	return res, nil
}

// applySLO folds a clean epoch into the tail-latency controller and
// applies its decision to the next epoch's knobs: the epoch interval,
// the pause-path worker pool (detector + checkpointer), the scan-cache
// page budget, and the host pause gate's K when the gate supports
// Resize. With no controller configured this is a single nil check, so
// the untuned epoch loop is unchanged.
func (c *Controller) applySLO(res *EpochResult) {
	ctl := c.cfg.SLO
	if !ctl.Enabled() {
		return
	}
	tun, changed := ctl.Update(c.epoch, res.Interval, res.Phases.Total())
	if gate, ok := c.cfg.PauseGate.(interface{ Resize(int) }); ok && tun.GateK > 0 {
		gate.Resize(tun.GateK)
	}
	if !changed {
		return
	}
	if tun.Interval > 0 {
		c.cfg.EpochInterval = tun.Interval
	}
	if tun.Workers > 0 && tun.Workers != c.cfg.Workers {
		c.cfg.Workers = tun.Workers
		c.detector.SetWorkers(tun.Workers)
		c.ckpt.SetWorkers(tun.Workers)
	}
	if tun.CachePages > 0 && c.scanCache != nil && tun.CachePages != c.scanCache.Cap() {
		c.scanCache.SetCapacity(tun.CachePages)
		c.cfg.ScanCacheCapacity = tun.CachePages
	}
	c.emit(obs.Event{Phase: obs.PhaseSLO, DurNs: int64(tun.Interval), Action: "retune"})
	if c.met.sloSteps != nil {
		c.met.sloSteps.Inc()
	}
}

// retryOp runs op, retrying transient failures with exponential
// virtual-time backoff up to cfg.MaxRetries times. Fatal failures and
// exhausted budgets return the last error.
func (c *Controller) retryOp(res *EpochResult, op func() error) error {
	backoff := c.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if attempt >= c.cfg.MaxRetries || !fault.IsTransient(err) {
			return err
		}
		res.Recovery.Retries++
		c.virtualNow += backoff
		backoff *= 2
	}
}

// unwindResume returns a stopped domain to execution after a pre-commit
// failure. Nothing was committed or released; when remerge is set the
// harvested dirty bitmap is merged back into the domain's dirty log so
// the next checkpoint still covers the failed epoch's pages. If even
// the unwind fails, the domain is deliberately halted.
func (c *Controller) unwindResume(res *EpochResult, remerge bool, cause error) error {
	res.Recovery.Unwind = UnwindResume
	if remerge {
		if err := c.dom.MergeDirty(c.dirty); err != nil {
			return c.haltDomain(res, errors.Join(cause, err))
		}
	}
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	res.VirtualTime = c.virtualNow
	return cause
}

// unwindRollback responds to a mid-commit failure: the epoch's buffered
// outputs are discarded (their epoch will never commit), the primary is
// rolled back to the last clean checkpoint — which the checkpointer's
// undo log guarantees the backup still holds — and the domain resumes
// from there. If the rollback itself fails, the domain is deliberately
// halted.
func (c *Controller) unwindRollback(res *EpochResult, cause error) error {
	res.Recovery.Unwind = UnwindRollback
	c.buf.Discard()
	if err := c.retryOp(res, c.ckpt.Rollback); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	// Rollback quiesced the CoW engine: nothing is armed anymore, so the
	// next commit's lazy drain starts from an empty pool.
	c.cowPrevArmed = 0
	c.guest.RestoreState(c.lastState)
	// The restore rewrote guest memory without passing through the dirty
	// log, so no bitmap describes what changed: drop every cached
	// mapping and memoized walk wholesale.
	if c.scanCache != nil {
		c.scanCache.Flush()
		if c.scanMemo != nil {
			c.scanMemo.InvalidateAll()
		}
	}
	// Price the rollback as the incident path does: a full-VM memcpy.
	rollbackCost := time.Duration(c.cfg.Model.MemcpyByteNs * float64(c.dom.MemBytes()))
	c.virtualNow += rollbackCost
	c.emit(obs.Event{Phase: obs.PhaseRollback, DurNs: int64(rollbackCost),
		Retries: res.Recovery.Retries})
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	res.VirtualTime = c.virtualNow
	return cause
}

// haltDomain deliberately quarantines the VM after an unrecoverable
// fault: the domain stays stopped where it is, the halt is recorded in
// the result, and all further RunEpoch calls return ErrHalted.
func (c *Controller) haltDomain(res *EpochResult, cause error) error {
	c.halted = true
	res.Recovery.Unwind = UnwindHalt
	c.emit(obs.Event{Phase: obs.PhaseHalt, Action: UnwindHalt, Err: cause.Error()})
	res.Recovery.Warnings = append(res.Recovery.Warnings,
		fmt.Sprintf("VM deliberately halted after unrecoverable fault: %v", cause))
	res.VirtualTime = c.virtualNow
	return fmt.Errorf("core: epoch %d: VM halted after unrecoverable fault: %w", c.epoch, cause)
}

func (c *Controller) retainHistory() error {
	// History snapshots the backup, so the CoW lazy copies armed by the
	// commit just above must settle first. This makes HistoryDepth > 0
	// an effective eager drain every epoch — correct, but it forfeits
	// most of the CoW pause win.
	if err := c.ckpt.Quiesce(); err != nil {
		return fmt.Errorf("core: retain history: %w", err)
	}
	snap, err := c.ckpt.Backup().DumpMemory()
	if err != nil {
		return fmt.Errorf("core: retain history: %w", err)
	}
	c.history = append(c.history, HistoryEntry{
		Epoch:    c.epoch,
		Snapshot: snap,
		State:    c.guest.CloneState(),
	})
	if len(c.history) > c.cfg.HistoryDepth {
		c.history = c.history[len(c.history)-c.cfg.HistoryDepth:]
	}
	return nil
}

// respond is the synchronous failed-audit path: discard outputs,
// capture dumps, optionally replay to pinpoint, and build the report.
func (c *Controller) respond(findings []detect.Finding, scanCounts *detect.ScanCounts) (*Incident, error) {
	c.buf.Discard()

	// The backup may still be converging on the previous commit's
	// snapshot (CoW lazy copies in flight): settle it before treating it
	// as the last-good forensic dump. No-op when CoW is off.
	if err := c.ckpt.Quiesce(); err != nil {
		return nil, err
	}
	dumps, err := analyze.CaptureDumps(c.guest, c.ckpt)
	if err != nil {
		return nil, err
	}

	inc := &Incident{Epoch: c.epoch, Findings: findings, Dumps: dumps}
	ops := c.guest.EpochOps()

	if c.cfg.ReplayOnIncident && hasOverflow(findings) {
		// Pinpointing rolls the VM back to the last clean checkpoint and
		// replays the epoch's operations one at a time.
		c.emit(obs.Event{Phase: obs.PhaseRollback, Action: "incident",
			DurNs: int64(time.Duration(c.cfg.Model.MemcpyByteNs * float64(c.dom.MemBytes())))})
		pin, err := analyze.ReplayPinpoint(c.guest, c.ckpt, c.lastState, ops, findings)
		if err != nil && !errors.Is(err, analyze.ErrNotPinpointed) {
			c.emit(obs.Event{Phase: obs.PhaseReplay, Err: err.Error()})
			return nil, err
		}
		outcome := "not-pinpointed"
		if pin != nil {
			outcome = "pinpointed"
		}
		c.emit(obs.Event{Phase: obs.PhaseReplay, Action: outcome})
		inc.Pinpoint = pin
		if pin != nil {
			if err := dumps.CaptureAttackDump(c.guest); err != nil {
				return nil, err
			}
		}
	}

	report, err := analyze.Postmortem(dumps, findings, inc.Pinpoint)
	if err != nil {
		return nil, err
	}
	inc.Report = report
	inc.Timeline = c.timeline(findings, inc.Pinpoint, ops, scanCounts)
	return inc, nil
}

// respondAsync handles detection on the committed checkpoint: outputs
// are already released, so the response is forensic only.
func (c *Controller) respondAsync(findings []detect.Finding) (*Incident, error) {
	dumps, err := analyze.CaptureDumps(c.guest, c.ckpt)
	if err != nil {
		return nil, err
	}
	report, err := analyze.Postmortem(dumps, findings, nil)
	if err != nil {
		return nil, err
	}
	report.Notes = append(report.Notes,
		"detected by asynchronous scan: outputs from the attack epoch may have been released")
	return &Incident{Epoch: c.epoch, Findings: findings, Dumps: dumps, Report: report}, nil
}

func hasOverflow(findings []detect.Finding) bool {
	for _, f := range findings {
		if f.Kind == detect.KindBufferOverflow {
			return true
		}
	}
	return false
}

// timeline prices the Figure 8 attack-response sequence.
func (c *Controller) timeline(findings []detect.Finding, pin *analyze.Pinpoint, ops []guestos.Op, sc *detect.ScanCounts) Timeline {
	m := c.cfg.Model
	var tl Timeline
	// Position of the attack op within the epoch (fraction of interval).
	frac := 0.5
	if pin != nil && len(ops) > 0 {
		for i, op := range ops {
			if op.Seq == pin.OpSeq {
				frac = float64(i+1) / float64(len(ops))
				break
			}
		}
	}
	tl.AttackToEpochEnd = time.Duration((1 - frac) * float64(c.cfg.EpochIntervalAt(c.epoch)))
	scanNs := m.VMIScanBaseNs + m.VMIPerNodeNs*float64(sc.NodesWalked) + m.CanaryCheckNs*float64(sc.CanariesChecked)
	tl.SuspendAndScan = time.Duration(m.SuspendNs + scanNs)
	// Rollback restores the full VM from the local backup (a memcpy of
	// guest memory) and resumes.
	rollbackNs := m.MemcpyByteNs * float64(c.dom.MemBytes())
	tl.ReplayReady = tl.SuspendAndScan + time.Duration(rollbackNs+m.ResumeNs)
	tl.MemDump = time.Duration(m.VolatilityDumpNs)
	tl.CheckpointsToDisk = time.Duration(m.CheckpointToDiskNs)
	return tl
}
