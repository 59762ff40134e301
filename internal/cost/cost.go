// Package cost prices checkpoint and scan operations in virtual time.
//
// Macro experiments (normalized runtimes, pause-time breakdowns, web
// latency sweeps) cannot reproduce the paper's absolute numbers off its
// Xeon X5650 testbed, so they run on a virtual clock: workloads really
// execute against guest memory (producing real dirty-page and byte
// counts), and this package converts those counts into phase durations
// using constants calibrated against the paper's Table 1, Figure 4 and
// Table 3. Shapes (who wins, by what factor, where crossovers fall)
// derive from the real operation counts.
package cost

import "time"

// Model holds the calibrated cost constants. All "...Ns" values are
// nanoseconds; byte costs are fractional nanoseconds per byte.
type Model struct {
	// Domain pause/unpause transitions (Table 1: suspend ~1 ms,
	// resume ~1.5 ms).
	SuspendNs float64
	ResumeNs  float64

	// VMI memory analysis per checkpoint (Table 3: under 2 ms; the
	// paper's no-op scan measures ~0.34 ms).
	VMIScanBaseNs float64
	VMIPerNodeNs  float64
	// CanaryCheckNs prices one canary validation (§5.5: "our scanner
	// can validate 90,000 canaries per millisecond" — ~11 ns each).
	CanaryCheckNs float64

	// Dirty bitmap scan (Optimization 3). Bit-by-bit cost scales with
	// total VM pages; word scan scales with words plus dirty pages.
	BitScanPerPageNs   float64
	WordScanPerWordNs  float64
	WordScanPerDirtyNs float64

	// Page table mapping (Optimization 2). Per-page map/unmap
	// hypercalls plus PFN-to-MFN conversions.
	MapPageNs   float64
	UnmapPageNs float64

	// Copy path (Optimization 1). The Remus path serializes dirty
	// pages through writev over an ssh-encrypted socket; the CRIMES
	// path memcpys into the premapped backup frames. The socket path
	// saturates: beyond SocketSatBytes per epoch the effective per-byte
	// cost grows linearly (TCP backpressure plus encryption CPU
	// contention with the guest).
	SocketByteNs       float64
	SocketSatBytes     float64
	SocketEpochNs      float64 // fixed per-epoch writev/ssh overhead
	MemcpyByteNs       float64
	DirtyHarvestCallNs float64

	// VMI setup phases (Table 3), paid once, not per checkpoint.
	VMIInitNs       float64
	VMIPreprocessNs float64

	// Volatility phases (§5.3): init ~2.5 s, process scan ~500 ms,
	// process memory dump ~5 s (§5.5).
	VolatilityInitNs   float64
	VolatilityScanNs   float64
	VolatilityDumpNs   float64
	CheckpointToDiskNs float64 // writing full checkpoints to disk, "tens of seconds"

	// AddressSanitizer inline instrumentation: multiplies workload
	// execution time (paper: +40-60 %). Per-workload factors scale this.
	ASanBaseFactor float64

	// Scan-path cache (cached, incremental VMI). A cache miss prices a
	// MapPageNs foreign map and every cache drop (eviction,
	// invalidation, flush) an UnmapPageNs, reusing the mapping constants
	// above; the constants here price the bookkeeping that is unique to
	// the cache. None of them is consulted unless the scan cache is
	// enabled, so the cache-off configuration reproduces existing
	// numbers bit-for-bit (mirroring how Workers=1 reproduces Table 1).
	ScanCacheHitNs   float64 // LRU lookup + bump for a cached page
	ScanSweepEntryNs float64 // per cached entry examined by an invalidation sweep
	ScanMemoHitNs    float64 // returning one memoized structure walk

	// Copy-on-write commit path. Arming write protection on the dirty
	// set replaces copying it under pause: one batched event-config
	// hypercall (CowArmBaseNs) plus an EPT permission flip per page
	// (CowArmPageNs, ~27x cheaper than memcpying the page). Each write
	// fault the guest then takes on a protected page costs a VM exit
	// plus an eager copy-before-write (CowFaultNs), charged to guest
	// execution time rather than the pause window. None of these is
	// consulted unless CoW is enabled, so the CoW-off configuration
	// reproduces existing numbers bit-for-bit.
	CowArmBaseNs float64
	CowArmPageNs float64
	CowFaultNs   float64

	// Delta replication (v2 wire protocol). Every page carried by a
	// delta-mode conduit is content-hashed (DeltaHashPageNs) and, when a
	// last-shipped base exists, run through the XOR/run-length encoder
	// (DeltaEncodeByteNs per page byte). The CPU spent is charged
	// against the socket bytes saved, so the tradeoff is visible in
	// virtual time. Neither constant is consulted in raw mode, so the
	// raw configuration reproduces existing numbers bit-for-bit.
	DeltaHashPageNs   float64
	DeltaEncodeByteNs float64

	// Multi-host cluster path. A VM whose Remus replica is anti-affine
	// on another host ships its dirty pages over the inter-host link
	// (CrossHostByteNs per byte, slower than the local socket) and pays
	// one link round trip per epoch for the replica's acknowledgement
	// (CrossHostRTTNs). A host failover pays PromoteBaseNs once per
	// affected VM (detection, replica adoption, controller re-init),
	// and ring-membership churn pays RebalancePageNs per page moved to
	// its new home. None of these is consulted unless the cluster runs
	// more than one host, so single-host configurations reproduce
	// existing numbers bit-for-bit.
	CrossHostByteNs float64
	CrossHostRTTNs  float64
	PromoteBaseNs   float64
	RebalancePageNs float64

	// Parallel pause path. Sharded copy/scan workers obey Amdahl's law:
	// WorkerSerialFrac is the fraction of each parallelized phase that
	// stays serial (shard dispatch, cache-line and memory-bus
	// contention), and WorkerSpawnNs is the per-worker fork/join cost
	// added to every parallelized phase. Workers=1 bypasses both, so
	// single-worker pricing is bit-identical to Checkpoint's.
	WorkerSerialFrac float64
	WorkerSpawnNs    float64
}

// Default returns the model calibrated to the paper's reported
// component costs.
func Default() Model {
	return Model{
		SuspendNs: 1.0e6,
		ResumeNs:  1.5e6,

		VMIScanBaseNs: 3.0e5,
		VMIPerNodeNs:  2.0e3,
		CanaryCheckNs: 11,

		BitScanPerPageNs:   10,
		WordScanPerWordNs:  30,
		WordScanPerDirtyNs: 10,

		MapPageNs:   1.0e3,
		UnmapPageNs: 3.0e2,

		SocketByteNs:       2.4,
		SocketSatBytes:     128 << 20,
		SocketEpochNs:      3.0e5,
		MemcpyByteNs:       0.8,
		DirtyHarvestCallNs: 5.0e4,

		VMIInitNs:       67.096e6,
		VMIPreprocessNs: 53.678e6,

		VolatilityInitNs:   2.5e9,
		VolatilityScanNs:   5.0e8,
		VolatilityDumpNs:   5.0e9,
		CheckpointToDiskNs: 30e9,

		ASanBaseFactor: 1.5,

		ScanCacheHitNs:   25,
		ScanSweepEntryNs: 15,
		ScanMemoHitNs:    150,

		CowArmBaseNs: 5.0e4,
		CowArmPageNs: 120,
		CowFaultNs:   8.0e3,

		DeltaHashPageNs:   400,
		DeltaEncodeByteNs: 0.5,

		CrossHostByteNs: 3.2,
		CrossHostRTTNs:  2.0e5,
		PromoteBaseNs:   5.0e7,
		RebalancePageNs: 1.31e4,

		WorkerSerialFrac: 0.05,
		WorkerSpawnNs:    2.0e4,
	}
}

// Optimization selects which of CRIMES' checkpointing optimizations are
// active, matching the paper's evaluation variants.
type Optimization int

// Optimization levels, cumulative as in §5.2.
const (
	// NoOpt is Remus modified to run a VMI scan: socket copy, per-epoch
	// mapping, bit-by-bit scan.
	NoOpt Optimization = iota + 1
	// Memcpy adds the local in-memory copy (Optimization 1).
	Memcpy
	// Premap adds the global one-time PFN-to-MFN mapping (Optimization 2).
	Premap
	// Full adds the word-granularity dirty scan (Optimization 3).
	Full
)

// String renders the optimization level.
func (o Optimization) String() string {
	switch o {
	case NoOpt:
		return "No-opt"
	case Memcpy:
		return "Memcpy"
	case Premap:
		return "Pre-map"
	case Full:
		return "Full"
	default:
		return "unknown"
	}
}

// Counts are the real operation counts one checkpoint produced.
type Counts struct {
	TotalPages  int
	DirtyPages  int
	BytesCopied int
	VMINodes    int // kernel list nodes the audit walked
	Canaries    int // canaries validated by the audit
	DiskBlocks  int // dirty disk blocks replicated (disk extension)
	RemotePages int // pages also shipped to a remote backup (HA extension)

	// LocalRepl and RemoteRepl carry the v2 replication wire protocol's
	// per-epoch traffic for the local conduit and the remote HA conduit
	// respectively. Both stay zero in raw mode, in which case the
	// classic socket pricing above applies unchanged.
	LocalRepl  ReplicationCounts
	RemoteRepl ReplicationCounts
}

// ReplicateDelta prices one epoch's delta-mode replication: the socket
// path over the bytes actually on the wire (same saturating formula as
// the raw path) plus the protocol's CPU — a content hash per carried
// page and the XOR encoder over every page that had a base. Small-write
// workloads trade a few hundred ns/page of hashing for thousands of
// ns/page of socket and encryption time.
func (m Model) ReplicateDelta(r ReplicationCounts) time.Duration {
	bytes := float64(r.WireBytes)
	factor := 1 + bytes/m.SocketSatBytes
	return ns(m.SocketEpochNs*float64(r.Batches) +
		m.SocketByteNs*bytes*factor +
		m.DeltaHashPageNs*float64(r.Pages) +
		m.DeltaEncodeByteNs*4096*float64(r.EncodedPages))
}

// Phases is the virtual-time breakdown of one checkpoint's paused
// interval, mirroring the paper's suspend/vmi/bitscan/map/copy/resume
// rows (Table 1, Figure 4).
type Phases struct {
	Suspend time.Duration
	VMI     time.Duration
	Bitscan time.Duration
	Map     time.Duration
	Copy    time.Duration
	Resume  time.Duration
}

// Total is the full paused time.
func (p Phases) Total() time.Duration {
	return p.Suspend + p.VMI + p.Bitscan + p.Map + p.Copy + p.Resume
}

// Checkpoint prices one checkpoint at a given optimization level.
func (m Model) Checkpoint(opt Optimization, c Counts) Phases {
	var p Phases
	p.Suspend = ns(m.SuspendNs)
	p.Resume = ns(m.ResumeNs)
	p.VMI = ns(m.VMIScanBaseNs + m.VMIPerNodeNs*float64(c.VMINodes) + m.CanaryCheckNs*float64(c.Canaries))

	if opt >= Full {
		words := (c.TotalPages + 63) / 64
		p.Bitscan = ns(m.WordScanPerWordNs*float64(words) + m.WordScanPerDirtyNs*float64(c.DirtyPages))
	} else {
		p.Bitscan = ns(m.BitScanPerPageNs * float64(c.TotalPages))
	}

	switch {
	case opt >= Premap:
		// Global mapping established once at startup; per-epoch map
		// cost is only the dirty-bitmap harvest hypercall.
		p.Map = ns(m.DirtyHarvestCallNs)
	case opt == Memcpy:
		// Maps both the primary and the backup VM's pages each epoch.
		perPage := m.MapPageNs + m.UnmapPageNs
		p.Map = ns(2*perPage*float64(c.DirtyPages) + m.DirtyHarvestCallNs)
	default:
		perPage := m.MapPageNs + m.UnmapPageNs
		p.Map = ns(perPage*float64(c.DirtyPages) + m.DirtyHarvestCallNs)
	}

	switch {
	case opt >= Memcpy:
		p.Copy = ns(m.MemcpyByteNs * float64(c.BytesCopied))
	case c.LocalRepl.Batches > 0:
		// Delta-mode socket path: priced by the bytes actually shipped
		// plus the hash/encode CPU. Disk bytes still travel raw (the
		// conduit only carries memory pages), so any byte count beyond
		// the dirty pages keeps the classic socket cost.
		p.Copy = m.ReplicateDelta(c.LocalRepl)
		if extra := c.BytesCopied - c.DirtyPages*4096; extra > 0 {
			b := float64(extra)
			p.Copy += ns(m.SocketByteNs * b * (1 + b/m.SocketSatBytes))
		}
	default:
		bytes := float64(c.BytesCopied)
		factor := 1 + bytes/m.SocketSatBytes
		p.Copy = ns(m.SocketEpochNs + m.SocketByteNs*bytes*factor)
	}
	if c.RemotePages > 0 {
		if c.RemoteRepl.Batches > 0 {
			// Delta-mode remote ship: pay for the wire bytes it used.
			p.Copy += m.ReplicateDelta(c.RemoteRepl)
		} else {
			// Remote HA replication always pays the socket path, whatever
			// the local optimization level.
			bytes := float64(c.RemotePages) * 4096
			factor := 1 + bytes/m.SocketSatBytes
			p.Copy += ns(m.SocketEpochNs + m.SocketByteNs*bytes*factor)
		}
	}
	return p
}

// Speedup is the Amdahl-law speedup the model predicts for a
// parallelized phase at the given worker count.
func (m Model) Speedup(workers int) float64 {
	if workers <= 1 {
		return 1
	}
	return 1 / (m.WorkerSerialFrac + (1-m.WorkerSerialFrac)/float64(workers))
}

// CheckpointParallel prices one checkpoint executed by a sharded worker
// pool (the parallel pause path). workers <= 1 delegates to Checkpoint
// exactly, preserving the paper's Table 1 / Figure 3 / Figure 4 shapes.
// With workers > 1:
//
//   - the copy phase (undo capture + page copy, memcpy paths) and the
//     Full level's word-granularity bitmap scan are divided by the
//     Amdahl speedup, plus a per-worker fork/join cost;
//   - the remote HA ship leaves the pause window entirely: it is
//     pipelined behind the resumed guest with a bounded in-flight
//     window, so RemotePages contribute nothing to the pause;
//   - suspend, resume, per-epoch mapping, and the VMI audit base are
//     unchanged (module-level audit concurrency is priced separately
//     by the caller when it knows the module count).
//
// The socket copy path (No-opt) is inherently serial and is never
// scaled.
func (m Model) CheckpointParallel(opt Optimization, c Counts, workers int) Phases {
	if workers <= 1 {
		return m.Checkpoint(opt, c)
	}
	local := c
	local.RemotePages = 0
	p := m.Checkpoint(opt, local)
	speedup := m.Speedup(workers)
	spawn := ns(m.WorkerSpawnNs * float64(workers))
	if opt >= Full {
		p.Bitscan = time.Duration(float64(p.Bitscan)/speedup) + spawn
	}
	if opt >= Memcpy {
		p.Copy = time.Duration(float64(p.Copy)/speedup) + spawn
	}
	return p
}

// CheckpointContended prices one VM's checkpoint when it shares the
// host's pause-path worker pool with other co-located VMs. concurrent
// is the number of VMs inside overlapping pause windows — the fleet
// scheduler's K bound under staggered scheduling, or the whole fleet
// when epoch boundaries are synchronized. The pool divides evenly:
// each VM's parallelizable phases run with workers/concurrent workers
// (at least one), and when more VMs contend than there are workers the
// excess pause windows serialize, scaling the pool-sharded phases
// (bitmap scan and copy) by concurrent/workers. concurrent <= 1
// delegates to CheckpointParallel exactly, so a fleet of one VM prices
// byte-for-byte like the single-VM pause path.
func (m Model) CheckpointContended(opt Optimization, c Counts, workers, concurrent int) Phases {
	if concurrent <= 1 {
		return m.CheckpointParallel(opt, c, workers)
	}
	if workers < 1 {
		workers = 1
	}
	eff := workers / concurrent
	if eff < 1 {
		eff = 1
	}
	p := m.CheckpointParallel(opt, c, eff)
	if concurrent > workers {
		queue := float64(concurrent) / float64(workers)
		p.Bitscan = time.Duration(float64(p.Bitscan) * queue)
		p.Copy = time.Duration(float64(p.Copy) * queue)
	}
	return p
}

// ReplicateCrossHost prices shipping one epoch's dirty pages to an
// anti-affine replica on another host: the inter-host link's per-byte
// cost plus one round trip for the replica's acknowledgement. With
// hosts <= 1 there is no other host to ship to and the cost is zero.
func (m Model) ReplicateCrossHost(pages, hosts int) time.Duration {
	if hosts <= 1 || pages <= 0 {
		return 0
	}
	return ns(m.CrossHostRTTNs + m.CrossHostByteNs*float64(pages)*4096)
}

// CheckpointCluster prices one VM's checkpoint in an H-host cluster
// whose replica placement is anti-affine. hosts <= 1 delegates to
// CheckpointContended exactly — a single host has nowhere anti-affine
// to put replicas, so single-host cluster numbers reproduce the fleet's
// bit-for-bit. With more hosts, the Remus-style cross-host commit
// extends the copy phase: the epoch's dirty pages go over the
// inter-host link and the pause holds until the replica acknowledges.
func (m Model) CheckpointCluster(opt Optimization, c Counts, workers, concurrent, hosts int) Phases {
	p := m.CheckpointContended(opt, c, workers, concurrent)
	if hosts <= 1 {
		return p
	}
	p.Copy += m.ReplicateCrossHost(c.DirtyPages, hosts)
	return p
}

// Promote prices one VM's failover after its host dies: the fixed
// promotion cost (failure detection amortized per VM, replica adoption,
// controller re-initialization) plus a full cross-host resync to re-arm
// a fresh anti-affine replica elsewhere.
func (m Model) Promote(guestPages, hosts int) time.Duration {
	d := ns(m.PromoteBaseNs)
	if hosts > 1 {
		d += m.ReplicateCrossHost(guestPages, hosts)
	}
	return d
}

// RebalanceChurn prices ring-membership churn: every page whose VM
// moved to a new home host when a host joined or left must cross the
// inter-host link once.
func (m Model) RebalanceChurn(pagesMoved int) time.Duration {
	if pagesMoved <= 0 {
		return 0
	}
	return ns(m.RebalancePageNs * float64(pagesMoved))
}

// ScanCacheOverhead prices one epoch's scan-path cache traffic: the
// map/unmap hypercalls the cache actually performed plus its lookup,
// sweep, and memo bookkeeping. The caller adds this to the VMI phase
// when (and only when) the scan cache is enabled; the base VMI term
// already shrinks on memo hits because memoized walks report zero nodes
// walked. The uncached configuration — every touched page mapped and
// unmapped again each epoch — is priced by the same formula, since
// there every read is a miss and every mapping is flushed.
func (m Model) ScanCacheOverhead(s ScanCacheCounts) time.Duration {
	return ns(m.MapPageNs*float64(s.CacheMisses) +
		m.UnmapPageNs*float64(s.CacheUnmaps) +
		m.ScanCacheHitNs*float64(s.CacheHits) +
		m.ScanSweepEntryNs*float64(s.CacheSwept) +
		m.ScanMemoHitNs*float64(s.MemoHits))
}

// CheckpointCoW prices one copy-on-write commit: the pause window plus
// the guest-visible overhead charged to epoch execution time.
//
// Under CoW the dirty memory pages are not copied while the guest is
// frozen — the pause pays only write-protection arming (one batched
// hypercall plus a per-page permission flip), so the copy phase loses
// its O(dirty bytes) memcpy term and pause grows sublinearly in the
// working set. Disk blocks are still committed eagerly under pause, so
// their bytes stay in the copy phase. The pages are copied into the
// backup behind the resumed guest: lazy copies overlap the next epoch's
// execution and only their excess beyond the epoch interval extends the
// pause (the next commit must wait for convergence), while each eager
// copy-before-write costs the guest a write-fault VM exit, returned as
// overhead for the caller to charge to the virtual clock.
func (m Model) CheckpointCoW(opt Optimization, c Counts, workers int, cw CoWCounts, epoch time.Duration) (Phases, time.Duration) {
	local := c
	local.BytesCopied -= cw.ArmedPages * 4096
	if local.BytesCopied < 0 {
		local.BytesCopied = 0
	}
	p := m.CheckpointParallel(opt, local, workers)
	p.Copy += ns(m.CowArmBaseNs + m.CowArmPageNs*float64(cw.ArmedPages))
	if lazy := ns(m.MemcpyByteNs * float64(cw.DrainPages) * 4096); lazy > epoch {
		p.Copy += lazy - epoch
	}
	overhead := ns(m.CowFaultNs * float64(cw.WriteFaults))
	return p, overhead
}

// PremapStartup prices the one-time global mapping for Premap/Full.
func (m Model) PremapStartup(totalPages int) time.Duration {
	return ns((m.MapPageNs + m.UnmapPageNs) * float64(totalPages))
}

// BitmapScan prices a standalone dirty-bitmap scan (Figure 6b's
// simulated scan cost versus VM size).
func (m Model) BitmapScan(totalPages, dirtyPages int, optimized bool) time.Duration {
	if optimized {
		words := (totalPages + 63) / 64
		return ns(m.WordScanPerWordNs*float64(words) + m.WordScanPerDirtyNs*float64(dirtyPages))
	}
	return ns(m.BitScanPerPageNs * float64(totalPages))
}

func ns(v float64) time.Duration { return time.Duration(v) }
