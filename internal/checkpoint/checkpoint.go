// Package checkpoint implements the CRIMES Checkpointer (§3.1, §4.1):
// continuous checkpointing of a primary domain into a local backup
// domain, with the paper's three optimizations selectable independently:
//
//	No-opt:  Remus path — per-epoch foreign mapping of dirty pages,
//	         serialization through an encrypted socket to a Restore
//	         process, bit-by-bit dirty bitmap scan.
//	Memcpy:  Optimization 1 — direct in-memory copy into the backup
//	         domain's frames (maps both VMs' pages each epoch).
//	Pre-map: Optimization 2 — the full PFN-to-MFN mapping of both VMs
//	         resolved once at startup into flat arrays.
//	Full:    Optimization 3 — word-granularity dirty bitmap scanning.
package checkpoint

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("checkpoint: checkpointer closed")

// FaultCopyPage is the fault-injection site for the per-page backup
// copy on the premapped paths: an armed fault fails the commit midway
// through the copy loop, exercising the undo log.
const FaultCopyPage = "checkpoint.copypage"

// maxRemoteRetries bounds in-commit retries of transiently failing
// remote checkpoint ships before replication degrades to local-only.
const maxRemoteRetries = 3

// maxShipsInFlight bounds the pipelined remote-replication window: at
// most this many checkpoints may be enqueued behind the resumed guest
// awaiting the remote backup's acknowledgement. When the window is
// full the next commit blocks until the oldest shipment drains, so an
// unreachable remote applies backpressure instead of unbounded queueing.
const maxShipsInFlight = 2

// Checkpointer keeps a backup domain synchronized with a primary by
// copying dirty pages at every epoch boundary. The backup is always the
// most recent clean snapshot (the paper keeps it on the local host for
// security rather than remote for availability).
type Checkpointer struct {
	hv      *hv.Hypervisor
	primary *hv.Domain
	backup  *hv.Domain
	opt     cost.Optimization

	// remusMode selects the conduits' wire protocol (raw v1 by
	// default); remusBudget bounds the sender-side shipped-version
	// table in the delta modes.
	remusMode   remus.Mode
	remusBudget int

	// workers is the pause-path parallelism: the dirty-bitmap scan,
	// undo capture, and page copy shard across this many goroutines
	// over disjoint PFN ranges, the disk-block copy overlaps the memory
	// copy, and remote replication is pipelined out of the pause window
	// entirely. workers == 1 is the exact serial path.
	workers int

	dirty   *mem.Bitmap
	scratch []mem.PFN

	// Cached full-range index slices, built lazily: Rollback and the
	// initial remote sync need "every page" / "every block" lists and
	// must not reallocate them on every call.
	allPages    []mem.PFN
	allDiskBlks []mem.PFN

	// Premap/Full: global mappings built once.
	gmPrimary *hv.GlobalMapping
	gmBackup  *hv.GlobalMapping

	// No-opt: encrypted socket conduit to the restore process.
	conduit *remus.Conduit

	// Disk-snapshot extension (§3.1): when attached, the disk's dirty
	// blocks are replicated to a backup disk at each checkpoint and
	// rolled back with memory.
	disk        *vdisk.Disk
	backupDisk  *vdisk.Disk
	diskScratch []mem.PFN

	// Remote replication (§4.1: "If users desire both high availability
	// and security, CRIMES could be configured to perform remote
	// checkpoints"): dirty pages are additionally shipped over an
	// encrypted conduit to a second, remote backup domain. remoteHV is
	// the hypervisor hosting that domain — c.hv for the classic
	// same-host remote, a peer host's hypervisor when the cluster
	// control plane places the replica anti-affine.
	remote        *hv.Domain
	remoteConduit *remus.Conduit
	remoteHV      *hv.Hypervisor

	// Pipelined remote shipping (workers > 1): the ship is
	// availability-only, so it leaves the pause window — committed page
	// data is snapshotted from the backup and handed to a shipper
	// goroutine, acks drain at the next epoch boundary, and a bounded
	// in-flight window applies backpressure.
	shipCh   chan shipment
	shipRes  chan shipResult
	shipDone chan struct{}
	inFlight int
	shipErr  error

	// Undo log: the backup pages/blocks about to be overwritten by the
	// current commit, captured so a mid-commit failure can be unwound
	// and the backup stays a consistent snapshot of an audited epoch.
	undoMem  []byte
	undoDisk []byte

	// Copy-on-write commit state (EnableCoW); nil on the eager paths.
	cow *cowState

	report CommitReport

	// closeMu serializes Close so a double close — including concurrent
	// closes from a fleet teardown racing a test's deferred cleanup — is
	// a strict no-op.
	closeMu sync.Mutex
	closed  bool

	// Observability (nil/inert when disabled).
	obsr  *obs.Observer
	obsVM string
	met   ckptMetrics
}

// ckptMetrics are the checkpointer's pre-resolved metric handles; all
// nil (inert) without a metrics registry.
type ckptMetrics struct {
	scanNs, undoNs, memcopyNs, diskcopyNs, shipNs *obs.Histogram
	inFlight                                      *obs.Gauge
	acked, retries, degraded                      *obs.Counter
}

// SetObserver wires the observability layer into the checkpointer and
// its replication conduits. vm labels this VM's metric series. Safe to
// call once, before the first instrumented commit.
func (c *Checkpointer) SetObserver(o *obs.Observer, vm string) {
	if !o.Enabled() {
		return
	}
	c.obsr = o
	c.obsVM = vm
	reg := o.Registry()
	phaseHist := func(phase string) *obs.Histogram {
		return reg.Histogram("crimes_commit_phase_ns", obs.DurationBuckets(), "vm", vm, "phase", phase)
	}
	c.met = ckptMetrics{
		scanNs:     phaseHist("scan"),
		undoNs:     phaseHist("undo"),
		memcopyNs:  phaseHist("memcopy"),
		diskcopyNs: phaseHist("diskcopy"),
		shipNs:     phaseHist("remoteship"),
		inFlight:   reg.Gauge("crimes_remote_inflight", "vm", vm),
		acked:      reg.Counter("crimes_remote_acked_total", "vm", vm),
		retries:    reg.Counter("crimes_remote_ship_retries_total", "vm", vm),
		degraded:   reg.Counter("crimes_remote_degraded_total", "vm", vm),
	}
	c.conduit.SetObserver(o, vm)
	c.remoteConduit.SetObserver(o, vm)
}

// observeCommit folds the just-finished commit attempt's report into
// the metric series.
func (c *Checkpointer) observeCommit() {
	t := c.report.Timings
	c.met.scanNs.ObserveDuration(int64(t.Scan))
	c.met.undoNs.ObserveDuration(int64(t.Undo))
	c.met.memcopyNs.ObserveDuration(int64(t.MemCopy))
	if t.DiskCopy > 0 {
		c.met.diskcopyNs.ObserveDuration(int64(t.DiskCopy))
	}
	if t.RemoteShip > 0 {
		c.met.shipNs.ObserveDuration(int64(t.RemoteShip))
	}
	c.met.inFlight.Set(int64(c.inFlight))
	c.met.acked.Add(int64(c.report.RemoteAcked))
	c.met.retries.Add(int64(c.report.RemoteRetries))
}

// CommitReport describes the recovery events and measured phase
// timings of the most recent checkpoint commit attempt.
type CommitReport struct {
	// RemoteRetries counts transient remote-ship failures retried
	// during the commit (including retries inside the pipelined
	// shipper, folded in when its result drains).
	RemoteRetries int
	// RemoteDegraded is true when remote replication was disabled
	// during the commit after a persistent failure.
	RemoteDegraded bool
	// Warnings records non-fatal anomalies, such as the degradation.
	Warnings []string
	// Timings are the real wall-clock durations of the commit's phases.
	Timings PhaseTimings
	// RemoteInFlight is the number of pipelined remote shipments still
	// awaiting acknowledgement when the commit returned.
	RemoteInFlight int
	// RemoteAcked counts pipelined shipments whose acknowledgements
	// drained during this commit (at the epoch boundary or under
	// window backpressure).
	RemoteAcked int
}

// PhaseTimings is the measured wall-clock breakdown of one commit's
// pause-path phases. Virtual-time pricing lives in internal/cost; these
// are the substrate's real timings, surfaced so the parallel speedup is
// observable per epoch.
type PhaseTimings struct {
	// Workers is the parallelism the commit ran with.
	Workers int
	// Scan is the dirty-bitmap scan.
	Scan time.Duration
	// Undo is the undo-log capture (backup pages/blocks about to be
	// overwritten).
	Undo time.Duration
	// MemCopy is the dirty-page copy into the backup domain.
	MemCopy time.Duration
	// DiskCopy is the dirty-block copy into the backup disk; with
	// workers > 1 it overlaps MemCopy.
	DiskCopy time.Duration
	// RemoteShip is the remote-replication time spent inside the
	// commit: the full encrypted round trip when serial, only the
	// snapshot/enqueue (plus any window backpressure) when pipelined.
	RemoteShip time.Duration
}

// LastReport returns the recovery report of the most recent commit
// attempt.
func (c *Checkpointer) LastReport() CommitReport { return c.report }

// Params configures a checkpointer.
type Params struct {
	// Opt is the paper's optimization level.
	Opt cost.Optimization
	// Workers is the pause-path parallelism; <= 1 is the serial path.
	Workers int
	// Remus selects the replication conduits' wire protocol. The zero
	// value (remus.ModeRaw) is the v1 seed path, bit-for-bit.
	Remus remus.Mode
	// RemusBudgetPages bounds the delta modes' sender-side
	// shipped-version table; <= 0 is unbounded.
	RemusBudgetPages int
}

// New creates a checkpointer for the primary domain, allocates the
// backup domain (doubling the VM's memory cost, §3.3), and performs the
// initial full synchronization. With p.Workers > 1 the pause path runs
// in parallel: scan, undo capture, and page copy shard across the
// workers, the disk copy overlaps the memory copy, and remote
// replication (when enabled) is pipelined out of the pause window.
// Workers <= 1 is the exact serial path.
func New(h *hv.Hypervisor, primary *hv.Domain, p Params) (*Checkpointer, error) {
	if p.Workers < 1 {
		p.Workers = 1
	}
	backup, err := h.CreateDomain(primary.Name()+"-backup", primary.Pages())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: create backup: %w", err)
	}
	c := &Checkpointer{
		hv:          h,
		primary:     primary,
		backup:      backup,
		opt:         p.Opt,
		remusMode:   p.Remus,
		remusBudget: p.RemusBudgetPages,
		workers:     p.Workers,
		dirty:       mem.NewBitmap(primary.Pages()),
		scratch:     make([]mem.PFN, 0, primary.Pages()),
	}
	opt := p.Opt
	// Any failure below must release everything acquired so far — in
	// particular the backup domain, whose machine frames would otherwise
	// leak with no handle left to destroy them.
	fail := func(err error) (*Checkpointer, error) {
		if c.gmPrimary != nil {
			c.gmPrimary.Unmap()
		}
		if c.gmBackup != nil {
			c.gmBackup.Unmap()
		}
		if c.conduit != nil {
			_ = c.conduit.Close()
		}
		_ = h.DestroyDomain(backup.ID())
		return nil, err
	}
	if opt >= cost.Premap {
		if c.gmPrimary, err = h.MapAll(primary); err != nil {
			return fail(fmt.Errorf("checkpoint: premap primary: %w", err))
		}
		if c.gmBackup, err = h.MapAll(backup); err != nil {
			return fail(fmt.Errorf("checkpoint: premap backup: %w", err))
		}
	}
	if opt == cost.NoOpt {
		key := []byte("crimes-remus-key")
		if c.conduit, err = remus.NewConduitMode(h, backup, key, c.remusMode, c.remusBudget); err != nil {
			return fail(err)
		}
	}
	// Initial synchronization: ship every page, as live migration's
	// final stop-and-copy does.
	primary.EnableDirtyLogging()
	primary.MarkAllDirty()
	if _, err := c.Checkpoint(); err != nil {
		return fail(fmt.Errorf("checkpoint: initial sync: %w", err))
	}
	return c, nil
}

// AttachDisk enables disk checkpointing for the primary's block device:
// the backup disk is allocated and fully synchronized.
func (c *Checkpointer) AttachDisk(d *vdisk.Disk) error {
	if c.closed {
		return ErrClosed
	}
	c.disk = d
	c.backupDisk = vdisk.New(d.Blocks())
	d.InjectFaults(c.hv.Faults())
	c.backupDisk.InjectFaults(c.hv.Faults())
	d.EnableDirtyLogging()
	d.MarkAllDirty()
	blocks := d.HarvestDirty(nil)
	if err := d.CopyBlocksTo(c.backupDisk, blocks); err != nil {
		return fmt.Errorf("checkpoint: initial disk sync: %w", err)
	}
	return nil
}

// BackupDisk returns the backup block device, or nil.
func (c *Checkpointer) BackupDisk() *vdisk.Disk { return c.backupDisk }

// EnableRemoteReplication adds Remus-style high availability on top of
// the local security checkpoints: every epoch's dirty pages are also
// shipped, encrypted, to a remote backup domain. This restores the
// availability guarantee CRIMES trades away by keeping its backup local
// (§4.1), at the cost of paying the socket path again.
func (c *Checkpointer) EnableRemoteReplication(key []byte) error {
	return c.EnableRemoteReplicationOn(c.hv, c.primary.Name()+"-remote", key)
}

// EnableRemoteReplicationOn is EnableRemoteReplication with an explicit
// placement: the replica domain is created (under the given name) on
// peer, which may be a different host's hypervisor. The conduit's
// restore side writes directly into the replica domain, so the wire
// protocol is unchanged; only where the replica lives differs. The
// cluster control plane uses this to keep each VM's replica anti-affine
// to its primary.
func (c *Checkpointer) EnableRemoteReplicationOn(peer *hv.Hypervisor, name string, key []byte) error {
	if c.closed {
		return ErrClosed
	}
	if c.remote != nil {
		return errors.New("checkpoint: remote replication already enabled")
	}
	remote, err := peer.CreateDomain(name, c.primary.Pages())
	if err != nil {
		return fmt.Errorf("checkpoint: create remote backup: %w", err)
	}
	conduit, err := remus.NewConduitMode(c.hv, remote, key, c.remusMode, c.remusBudget)
	if err != nil {
		// The remote domain must not leak when the conduit to it cannot
		// be established.
		_ = peer.DestroyDomain(remote.ID())
		return err
	}
	c.remote = remote
	c.remoteConduit = conduit
	c.remoteHV = peer
	if c.obsr != nil {
		conduit.SetObserver(c.obsr, c.obsVM)
	}
	// Initial full sync of the remote (always synchronous: replication
	// is not active until the remote holds a complete snapshot).
	if err := c.shipRemote(c.allPFNs()); err != nil {
		// Unwind completely: replication never became active.
		_ = conduit.Close()
		_ = peer.DestroyDomain(remote.ID())
		c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
		return fmt.Errorf("checkpoint: initial remote sync: %w", err)
	}
	return nil
}

// Remote returns the remote backup domain, or nil.
func (c *Checkpointer) Remote() *hv.Domain { return c.remote }

// TamperRemoteWire arms a one-shot man-in-the-middle mutation on the
// remote replication conduit: the next shipped batch has one ciphertext
// byte XORed with mask at the given wire offset. Scenario harness only —
// it models an attacker on the replication network. Raw-mode streams
// silently apply the flipped plaintext to the remote backup; the v2
// decoder is fail-closed and kills the channel instead, which surfaces
// as a remote-replication degradation at the next commit.
func (c *Checkpointer) TamperRemoteWire(offset int, mask byte) error {
	if c.remoteConduit == nil {
		return fmt.Errorf("checkpoint: tamper remote wire: no remote replication session")
	}
	c.remoteConduit.TamperNextBatch(offset, mask)
	return nil
}

// RemoteHV returns the hypervisor hosting the remote backup domain, or
// nil when remote replication is off.
func (c *Checkpointer) RemoteHV() *hv.Hypervisor { return c.remoteHV }

// DetachRemote settles the replication session and hands the remote
// backup domain to the caller, which takes ownership. Outstanding
// pipelined shipments are drained first — bytes already on the wire
// land — so the returned domain holds exactly the last committed,
// acknowledged checkpoint. This is the promotion hook: after the
// primary's host dies, the cluster adopts the returned replica as the
// VM's new primary. An error means the session could not be settled
// cleanly (the replica may be stale) and promotion must not proceed.
func (c *Checkpointer) DetachRemote() (*hv.Domain, error) {
	if c.remote == nil {
		return nil, errors.New("checkpoint: no remote replication session")
	}
	if err := c.stopShipper(); err != nil {
		c.degradeRemote(err)
		return nil, fmt.Errorf("checkpoint: detach remote: drain shipper: %w", err)
	}
	dom := c.remote
	conduit := c.remoteConduit
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	if _, err := conduit.Handoff(); err != nil {
		return nil, fmt.Errorf("checkpoint: detach remote: %w", err)
	}
	return dom, nil
}

// DisableRemoteReplication tears the remote session down — conduit
// closed, replica domain destroyed — without recording a degradation.
// The cluster uses it when the host holding a VM's replica dies and a
// fresh replica must be re-armed elsewhere; the destroy on the dead
// host's hypervisor is bookkeeping only.
func (c *Checkpointer) DisableRemoteReplication() error {
	if c.remote == nil {
		return nil
	}
	shipErr := c.stopShipper()
	closeErr := c.remoteConduit.Close()
	destroyErr := c.remoteHV.DestroyDomain(c.remote.ID())
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	return errors.Join(shipErr, closeErr, destroyErr)
}

func (c *Checkpointer) shipRemote(dirty []mem.PFN) error {
	fmP, err := c.hv.MapForeign(c.primary, dirty)
	if err != nil {
		return err
	}
	defer fmP.Unmap()
	return c.remoteConduit.SendCheckpoint(dirty, fmP.Page)
}

// Backup returns the backup domain holding the most recent clean
// snapshot.
func (c *Checkpointer) Backup() *hv.Domain { return c.backup }

// Primary returns the protected domain.
func (c *Checkpointer) Primary() *hv.Domain { return c.primary }

// Domains returns every domain this checkpointer touches: the primary,
// the local backup, and the remote backup when remote replication is
// enabled. A fleet uses it to charge a VM's full checkpointing
// footprint (backups included) to that VM, and to reclaim every domain
// on teardown.
func (c *Checkpointer) Domains() []*hv.Domain {
	ds := []*hv.Domain{c.primary, c.backup}
	if c.remote != nil {
		ds = append(ds, c.remote)
	}
	return ds
}

// Optimization returns the active optimization level.
func (c *Checkpointer) Optimization() cost.Optimization { return c.opt }

// Workers returns the pause-path parallelism.
func (c *Checkpointer) Workers() int { return c.workers }

// SetWorkers retunes the pause-path parallelism between epochs (values
// below 1 force the exact serial path). An SLO controller uses this to
// spend parallelism against the commit pause at runtime; changing it
// mid-commit is not supported.
func (c *Checkpointer) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workers = n
}

// allPFNs returns the cached every-page index slice, building it on
// first use.
func (c *Checkpointer) allPFNs() []mem.PFN {
	if c.allPages == nil {
		c.allPages = make([]mem.PFN, c.primary.Pages())
		for i := range c.allPages {
			c.allPages[i] = mem.PFN(i)
		}
	}
	return c.allPages
}

// allBlocks returns the cached every-block index slice for the attached
// disk, building it on first use.
func (c *Checkpointer) allBlocks() []mem.PFN {
	if c.allDiskBlks == nil {
		c.allDiskBlks = make([]mem.PFN, c.disk.Blocks())
		for i := range c.allDiskBlks {
			c.allDiskBlks[i] = mem.PFN(i)
		}
	}
	return c.allDiskBlks
}

// runSharded splits n items into at most c.workers contiguous shards
// and runs fn(lo, hi) over each shard concurrently. Shards are disjoint
// index ranges, so workers never alias pages. The returned error is the
// lowest-indexed shard's, making the reported failure deterministic
// regardless of scheduling. With one worker (or one item) fn runs
// inline — the exact serial path.
func (c *Checkpointer) runSharded(n int, fn func(lo, hi int) error) error {
	w := c.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		if n == 0 {
			return nil
		}
		return fn(0, n)
	}
	errs := make([]error, w)
	per := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = fn(lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint propagates the pages dirtied since the previous checkpoint
// into the backup domain and returns the real operation counts for cost
// accounting. The caller is responsible for pausing the primary first.
func (c *Checkpointer) Checkpoint() (cost.Counts, error) {
	if c.closed {
		return cost.Counts{}, ErrClosed
	}
	if err := c.primary.HarvestDirty(c.dirty); err != nil {
		return cost.Counts{}, err
	}
	return c.checkpointDirty()
}

// CheckpointBitmap is Checkpoint for a caller that already harvested
// the epoch's dirty bitmap (the CRIMES controller harvests once and
// shares the bitmap with the Detector for dirty-scoped scans, §3.2).
func (c *Checkpointer) CheckpointBitmap(dirty *mem.Bitmap) (cost.Counts, error) {
	if c.closed {
		return cost.Counts{}, ErrClosed
	}
	if err := c.dirty.CopyFrom(dirty); err != nil {
		return cost.Counts{}, err
	}
	return c.checkpointDirty()
}

// checkpointDirty commits the harvested dirty set. In the delta wire
// modes it brackets the commit with conduit-stats snapshots so the
// returned counts carry this epoch's replication traffic; raw mode adds
// no bookkeeping to the seed path. Pipelined remote shipments that
// complete after the commit returns are picked up by a later epoch's
// delta (the cumulative totals stay exact).
func (c *Checkpointer) checkpointDirty() (cost.Counts, error) {
	if c.remusMode == remus.ModeRaw {
		return c.commitDirty()
	}
	// Hold the conduit pointers: a mid-commit degradation nils
	// c.remoteConduit, but the traffic it carried this epoch still
	// counts (Stats stays readable on a closed conduit).
	local, remote := c.conduit, c.remoteConduit
	localBase := local.Stats()
	remoteBase := remote.Stats()
	counts, err := c.commitDirty()
	if err != nil {
		return counts, err
	}
	counts.LocalRepl = local.Stats().Sub(localBase)
	counts.RemoteRepl = remote.Stats().Sub(remoteBase)
	return counts, nil
}

func (c *Checkpointer) commitDirty() (cost.Counts, error) {
	c.report = CommitReport{Timings: PhaseTimings{Workers: c.workers}}
	if c.obsr != nil {
		defer c.observeCommit()
	}

	// CoW: the previous commit's lazy copies must settle before this
	// commit reads or overwrites the backup. A convergence failure
	// surfaces here as a commit failure — the backup has already been
	// reverted to the prior epoch's snapshot by the CoW undo, so the
	// caller's rollback lands on consistent state.
	if c.cow != nil {
		if err := c.quiesceCoW(); err != nil {
			_ = c.primary.MergeDirty(c.dirty)
			return cost.Counts{}, fmt.Errorf("checkpoint: cow convergence: %w", err)
		}
	}

	// Epoch boundary: drain acknowledgements of previously pipelined
	// remote shipments without blocking; a persistent ship failure
	// surfaces here and degrades replication to local-only before this
	// commit does any remote work.
	if c.shipCh != nil {
		c.drainShipResults(false)
		if c.shipErr != nil {
			err := c.shipErr
			c.shipErr = nil
			// Stopping drains the rest of the window; a second in-flight
			// failure surfacing there is folded into this degradation
			// rather than left parked for a future commit to trip over.
			if e2 := c.stopShipper(); e2 != nil && err == nil {
				err = e2
			}
			c.degradeRemote(err)
		}
	}

	// Dirty bitmap scan: the Full level uses the word-granularity scan,
	// sharded across the worker pool for large bitmaps.
	scanStart := time.Now()
	if c.opt >= cost.Full {
		if c.workers > 1 {
			c.scratch = c.dirty.ScanWordsParallel(c.scratch[:0], c.workers)
		} else {
			c.scratch = c.dirty.ScanWords(c.scratch[:0])
		}
	} else {
		c.scratch = c.dirty.ScanBits(c.scratch[:0])
	}
	c.report.Timings.Scan = time.Since(scanStart)
	dirty := c.scratch

	// Harvest the disk's dirty blocks up front so the undo log covers
	// them; a failed commit re-marks them so a retry sees them again.
	var diskDirty []mem.PFN
	if c.disk != nil {
		c.diskScratch = c.disk.HarvestDirty(c.diskScratch[:0])
		diskDirty = c.diskScratch
	}

	counts := cost.Counts{
		TotalPages:  c.primary.Pages(),
		DirtyPages:  len(dirty),
		BytesCopied: len(dirty) * mem.PageSize,
	}

	// CoW takes over from here: dirty metadata is recorded, write
	// protection armed, and the page copies happen lazily behind the
	// resumed guest. BytesCopied keeps the memory bytes — they are still
	// copied, just off the pause-window critical path; the cost model's
	// CoW pricing is what moves them out of the pause.
	if c.cow != nil {
		return c.commitCoW(dirty, diskDirty, counts)
	}

	// Capture the backup pages and blocks this commit will overwrite.
	// The invariant the undo log protects: the backup is a consistent
	// snapshot of SOME audited epoch at every instant, so rollback is
	// always safe — even when a copy path dies halfway through.
	// remark restores the dirty logs a failed commit consumed — the
	// harvested pages back into the primary's log and the harvested
	// blocks back into the disk's — so a retried Checkpoint still
	// covers them.
	remark := func() {
		_ = c.primary.MergeDirty(c.dirty)
		if c.disk != nil {
			c.disk.MarkDirty(diskDirty)
		}
	}
	fail := func(err error) (cost.Counts, error) {
		c.applyUndo(dirty, diskDirty)
		remark()
		return cost.Counts{}, err
	}
	// The undo-log invariant under concurrency: undo capture COMPLETES
	// — across every shard, for memory and disk — before any copy
	// worker writes a byte into the backup. A worker failing mid-commit
	// therefore always finds a complete undo log to restore from.
	undoStart := time.Now()
	if err := c.captureUndo(dirty, diskDirty); err != nil {
		// Nothing was modified yet; just restore the dirty logs.
		remark()
		return cost.Counts{}, err
	}
	c.report.Timings.Undo = time.Since(undoStart)

	// Copy phase: pages shard across the worker pool; the disk-block
	// copy is independent of the memory copy (disjoint storage), so
	// with workers > 1 it runs concurrently with it. The memory copy's
	// error takes precedence, matching the serial path's report; either
	// failure unwinds both via the undo log.
	var memErr, diskErr error
	var diskTime time.Duration
	memStart := time.Now()
	if c.disk != nil && c.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			diskStart := time.Now()
			diskErr = c.disk.CopyBlocksTo(c.backupDisk, diskDirty)
			diskTime = time.Since(diskStart)
		}()
		memErr = c.copyMemory(dirty)
		c.report.Timings.MemCopy = time.Since(memStart)
		wg.Wait()
	} else {
		memErr = c.copyMemory(dirty)
		c.report.Timings.MemCopy = time.Since(memStart)
		if memErr == nil && c.disk != nil {
			diskStart := time.Now()
			diskErr = c.disk.CopyBlocksTo(c.backupDisk, diskDirty)
			diskTime = time.Since(diskStart)
		}
	}
	c.report.Timings.DiskCopy = diskTime
	if memErr != nil {
		return fail(memErr)
	}
	if diskErr != nil {
		return fail(diskErr)
	}
	if c.disk != nil {
		counts.DiskBlocks = len(diskDirty)
		counts.BytesCopied += len(diskDirty) * vdisk.BlockSize
	}
	if c.remote != nil {
		// Remote replication is an availability add-on (§4.1): it must
		// never fail the security-critical local commit. Serial mode
		// ships inside the commit (transient failures retried, a
		// persistent failure downgrades to local-only); parallel mode
		// pipelines the ship behind the resumed guest and only pays the
		// committed-page snapshot plus any window backpressure here.
		shipStart := time.Now()
		if c.workers > 1 {
			if c.enqueueShipment(dirty) {
				counts.RemotePages = len(dirty)
			}
		} else {
			if err := c.shipRemoteRetry(dirty); err != nil {
				c.degradeRemote(err)
			} else {
				counts.RemotePages = len(dirty)
			}
		}
		c.report.Timings.RemoteShip = time.Since(shipStart)
	}
	c.report.RemoteInFlight = c.inFlight
	return counts, nil
}

// copyMemory dispatches to the optimization level's page-copy path.
func (c *Checkpointer) copyMemory(dirty []mem.PFN) error {
	switch {
	case c.opt >= cost.Premap:
		return c.copyPremapped(dirty)
	case c.opt == cost.Memcpy:
		return c.copyMapped(dirty)
	default:
		return c.copySocket(dirty)
	}
}

// captureUndo saves the backup pages and disk blocks the commit is
// about to overwrite into reusable scratch buffers. The page loop
// shards across the worker pool: each worker reads a disjoint PFN range
// into a disjoint region of the undo buffer. Capture is complete for
// every shard before the caller starts any copy worker.
func (c *Checkpointer) captureUndo(dirty, diskDirty []mem.PFN) error {
	need := len(dirty) * mem.PageSize
	if cap(c.undoMem) < need {
		c.undoMem = make([]byte, need)
	}
	c.undoMem = c.undoMem[:need]
	if err := c.runSharded(len(dirty), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			pfn := dirty[i]
			off := i * mem.PageSize
			if err := c.backup.ReadPhys(uint64(pfn)*mem.PageSize, c.undoMem[off:off+mem.PageSize]); err != nil {
				return fmt.Errorf("checkpoint: undo capture pfn %d: %w", pfn, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return c.captureDiskUndo(diskDirty)
}

// captureDiskUndo saves the backup disk blocks the commit is about to
// overwrite. The CoW commit path uses it alone: disk blocks are still
// committed eagerly under pause, while the memory undo is captured
// lazily, page by page, as the backup copies land.
func (c *Checkpointer) captureDiskUndo(diskDirty []mem.PFN) error {
	need := len(diskDirty) * vdisk.BlockSize
	if cap(c.undoDisk) < need {
		c.undoDisk = make([]byte, need)
	}
	c.undoDisk = c.undoDisk[:need]
	for i, b := range diskDirty {
		off := i * vdisk.BlockSize
		if err := c.backupDisk.ReadBlock(int(b), c.undoDisk[off:off+vdisk.BlockSize]); err != nil {
			return fmt.Errorf("checkpoint: undo capture block %d: %w", b, err)
		}
	}
	return nil
}

// applyUndo restores the backup pages and blocks saved by captureUndo,
// reverting a partially applied commit.
func (c *Checkpointer) applyUndo(dirty, diskDirty []mem.PFN) {
	for i, pfn := range dirty {
		off := i * mem.PageSize
		_ = c.backup.WritePhys(uint64(pfn)*mem.PageSize, c.undoMem[off:off+mem.PageSize])
	}
	c.applyDiskUndo(diskDirty)
}

// applyDiskUndo restores the backup disk blocks saved by captureDiskUndo.
func (c *Checkpointer) applyDiskUndo(diskDirty []mem.PFN) {
	for i, b := range diskDirty {
		off := i * vdisk.BlockSize
		_ = c.backupDisk.WriteBlock(int(b), 0, c.undoDisk[off:off+vdisk.BlockSize])
	}
}

// shipRemoteRetry ships dirty pages to the remote backup, retrying
// transient conduit failures up to maxRemoteRetries times.
func (c *Checkpointer) shipRemoteRetry(dirty []mem.PFN) error {
	for retries := 0; ; retries++ {
		err := c.shipRemote(dirty)
		if err == nil {
			return nil
		}
		if !fault.IsTransient(err) || retries >= maxRemoteRetries {
			return err
		}
		c.report.RemoteRetries++
	}
}

// degradeRemote disables remote replication after a persistent ship
// failure: the conduit is closed, the remote domain destroyed, and the
// downgrade recorded, so local security checkpointing continues. In
// pipelined mode the caller stops the shipper first.
func (c *Checkpointer) degradeRemote(cause error) {
	_ = c.remoteConduit.Close()
	_ = c.remoteHV.DestroyDomain(c.remote.ID())
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	c.report.RemoteDegraded = true
	c.met.degraded.Inc()
	c.report.Warnings = append(c.report.Warnings,
		fmt.Sprintf("remote replication disabled, continuing local-only: %v", cause))
}

// shipment is one committed checkpoint queued for pipelined remote
// replication: the dirty PFNs plus a snapshot of their committed
// contents, taken from the backup domain so the resumed (and again
// mutating) primary cannot tear the data mid-ship.
type shipment struct {
	pfns []mem.PFN
	data []byte // len(pfns) * mem.PageSize
}

// shipResult is the shipper goroutine's outcome for one shipment.
type shipResult struct {
	err     error
	retries int
}

// enqueueShipment snapshots the committed pages from the backup and
// hands them to the shipper goroutine, blocking only when the in-flight
// window is full. It reports whether the shipment was enqueued; false
// means replication degraded while draining the window.
func (c *Checkpointer) enqueueShipment(dirty []mem.PFN) bool {
	if c.shipCh == nil {
		c.shipCh = make(chan shipment, maxShipsInFlight)
		c.shipRes = make(chan shipResult, maxShipsInFlight+1)
		c.shipDone = make(chan struct{})
		go c.shipper(c.remoteConduit, c.shipCh, c.shipRes, c.shipDone)
	}
	if c.inFlight >= maxShipsInFlight {
		// Window backpressure: wait for the oldest shipment to drain.
		c.drainShipResults(true)
		if c.shipErr != nil {
			err := c.shipErr
			c.shipErr = nil
			if e2 := c.stopShipper(); e2 != nil && err == nil {
				err = e2
			}
			c.degradeRemote(err)
			return false
		}
	}
	// The PFN list must be snapshotted along with the data: dirty
	// aliases the checkpointer's reusable scratch slice, which the next
	// epoch's scan overwrites while this shipment may still be in flight.
	s := shipment{pfns: append([]mem.PFN(nil), dirty...), data: make([]byte, len(dirty)*mem.PageSize)}
	// Snapshot through the worker pool: the backup is immutable until
	// the next commit, and shards write disjoint regions. Under CoW the
	// backup is still converging toward this epoch, so the snapshot
	// reads the paused primary instead — it holds exactly the committed
	// epoch's bytes until the guest resumes.
	src := c.backup
	if c.cow != nil {
		src = c.primary
	}
	if err := c.runSharded(len(dirty), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			off := i * mem.PageSize
			if err := src.ReadPhys(uint64(dirty[i])*mem.PageSize, s.data[off:off+mem.PageSize]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		// Snapshot failure is local, not a conduit failure; degrade the
		// same way rather than fail the already-committed epoch.
		_ = c.stopShipper()
		c.degradeRemote(fmt.Errorf("checkpoint: snapshot for remote ship: %w", err))
		return false
	}
	c.shipCh <- s
	c.inFlight++
	return true
}

// shipper is the pipelined replication goroutine: it serializes,
// encrypts, and sends each queued shipment and waits for the backup's
// acknowledgement, overlapping all of it with the resumed guest's
// execution. Transient conduit failures are retried in place; the
// result (error and retry count) is reported for the committing
// goroutine to drain at the next epoch boundary.
func (c *Checkpointer) shipper(conduit *remus.Conduit, in <-chan shipment, out chan<- shipResult, done chan<- struct{}) {
	defer close(done)
	for s := range in {
		var res shipResult
		for {
			err := shipSnapshot(conduit, s)
			if err == nil {
				break
			}
			if !fault.IsTransient(err) || res.retries >= maxRemoteRetries {
				res.err = err
				break
			}
			res.retries++
		}
		out <- res
	}
}

// shipSnapshot sends one snapshotted shipment over the conduit and
// waits for its ack.
func shipSnapshot(conduit *remus.Conduit, s shipment) error {
	if err := conduit.Send(s.pfns, func(pfn mem.PFN) ([]byte, error) {
		i := sort.Search(len(s.pfns), func(i int) bool { return s.pfns[i] >= pfn })
		if i >= len(s.pfns) || s.pfns[i] != pfn {
			return nil, fmt.Errorf("checkpoint: shipment missing pfn %d", pfn)
		}
		return s.data[i*mem.PageSize : (i+1)*mem.PageSize], nil
	}); err != nil {
		return err
	}
	return conduit.AwaitAck()
}

// drainShipResults folds completed shipper results into the report.
// With block set it waits for at least one outstanding result; it then
// keeps consuming whatever has already completed without blocking. The
// first persistent failure is parked in c.shipErr for the caller to
// turn into a degradation.
func (c *Checkpointer) drainShipResults(block bool) {
	for c.inFlight > 0 {
		if block {
			res := <-c.shipRes
			c.noteShipResult(res)
			block = false
			continue
		}
		select {
		case res := <-c.shipRes:
			c.noteShipResult(res)
		default:
			return
		}
	}
}

func (c *Checkpointer) noteShipResult(res shipResult) {
	c.inFlight--
	c.report.RemoteRetries += res.retries
	if res.err != nil {
		if c.shipErr == nil {
			c.shipErr = res.err
		}
		return
	}
	c.report.RemoteAcked++
}

// stopShipper shuts the pipelined shipper down, draining every
// outstanding acknowledgement first (shipRes is buffered to the window
// size, so the shipper never blocks after its input closes). Any
// failure drained while stopping is returned WITH c.shipErr cleared:
// leaving it parked would make a dead shipper's error sticky, failing
// commits long after replication already degraded — and tearing down a
// healthy remote if replication is later re-enabled.
func (c *Checkpointer) stopShipper() error {
	if c.shipCh == nil {
		return nil
	}
	close(c.shipCh)
	for c.inFlight > 0 {
		c.noteShipResult(<-c.shipRes)
	}
	<-c.shipDone
	c.shipCh, c.shipRes, c.shipDone = nil, nil, nil
	err := c.shipErr
	c.shipErr = nil
	return err
}

// copyPremapped copies dirty pages through the startup-time global
// mappings (Optimizations 1+2), sharded across the worker pool over
// disjoint PFN ranges — pages are independent, so workers never alias.
func (c *Checkpointer) copyPremapped(dirty []mem.PFN) error {
	return c.runSharded(len(dirty), func(lo, hi int) error {
		for _, pfn := range dirty[lo:hi] {
			if err := c.hv.Faults().Check(FaultCopyPage); err != nil {
				return fmt.Errorf("checkpoint: copy pfn %d: %w", pfn, err)
			}
			src, err := c.gmPrimary.Page(pfn)
			if err != nil {
				return err
			}
			dst, err := c.gmBackup.Page(pfn)
			if err != nil {
				return err
			}
			copy(dst, src)
		}
		return nil
	})
}

// copyMapped maps the dirty pages of both VMs for this epoch only
// (serially: mapping is a hypercall path), then copies with the worker
// pool (Optimization 1 alone). The mappings are read-only during the
// sharded copy, so concurrent Page lookups are safe.
func (c *Checkpointer) copyMapped(dirty []mem.PFN) error {
	fmP, err := c.hv.MapForeign(c.primary, dirty)
	if err != nil {
		return err
	}
	defer fmP.Unmap()
	fmB, err := c.hv.MapForeign(c.backup, dirty)
	if err != nil {
		return err
	}
	defer fmB.Unmap()
	return c.runSharded(len(dirty), func(lo, hi int) error {
		for _, pfn := range dirty[lo:hi] {
			src, err := fmP.Page(pfn)
			if err != nil {
				return err
			}
			dst, err := fmB.Page(pfn)
			if err != nil {
				return err
			}
			copy(dst, src)
		}
		return nil
	})
}

// copySocket ships the dirty pages through the encrypted Remus conduit
// to the restore process (the unoptimized baseline).
func (c *Checkpointer) copySocket(dirty []mem.PFN) error {
	fmP, err := c.hv.MapForeign(c.primary, dirty)
	if err != nil {
		return err
	}
	defer fmP.Unmap()
	return c.conduit.SendCheckpoint(dirty, fmP.Page)
}

// Rollback copies the backup's memory back into the primary — the
// Analyzer's first response step after a failed audit.
func (c *Checkpointer) Rollback() error {
	if c.closed {
		return ErrClosed
	}
	// Drain (or cancel) in-flight lazy copies first: rollback restores
	// the primary from the backup, so the backup must be a settled,
	// consistent snapshot. A failed convergence has already reverted the
	// backup — memory and disk — to the previous epoch's snapshot, which
	// is equally consistent to roll back to, so the error itself needs no
	// separate surfacing here.
	if c.cow != nil {
		_ = c.quiesceCoW()
	}
	snap, err := c.backup.DumpMemory()
	if err != nil {
		return fmt.Errorf("checkpoint: rollback dump: %w", err)
	}
	if err := c.primary.RestoreMemory(snap); err != nil {
		return fmt.Errorf("checkpoint: rollback restore: %w", err)
	}
	if c.disk != nil {
		if err := c.backupDisk.CopyBlocksTo(c.disk, c.allBlocks()); err != nil {
			return fmt.Errorf("checkpoint: rollback disk: %w", err)
		}
		c.disk.MarkAllDirty()
	}
	// Everything was rewritten; restart dirty tracking from a full set
	// so the next checkpoint re-synchronizes.
	c.primary.MarkAllDirty()
	return nil
}

// Close releases the conduits and mappings. The backup domain is left
// intact for post-mortem use. Any pipelined remote shipments are drained
// first so the remote backup converges to the last committed epoch.
// Both conduits are always closed; their errors, if any, are joined.
// Close is idempotent and safe to call concurrently: a second close —
// serial or racing the first — is a no-op returning nil.
func (c *Checkpointer) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cow != nil {
		// Stop the background copier, then settle any still-pending lazy
		// copies inline so the backup is a complete snapshot for
		// post-mortem use.
		close(c.cow.stop)
		<-c.cow.done
		_ = c.quiesceCoW()
		c.primary.SetWriteFaultHandler(nil)
	}
	if err := c.stopShipper(); err != nil {
		if c.remote != nil {
			c.degradeRemote(err)
		}
	}
	if c.gmPrimary != nil {
		c.gmPrimary.Unmap()
		c.gmBackup.Unmap()
	}
	var errs []error
	if c.remoteConduit != nil {
		errs = append(errs, c.remoteConduit.Close())
	}
	if c.conduit != nil {
		errs = append(errs, c.conduit.Close())
	}
	return errors.Join(errs...)
}
