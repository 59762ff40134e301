package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/workload"

	crimes "repro"
)

// workloadSpec is one set of inputs the benchmark runs. Steady
// workloads drive a closed loop of protected epochs on long-lived VMs;
// the incident workload repeats launch, one clean epoch and one attacked
// epoch on fresh VMs.
type workloadSpec struct {
	name   string
	why    string
	params string
	vms    int
	pages  int
	// remote places a Remus replica on a separate peer hypervisor.
	remote bool
	remus  core.RemusMode
	opt    cost.Optimization
	// newGuest returns the guest-input generator of VM i of a steady
	// workload.
	newGuest func(seed int64, vm int) guestInput
	// incident marks the launch/clean/attack workload.
	incident bool
}

// guestInput produces the guest work of one epoch (1-based). Inputs are
// a pure function of the seed, the VM and the epoch number, so two runs
// with the same seed feed the guests the same operations.
type guestInput interface {
	work(epoch int) func(*guestos.Guest) error
}

var workloads = []*workloadSpec{
	{
		name: "audit",
		why: "one canary-heavy Linux guest, 16 pages rewritten per epoch: the detector modules, VMI walks and " +
			"guest-state snapshot dominate while the commit copies little",
		params: "1 VM x 4096 pages, 24 processes x 75 heap allocations (1800 canaries), 16 distinct pages written per epoch, " +
			"default modules, Workers=GOMAXPROCS, eager commit, raw wire, no replica",
		vms: 1, pages: 4096, opt: crimes.OptFull,
		newGuest: func(seed int64, _ int) guestInput { return &auditGuest{seed: seed} },
	},
	{
		name: "replicate",
		why: "small writes to 256 pages per epoch shipped over the delta+dedup wire to the local backup and to a " +
			"Remus replica on a peer host: wire hashing, encoding and decoding, copy and undo dominate while the audit is small",
		params: "1 VM x 4096 pages, 1 process with a 512-page arena, 256 distinct pages x 16-48 byte writes per epoch, " +
			"RemusDeltaDedup, OptNone (per-page maps, local commit over the wire), " +
			"remote replica on a separate hv via EnableRemoteReplicationOn",
		vms: 1, pages: 4096, remote: true, remus: core.RemusDeltaDedup, opt: crimes.OptNone,
		newGuest: func(seed int64, _ int) guestInput { return &replicaGuest{seed: seed} },
	},
	{
		name: "fleet",
		why: "four VMs with mixed PARSEC dirty rates on one hypervisor, taking their epochs in turn: checkpoint undo and " +
			"copy and the bitmap scan dominate, and the slowest VM sets the round",
		params: "4 VMs x 4096 pages on one hv, shared fleet.PauseGate K=1, eager local commit, no replica, " +
			"PARSEC runners fluidanimate/vips/swaptions/freqmine at scale 16, 200 ms nominal epochs, " +
			"one driver running one epoch of each VM per round",
		vms: 4, pages: 4096, opt: crimes.OptFull,
		newGuest: func(seed int64, vm int) guestInput {
			return &parsecGuest{runner: workload.NewRunner(fleetProfiles[vm], 16)}
		},
	},
	{
		name: "incident",
		why: "fresh VM per operation, one clean epoch then a heap overflow: rollback, replay and pinpoint, the hv dumps " +
			"and the volatility postmortem dominate while steady-state layers idle",
		params: "1 VM x 1024 pages per operation, ReplayOnIncident, 1 process with 8 heap allocations, " +
			"clean epoch that starts it and writes one page, then InjectOverflow with a seeded size and spill",
		vms: 1, pages: 1024, opt: crimes.OptFull, incident: true,
	},
}

var fleetProfiles = func() []workload.Spec {
	var out []workload.Spec
	for _, n := range []string{"fluidanimate", "vips", "swaptions", "freqmine"} {
		s, err := workload.ParsecByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}()

func lookupWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// epochRNG derives the input stream of one epoch of one VM from the
// seed, independent of how many epochs ran before it.
func epochRNG(seed int64, vm, epoch int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(vm)<<32 ^ uint64(epoch)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return rand.New(rand.NewSource(int64(x)))
}

type heapAlloc struct {
	pid  uint32
	va   uint64
	size int
}

// auditGuest populates 24 processes holding 1800 live canaried heap
// allocations in epoch 1, then rewrites 16 distinct pages per epoch
// inside those allocations (never touching a canary).
type auditGuest struct {
	seed   int64
	allocs []heapAlloc
}

const (
	auditProcs      = 24
	auditAllocs     = 75
	auditPagesEpoch = 16
)

func (a *auditGuest) work(epoch int) func(*guestos.Guest) error {
	rng := epochRNG(a.seed, 0, epoch)
	if epoch == 1 {
		return func(g *guestos.Guest) error {
			a.allocs = a.allocs[:0]
			for p := 0; p < auditProcs; p++ {
				pid, err := g.StartProcess(fmt.Sprintf("svc-%02d", p), uint32(1000+p), 12)
				if err != nil {
					return err
				}
				for i := 0; i < auditAllocs; i++ {
					size := 32 + rng.Intn(224)
					va, err := g.Malloc(pid, size)
					if err != nil {
						return err
					}
					a.allocs = append(a.allocs, heapAlloc{pid, va, size})
				}
			}
			return nil
		}
	}
	return func(g *guestos.Guest) error {
		return writeDistinctPages(g, rng, a.allocs, auditPagesEpoch, 8, 32)
	}
}

// writeDistinctPages writes minLen..maxLen random bytes inside randomly
// chosen allocations until n distinct guest pages have been written.
func writeDistinctPages(g *guestos.Guest, rng *rand.Rand, allocs []heapAlloc, n, minLen, maxLen int) error {
	type page struct {
		pid uint32
		vpn uint64
	}
	seen := make(map[page]bool, n)
	var buf [64]byte
	for tries := 0; len(seen) < n && tries < 64*n; tries++ {
		a := allocs[rng.Intn(len(allocs))]
		l := minLen + rng.Intn(maxLen-minLen+1)
		if l > a.size {
			l = a.size
		}
		off := uint64(rng.Intn(a.size - l + 1))
		va := a.va + off
		p := page{a.pid, va / mem.PageSize}
		if seen[p] || (va+uint64(l)-1)/mem.PageSize != p.vpn {
			continue
		}
		seen[p] = true
		rng.Read(buf[:l])
		if err := g.WriteUser(a.pid, va, buf[:l]); err != nil {
			return err
		}
	}
	if len(seen) < n {
		return fmt.Errorf("wrote %d of %d distinct pages", len(seen), n)
	}
	return nil
}

// replicaGuest allocates one 512-page arena in epoch 1, then makes a
// small write to each of 256 distinct arena pages per epoch.
type replicaGuest struct {
	seed  int64
	pid   uint32
	arena uint64
}

const (
	replicaArenaPages = 512
	replicaPagesEpoch = 256
)

func (r *replicaGuest) work(epoch int) func(*guestos.Guest) error {
	rng := epochRNG(r.seed, 0, epoch)
	if epoch == 1 {
		return func(g *guestos.Guest) error {
			pid, err := g.StartProcess("replica-src", 1000, replicaArenaPages+4)
			if err != nil {
				return err
			}
			r.pid = pid
			r.arena, err = g.Malloc(pid, replicaArenaPages*mem.PageSize-64)
			return err
		}
	}
	return func(g *guestos.Guest) error {
		var buf [48]byte
		for _, p := range rng.Perm(replicaArenaPages)[:replicaPagesEpoch] {
			l := 16 + rng.Intn(33)
			off := rng.Intn(mem.PageSize - 128 - l)
			rng.Read(buf[:l])
			if err := g.WriteUser(r.pid, r.arena+uint64(p)*mem.PageSize+uint64(off), buf[:l]); err != nil {
				return err
			}
		}
		return nil
	}
}

// parsecGuest runs a scaled PARSEC profile for one nominal 200 ms epoch.
type parsecGuest struct {
	runner *workload.Runner
}

func (p *parsecGuest) work(int) func(*guestos.Guest) error {
	return func(g *guestos.Guest) error { return p.runner.RunEpoch(g, 200*time.Millisecond) }
}

// incidentGuest is one incident operation's guest: epoch 1 starts a
// process with eight heap allocations and writes inside them, epoch 2
// overflows a fresh allocation.
type incidentGuest struct {
	seed   int64
	op     int
	pid    uint32
	allocs []heapAlloc
	// attackVA is the allocation the overflow wrote past.
	attackVA uint64
}

func (in *incidentGuest) work(epoch int) func(*guestos.Guest) error {
	rng := epochRNG(in.seed, in.op, epoch)
	switch epoch {
	case 1:
		return func(g *guestos.Guest) error {
			pid, err := g.StartProcess("victim", 1000, 16)
			if err != nil {
				return err
			}
			in.pid, in.allocs = pid, in.allocs[:0]
			for i := 0; i < 8; i++ {
				size := 64 + rng.Intn(448)
				va, err := g.Malloc(pid, size)
				if err != nil {
					return err
				}
				in.allocs = append(in.allocs, heapAlloc{pid, va, size})
			}
			return writeDistinctPages(g, rng, in.allocs, 1, 8, 32)
		}
	default:
		return func(g *guestos.Guest) error {
			va, err := workload.InjectOverflow(g, in.pid, 32+rng.Intn(224), 8+rng.Intn(56))
			in.attackVA = va
			return err
		}
	}
}

// machine is one protected VM under measurement, driven by one
// goroutine.
type machine struct {
	idx    int
	ctl    *core.Controller
	guest  *guestos.Guest
	peer   *hv.Hypervisor // replica host, when replicating
	gate   *timingGate
	trace  *vmTrace
	input  guestInput
	epochs int // epochs run so far, warm-up included
	// launch is the wall time of creating, booting and attaching the
	// controller to the VM.
	launch time.Duration
}

var replicaKey = []byte("0123456789abcdef")

// launchOne launches a VM alone on its own host through crimes.Launch.
func launchOne(w *workloadSpec, seed int64, input guestInput, tr *vmTrace) (*machine, error) {
	m := &machine{trace: tr, input: input}
	m.gate = &timingGate{trace: tr}
	cfg := crimes.Config{
		PauseGate:        m.gate,
		Modules:          decorate(crimes.DefaultModules(), tr),
		Remus:            w.remus,
		Opt:              w.opt,
		ReplayOnIncident: w.incident,
	}
	start := time.Now()
	sys, err := crimes.Launch(crimes.Options{GuestPages: w.pages, Seed: seed, Config: cfg})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	m.launch = end.Sub(start)
	if tr != nil {
		tr.record(0, 0, spanLaunch, start, end)
	}
	m.ctl, m.guest = sys.Controller, sys.Guest
	if w.remote {
		m.peer = hv.New(w.pages + 16)
		if err := m.ctl.Checkpointer().EnableRemoteReplicationOn(m.peer, "replica", replicaKey); err != nil {
			_ = sys.Close()
			return nil, err
		}
	}
	return m, nil
}

// launchFleet boots the fleet's VMs on one shared hypervisor behind one
// fleet.PauseGate, as fleet.New does, except that each VM's controller
// gets the benchmark's timing gate wrapped around the shared gate (the
// fleet constructor overwrites Config.PauseGate, which would hide the
// pause) and its own decorated modules.
func launchFleet(w *workloadSpec, seed int64, traces []*vmTrace) ([]*machine, error) {
	h := hv.New(w.vms*(2*w.pages+32) + 64)
	shared := fleet.NewPauseGate(1)
	var ms []*machine
	for i := 0; i < w.vms; i++ {
		m := &machine{idx: i, trace: traces[i], input: w.newGuest(seed, i)}
		m.gate = &timingGate{inner: shared, trace: traces[i]}
		cfg := core.Config{PauseGate: m.gate, Opt: w.opt, Modules: decorate(crimes.DefaultModules(), traces[i])}
		start := time.Now()
		dom, err := h.CreateDomain(fmt.Sprintf("vm%d", i), w.pages)
		if err == nil {
			m.guest, err = guestos.Boot(dom, guestos.BootConfig{Profile: guestos.LinuxProfile(), Seed: seed + int64(i)})
		}
		if err == nil {
			m.ctl, err = core.New(h, m.guest, cfg)
		}
		end := time.Now()
		if err != nil {
			closeAll(ms)
			return nil, fmt.Errorf("launch vm%d: %w", i, err)
		}
		m.launch = end.Sub(start)
		if traces[i] != nil {
			traces[i].record(0, 0, spanLaunch, start, end)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func closeAll(ms []*machine) {
	for _, m := range ms {
		_ = m.ctl.Close()
	}
}

// epochResult is what the benchmark keeps of one epoch.
type epochResult struct {
	res    *core.EpochResult
	counts countRow
	start  time.Time
	end    time.Time
	work   time.Time     // when the work closure started
	held   time.Duration // time the guest was held at the boundary
	id     int64         // epoch span, when traced
}

// runEpoch runs the VM's next epoch and returns its result, counts and
// wall times.
func (m *machine) runEpoch() (epochResult, error) {
	m.epochs++
	fn := m.input.work(m.epochs)
	var out epochResult
	wrapped := func(g *guestos.Guest) error {
		out.work = time.Now()
		err := fn(g)
		if m.trace != nil {
			epoch, _ := m.trace.parents()
			m.trace.record(0, epoch, spanWork, out.work, time.Now())
		}
		return err
	}
	if m.trace != nil {
		out.id = m.trace.openEpoch()
	}
	before := m.hypercalls()
	out.start = time.Now()
	res, err := m.ctl.RunEpoch(wrapped)
	out.end = time.Now()
	out.res = res
	if m.trace != nil {
		m.trace.record(out.id, 0, spanEpoch, out.start, out.end)
		if res != nil {
			t := res.Commit.Timings
			m.trace.foldCommit(m.gate.pauseID, []phaseDur{
				{spanScan, t.Scan}, {spanUndo, t.Undo}, {spanMemcopy, t.MemCopy},
				{spanDiskcopy, t.DiskCopy}, {spanRemote, t.RemoteShip},
			})
		}
	}
	if res != nil {
		out.counts = countsOf(res, subCalls(m.hypercalls(), before))
		out.held = m.gate.held
	}
	return out, err
}

// hypercalls sums the per-domain hypercall counters of every domain the
// VM's checkpointer touches.
func (m *machine) hypercalls() hv.Hypercalls {
	var h hv.Hypercalls
	for _, d := range m.ctl.Checkpointer().Domains() {
		h.Add(d.Calls())
	}
	return h
}

func subCalls(a, b hv.Hypercalls) hv.Hypercalls {
	return hv.Hypercalls{MapPage: a.MapPage - b.MapPage, UnmapPage: a.UnmapPage - b.UnmapPage,
		Translate: a.Translate - b.Translate, DirtyRead: a.DirtyRead - b.DirtyRead,
		EventConfig: a.EventConfig - b.EventConfig}
}

// checkClean reports why a steady-state epoch is not a clean one.
func checkClean(res *core.EpochResult, err error) error {
	switch {
	case err != nil:
		return err
	case res.Incident != nil || len(res.Findings) > 0:
		return fmt.Errorf("epoch %d: %d unexpected findings", res.Epoch, len(res.Findings))
	case !res.Recovery.Clean():
		return fmt.Errorf("epoch %d: recovery %+v", res.Epoch, res.Recovery)
	}
	return nil
}

// checkIncident verifies that the attacked epoch raised an incident
// whose pinpoint lands on the injected allocation and whose report is
// non-empty.
func checkIncident(res *core.EpochResult, err error, in *incidentGuest) error {
	if err != nil {
		return err
	}
	inc := res.Incident
	switch {
	case inc == nil:
		return errors.New("attack epoch raised no incident")
	case inc.Pinpoint == nil:
		return errors.New("incident not pinpointed")
	case inc.Pinpoint.Op.PID != in.pid || inc.Pinpoint.Op.VA != in.attackVA:
		return fmt.Errorf("pinpoint at pid %d va %#x, overflow was pid %d va %#x",
			inc.Pinpoint.Op.PID, inc.Pinpoint.Op.VA, in.pid, in.attackVA)
	case inc.Report == nil || inc.Report.Render() == "":
		return errors.New("empty forensic report")
	}
	return nil
}

// checkReplica drains the shipper and compares the replica with the
// local backup page for page.
func checkReplica(m *machine) error {
	backup := m.ctl.Checkpointer().Backup()
	replica, err := m.ctl.Checkpointer().DetachRemote()
	if err != nil {
		return err
	}
	defer func() { _ = m.peer.DestroyDomain(replica.ID()) }()
	a := make([]byte, mem.PageSize)
	b := make([]byte, mem.PageSize)
	for pfn := 0; pfn < backup.Pages(); pfn++ {
		if err := backup.ReadPhys(uint64(pfn)*mem.PageSize, a); err != nil {
			return err
		}
		if err := replica.ReadPhys(uint64(pfn)*mem.PageSize, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("replica differs from local backup at pfn %d", pfn)
		}
	}
	return nil
}

// defaultModuleNames lists the detector stack in registration order.
func defaultModuleNames() []string {
	var names []string
	for _, m := range crimes.DefaultModules() {
		names = append(names, m.Name())
	}
	return names
}
