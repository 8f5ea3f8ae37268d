package persist

import (
	"fmt"
	"math/rand"
	"sync"

	"domainvirt/internal/memlayout"
	"domainvirt/internal/pmo"
)

// Fault-injecting persistence model. A Journal arms itself on a set of
// pools via their persist hooks and records the exact durable-media
// traffic — every store that reaches the backing bytes and every persist
// barrier — as an ordered step sequence. A crash is then simulated at
// any step k: stores closed by a fence executed before k are durable for
// certain; stores in the still-open epoch may or may not have left the
// cache hierarchy, and a seeded FaultConfig decides which of them (at
// 8-byte-word granularity) reach the reconstructed NVM image, possibly
// torn or out of order. This is the same epoch model the Checker uses
// for PMTest-style ordering assertions: a fence closes an epoch, and
// only epoch boundaries order persists.
//
// Fences are modeled as global barriers (x86 SFENCE orders all stores of
// the issuing thread regardless of which pool they target), so one
// Journal spans all pools of a multi-PMO transaction and a fence on any
// armed pool closes the open epoch for every pool.

// Step is one recorded durable-media event: a store of Data at Off in
// pool Pool, or a persist barrier (Fence true, other fields zero).
type Step struct {
	Fence bool
	Pool  uint32
	Off   uint64
	Data  []byte
}

// FaultMode is a bitmask of injected misbehaviors for stores in the
// open (unfenced) epoch at crash time.
type FaultMode uint8

// Fault modes. FaultNone still crashes, but persists every issued store
// — the strict model, useful to validate crash-point enumeration alone.
const (
	FaultNone FaultMode = 0
	// FaultDropTail drops a suffix of the open epoch's store words: the
	// write-back queue lost its tail at power failure.
	FaultDropTail FaultMode = 1 << iota
	// FaultReorder lets each open-epoch store word independently reach
	// or miss NVM: cache lines write back in arbitrary order between
	// fences, so a later store may persist while an earlier one is lost.
	FaultReorder
	// FaultTorn additionally tears surviving 8-byte words in half: only
	// the low or high 4 bytes persist. Models non-atomic media writes.
	FaultTorn
	// FaultIgnoreFences treats every store since arming as open,
	// discarding fence ordering entirely. This models broken persistence
	// hardware (or a program whose fences are compiled away); recovery
	// cannot be expected to survive it, and the harness uses it to prove
	// the referee actually detects inconsistency.
	FaultIgnoreFences
)

// String names the enabled modes.
func (m FaultMode) String() string {
	if m == FaultNone {
		return "none"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if m&FaultDropTail != 0 {
		add("droptail")
	}
	if m&FaultReorder != 0 {
		add("reorder")
	}
	if m&FaultTorn != 0 {
		add("torn")
	}
	if m&FaultIgnoreFences != 0 {
		add("nofence")
	}
	return s
}

// ParseFaultMode parses the String form ("reorder+torn", "none").
func ParseFaultMode(s string) (FaultMode, error) {
	if s == "none" || s == "" {
		return FaultNone, nil
	}
	var m FaultMode
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '+' {
			continue
		}
		switch part := s[start:i]; part {
		case "droptail":
			m |= FaultDropTail
		case "reorder":
			m |= FaultReorder
		case "torn":
			m |= FaultTorn
		case "nofence":
			m |= FaultIgnoreFences
		default:
			return 0, fmt.Errorf("persist: unknown fault mode %q", part)
		}
		start = i + 1
	}
	return m, nil
}

// FaultConfig selects a deterministic injection: the same (Mode, Seed)
// over the same journal always yields the same crash image.
type FaultConfig struct {
	Mode FaultMode
	Seed int64
}

// Journal records durable-media traffic of armed pools.
type Journal struct {
	mu    sync.Mutex
	pools map[uint32]*pmo.Pool
	base  map[uint32][]byte // image of each pool at arm time
	steps []Step
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{
		pools: make(map[uint32]*pmo.Pool),
		base:  make(map[uint32][]byte),
	}
}

// Arm snapshots p's current image as the pre-crash baseline and starts
// recording its stores and fences. A pool can be armed once per journal.
func (j *Journal) Arm(p *pmo.Pool) {
	j.mu.Lock()
	id := p.ID()
	if _, dup := j.pools[id]; dup {
		j.mu.Unlock()
		return
	}
	j.pools[id] = p
	j.mu.Unlock()
	// Snapshot outside j.mu: CopyImage takes the pool lock.
	img := p.CopyImage()
	j.mu.Lock()
	j.base[id] = img
	j.mu.Unlock()
	p.SetPersistHooks(
		func(off uint64, src []byte) {
			cp := make([]byte, len(src))
			copy(cp, src)
			j.mu.Lock()
			j.steps = append(j.steps, Step{Pool: id, Off: off, Data: cp})
			j.mu.Unlock()
		},
		func() {
			j.mu.Lock()
			j.steps = append(j.steps, Step{Fence: true, Pool: id})
			j.mu.Unlock()
		},
	)
}

// Disarm removes the hooks from every armed pool; the recorded steps
// and baselines remain available.
func (j *Journal) Disarm() {
	j.mu.Lock()
	pools := make([]*pmo.Pool, 0, len(j.pools))
	for _, p := range j.pools {
		pools = append(pools, p)
	}
	j.mu.Unlock()
	for _, p := range pools {
		p.SetPersistHooks(nil, nil)
	}
}

// Len returns the number of recorded steps; valid crash points are
// 0..Len inclusive ("crash after the first k steps executed").
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.steps)
}

// Steps returns a copy of the recorded step sequence.
func (j *Journal) Steps() []Step {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Step, len(j.steps))
	copy(out, j.steps)
	return out
}

// unit is one independently-persistable piece of an open-epoch store:
// the intersection of a recorded store with an aligned 8-byte word.
type unit struct {
	pool uint32
	off  uint64
	data []byte
}

// CrashImages reconstructs every armed pool's NVM image for a crash
// after the first k steps, under fault model fc. Stores closed by a
// fence executed within the first k steps are applied in program order;
// open-epoch stores are split into 8-byte-word units and persisted
// according to fc. The result maps pool ID to image.
func (j *Journal) CrashImages(k int, fc FaultConfig) map[uint32][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if k < 0 {
		k = 0
	}
	if k > len(j.steps) {
		k = len(j.steps)
	}
	return ApplyCrash(j.base, j.steps[:k], fc)
}

// ApplyCrash reconstructs NVM images from arm-time base snapshots and an
// explicit step sequence under fault model fc — the pure core of
// Journal.CrashImages, exposed so crash-schedule minimization can replay
// ddmin-reduced step lists. base is never mutated.
func ApplyCrash(base map[uint32][]byte, steps []Step, fc FaultConfig) map[uint32][]byte {
	imgs := make(map[uint32][]byte, len(base))
	for id, img := range base {
		cp := make([]byte, len(img))
		copy(cp, img)
		imgs[id] = cp
	}

	// Find the last fence in the executed prefix; stores before it are
	// closed (durable for certain).
	closedEnd := 0
	if fc.Mode&FaultIgnoreFences == 0 {
		for i, s := range steps {
			if s.Fence {
				closedEnd = i + 1
			}
		}
	}
	apply := func(s Step) {
		if img, ok := imgs[s.Pool]; ok {
			end := s.Off + uint64(len(s.Data))
			if end <= uint64(len(img)) {
				copy(img[s.Off:end], s.Data)
			}
		}
	}
	var open []unit
	for i, s := range steps {
		if s.Fence {
			continue
		}
		if i < closedEnd {
			apply(s)
			continue
		}
		// Split the open store into word units.
		off, data := s.Off, s.Data
		for len(data) > 0 {
			wordEnd := (off &^ 7) + 8
			n := wordEnd - off
			if n > uint64(len(data)) {
				n = uint64(len(data))
			}
			open = append(open, unit{pool: s.Pool, off: off, data: data[:n]})
			off += n
			data = data[n:]
		}
	}
	if len(open) == 0 {
		return imgs
	}

	rng := rand.New(rand.NewSource(fc.Seed))
	keep := make([]bool, len(open))
	for i := range keep {
		keep[i] = true
	}
	if fc.Mode&FaultDropTail != 0 {
		n := rng.Intn(len(open) + 1)
		for i := n; i < len(open); i++ {
			keep[i] = false
		}
	}
	if fc.Mode&FaultReorder != 0 {
		for i := range keep {
			if keep[i] && rng.Intn(2) == 0 {
				keep[i] = false
			}
		}
	}
	for i, u := range open {
		if !keep[i] {
			continue
		}
		data := u.data
		off := u.off
		if fc.Mode&FaultTorn != 0 && len(data) == 8 && rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				data = data[:4] // only the low half persisted
			} else {
				data = data[4:] // only the high half persisted
				off += 4
			}
		}
		apply(Step{Pool: u.pool, Off: off, Data: data})
	}
	return imgs
}

// poolVABits positions pool IDs above any in-pool offset so the Checker
// can referee multi-pool journals over one synthetic address space.
const poolVABits = 40

// PoolVA maps (pool, offset) to a synthetic virtual address for feeding
// pool-relative stores into a Checker.
func PoolVA(pool uint32, off uint64) memlayout.VA {
	return memlayout.VA(uint64(pool)<<poolVABits | off)
}

// Feed replays the first k steps (k<0 for all) into c as synthetic
// accesses on thread 1 — Access for stores, Fence for barriers — so the
// Checker's epoch model and CheckPersistedBefore become the referee for
// write-ahead-logging ordering rules over recorded pool traffic.
func (j *Journal) Feed(c *Checker, k int) {
	j.mu.Lock()
	steps := make([]Step, len(j.steps))
	copy(steps, j.steps)
	j.mu.Unlock()
	if k < 0 || k > len(steps) {
		k = len(steps)
	}
	for _, s := range steps[:k] {
		if s.Fence {
			c.Fence(1)
		} else {
			c.Access(1, PoolVA(s.Pool, s.Off), uint32(len(s.Data)), true)
		}
	}
}
