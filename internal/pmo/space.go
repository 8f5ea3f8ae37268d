package pmo

import (
	"fmt"
	"math/rand"
	"sync"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/trace"
)

// PoolRegionBase is where PMO attachments start in the virtual address
// space, far above the volatile heap.
const PoolRegionBase = memlayout.VA(0x2000_0000_0000)

// Space models the PMO-relevant part of a process address space: which
// pools are attached where, under which domain ID, and to which
// instrumentation sink accesses flow. A nil sink gives pure library mode.
//
// Attach/Detach and the attachment map are safe for concurrent use; the
// Thread field and accesses that flow into a non-nil sink are not (the
// simulator replays a single interleaved trace), so callers that share a
// sinked Space across goroutines must serialize Thread updates and
// accesses externally, as internal/serve does per shard.
type Space struct {
	sink trace.Sink
	// Thread is the thread performing subsequent pool accesses and
	// permission changes.
	Thread core.ThreadID

	mu       sync.Mutex // guards nextBase and attached
	nextBase memlayout.VA
	attached map[uint32]*Attachment
	rng      *rand.Rand // non-nil randomizes attach bases (relocation)
}

// Attachment binds an attached pool to its VA region and domain.
type Attachment struct {
	Pool   *Pool
	Region memlayout.Region
	Domain core.DomainID
	Perm   core.Perm
	space  *Space
}

// NewSpace returns a Space emitting events to sink (which may be nil).
func NewSpace(sink trace.Sink) *Space {
	return &Space{
		sink:     sink,
		Thread:   1,
		nextBase: PoolRegionBase,
		attached: make(map[uint32]*Attachment),
	}
}

// RandomizeBases makes subsequent attaches pick randomized base addresses
// (exercising PMO relocatability), driven by rng for determinism.
func (s *Space) RandomizeBases(rng *rand.Rand) { s.rng = rng }

// Sink returns the space's instrumentation sink.
func (s *Space) Sink() trace.Sink { return s.sink }

// nextPow2 rounds v up to a power of two.
func nextPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

// Attach maps pool p into the address space with the given intent
// permission (the attach system call). The region is aligned to the
// page-table-level granularity the PMO size requires; its domain ID is
// the pool ID. Page permissions follow the intent: an R attach maps the
// pool read-only.
func (s *Space) Attach(p *Pool, perm core.Perm, attachKey string) (*Attachment, error) {
	_, _, footprint := memlayout.AttachLevel(p.size)
	align := nextPow2(footprint)

	s.mu.Lock()
	if _, dup := s.attached[p.id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("pmo: pool id %d already attached in this space", p.id)
	}
	base := memlayout.VA(memlayout.AlignUp(uint64(s.nextBase), align))
	if s.rng != nil {
		slot := uint64(s.rng.Intn(1 << 12))
		base = memlayout.VA(memlayout.AlignUp(uint64(s.nextBase)+slot*align, align))
	}
	region := memlayout.Region{Base: base, Size: footprint}
	s.nextBase = region.End()

	att := &Attachment{
		Pool:   p,
		Region: region,
		Domain: core.DomainID(p.id),
		Perm:   perm,
		space:  s,
	}
	// Reserve the slot before dropping s.mu so a concurrent attach of
	// the same pool into this space stays a duplicate.
	s.attached[p.id] = att
	s.mu.Unlock()

	// The sharing-policy check and registration are one atomic step on
	// the pool, so concurrent attaches from different spaces cannot both
	// win an exclusive writable attachment.
	if err := p.reserveAttachment(att, attachKey); err != nil {
		s.mu.Lock()
		delete(s.attached, p.id)
		s.mu.Unlock()
		return nil, err
	}
	if s.sink != nil {
		if err := s.sink.Attach(att.Domain, region, perm); err != nil {
			p.releaseAttachment(att)
			s.mu.Lock()
			delete(s.attached, p.id)
			s.mu.Unlock()
			return nil, err
		}
	}
	return att, nil
}

// Detach unmaps pool p from this space (the detach system call).
func (s *Space) Detach(p *Pool) error {
	s.mu.Lock()
	att, ok := s.attached[p.id]
	if !ok || att.Pool != p {
		s.mu.Unlock()
		return fmt.Errorf("pmo: pool %q not attached to this space", p.name)
	}
	delete(s.attached, p.id)
	s.mu.Unlock()
	if s.sink != nil {
		s.sink.Detach(att.Domain)
	}
	p.releaseAttachment(att)
	return nil
}

// SetPerm issues a SETPERM for the attached pool's domain on behalf of
// the space's current thread, from the given instruction site.
func (s *Space) SetPerm(p *Pool, perm core.Perm, site core.SiteID) error {
	s.mu.Lock()
	att, ok := s.attached[p.id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("pmo: pool %q not attached to this space", p.name)
	}
	if s.sink != nil {
		s.sink.SetPerm(s.Thread, att.Domain, perm, site)
	}
	return nil
}

// Fence emits a persist barrier.
func (s *Space) Fence() {
	if s.sink != nil {
		s.sink.Fence(s.Thread)
	}
}

// Instr accounts n non-memory instructions on the current thread.
func (s *Space) Instr(n uint64) {
	if s.sink != nil {
		s.sink.Instr(s.Thread, n)
	}
}

// Direct translates an OID to its current virtual address (Table I
// oid_direct). It fails when the OID's pool is not attached.
func (s *Space) Direct(o OID) (memlayout.VA, error) {
	s.mu.Lock()
	att, ok := s.attached[o.Pool()]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("pmo: pool %d of %v not attached", o.Pool(), o)
	}
	return att.Region.Base + memlayout.VA(o.Offset()), nil
}

// Fence emits a persist barrier on the attachment's space.
func (a *Attachment) Fence() { a.space.Fence() }

// Space returns the address space the attachment belongs to.
func (a *Attachment) Space() *Space { return a.space }

// emit forwards one pool access to the sink as a load/store at the
// attached virtual address, reporting whether it was permitted.
func (a *Attachment) emit(off uint64, size uint32, write bool) bool {
	if a.space.sink == nil {
		return true
	}
	va := a.Region.Base + memlayout.VA(off)
	return a.space.sink.Access(a.space.Thread, va, size, write)
}

// Fetch emits an instruction fetch from off in the attached pool —
// executing code stored in a PMO. Per the paper's executable-only memory
// semantics, fetches succeed even when the domain is inaccessible to
// loads and stores.
func (a *Attachment) Fetch(off uint32) bool {
	if a.space.sink == nil {
		return true
	}
	return a.space.sink.Fetch(a.space.Thread, a.Region.Base+memlayout.VA(off))
}
