package trace

import (
	"fmt"

	"domainvirt/internal/core"
)

// Auditor is a pass-through Sink that checks the least-privilege
// discipline the paper's security analysis relies on (Section VI-D):
// permission windows are opened and closed in pairs, and "any time, at
// most two PMOs are enabled" — more precisely, it records the maximum
// number of concurrently write-enabled domains per thread and flags
// windows still open at the end of the run. Every event passes on to
// the embedded Sink.
type Auditor struct {
	Sink

	writable map[core.ThreadID]map[core.DomainID]bool
	readable map[core.ThreadID]map[core.DomainID]bool

	// MaxWritable is the peak number of simultaneously write-enabled
	// domains observed for any thread.
	MaxWritable int
	// Switches counts SETPERM events seen.
	Switches uint64
	// Violations collects unchecked-access and unbalanced-window
	// findings.
	Violations []string
}

// NewAuditor wraps next with window auditing. next may be nil to audit a
// trace without simulating it.
func NewAuditor(next Sink) *Auditor {
	if next == nil {
		next = Discard{}
	}
	return &Auditor{
		Sink:     next,
		writable: make(map[core.ThreadID]map[core.DomainID]bool),
		readable: make(map[core.ThreadID]map[core.DomainID]bool),
	}
}

func (a *Auditor) set(m map[core.ThreadID]map[core.DomainID]bool, th core.ThreadID, d core.DomainID, on bool) {
	inner := m[th]
	if inner == nil {
		inner = make(map[core.DomainID]bool)
		m[th] = inner
	}
	if on {
		inner[d] = true
	} else {
		delete(inner, d)
	}
}

// SetPerm implements Sink: tracks per-thread windows.
func (a *Auditor) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	a.Switches++
	a.set(a.writable, th, d, p.CanWrite())
	a.set(a.readable, th, d, p.CanRead())
	if n := len(a.writable[th]); n > a.MaxWritable {
		a.MaxWritable = n
	}
	a.Sink.SetPerm(th, d, p, site)
}

// Detach implements Sink: an open window on a detached domain is a
// discipline violation.
func (a *Auditor) Detach(d core.DomainID) {
	for th, m := range a.writable {
		if m[d] {
			a.Violations = append(a.Violations,
				fmt.Sprintf("domain %d detached while thread %d held a write window", d, th))
			delete(m, d)
		}
	}
	a.Sink.Detach(d)
}

// Finish flags windows left open at end of run and returns the findings.
func (a *Auditor) Finish() []string {
	for th, m := range a.writable {
		for d := range m {
			a.Violations = append(a.Violations,
				fmt.Sprintf("thread %d ended the run with domain %d still write-enabled", th, d))
		}
	}
	return a.Violations
}

var _ Sink = (*Auditor)(nil)
