package core

import (
	"fmt"

	"domainvirt/internal/bincodec"
)

// Engine-state type tags for the binary snapshot codec. Every
// EngineState holds one of five concrete state structs; the tag names it.
const (
	tagBaseState uint8 = iota + 1
	tagMPKState
	tagLibmpkState
	tagMPKVirtState
	tagDomVirtState
)

// ErrEngineState marks an engine-state payload the codec cannot decode.
var ErrEngineState = fmt.Errorf("core: unknown engine state")

// AppendTo appends the table's binary form: the attached regions by
// domain, in ascending domain order. The radix tree is not written —
// DecodeFrom rebuilds it.
func (t *DomainTable) AppendTo(b []byte) []byte { return bincodec.Append(b, &t.regions) }

// DecodeFrom reads a table written by AppendTo, rebuilding the radix tree
// so a decoded table is structurally canonical. A set of regions that
// Insert would refuse fails in any insertion order.
func (t *DomainTable) DecodeFrom(r *bincodec.Reader) error {
	if err := bincodec.Decode(r, &t.regions); err != nil {
		return err
	}
	t.root = &dtNode{}
	for d, reg := range t.regions {
		if err := t.place(d, reg); err != nil {
			return fmt.Errorf("core: decode domain table: %w", err)
		}
	}
	return nil
}

// AppendTo appends the tag, then the state struct it names as the walker
// derives it.
func (s *EngineState) AppendTo(b []byte) []byte { return bincodec.Append(append(b, s.tag), s.st) }

// DecodeFrom reads an engine state written by AppendTo. The result
// satisfies the RestoreState contract of the engine type the tag names.
func (s *EngineState) DecodeFrom(r *bincodec.Reader) error {
	switch s.tag = r.U8(); s.tag {
	case tagBaseState:
		s.st = &baseState{}
	case tagMPKState:
		s.st = &mpkState{}
	case tagLibmpkState:
		s.st = &libmpkState{}
	case tagMPKVirtState:
		s.st = &mpkvirtState{}
	case tagDomVirtState:
		s.st = &domvirtState{}
	default:
		return fmt.Errorf("%w: tag %d", ErrEngineState, s.tag)
	}
	return bincodec.Decode(r, s.st)
}
