package txn

import (
	"encoding/binary"
	"testing"

	"domainvirt/internal/pmo"
)

// FuzzRecover throws arbitrary log bytes, truncated at an arbitrary
// crash offset, at full-store recovery. Whatever a crash left in the
// log area, recovery must never panic, never allocate from a corrupt
// length word, never write outside the pool, never report redone
// alongside an error, and must leave a clean, idempotently
// re-recoverable log on success.
func FuzzRecover(f *testing.F) {
	// A well-formed committed single-pool log: state 2, count 1, one
	// entry targeting a data slot.
	valid := make([]byte, 40)
	binary.LittleEndian.PutUint64(valid[0:], 2)       // state committed
	binary.LittleEndian.PutUint64(valid[8:], 1)       // count
	binary.LittleEndian.PutUint64(valid[16:], 72<<10) // entry target
	binary.LittleEndian.PutUint64(valid[24:], 8)      // entry length
	binary.LittleEndian.PutUint64(valid[32:], 0xabcd) // payload
	f.Add(valid, uint16(40))

	// The same log torn mid-record.
	f.Add(valid, uint16(20))

	// Committed log whose length word is a wild u64 (the allocation/
	// overflow hazard) and whose target is outside the pool.
	corrupt := make([]byte, 32)
	binary.LittleEndian.PutUint64(corrupt[0:], 2)
	binary.LittleEndian.PutUint64(corrupt[8:], 1)
	binary.LittleEndian.PutUint64(corrupt[16:], 1<<40) // target past pool
	binary.LittleEndian.PutUint64(corrupt[24:], ^uint64(0))
	f.Add(corrupt, uint16(32))

	// A prepared participant naming an unknown coordinator.
	prepared := make([]byte, 24)
	binary.LittleEndian.PutUint64(prepared[0:], 3)
	binary.LittleEndian.PutUint64(prepared[8:], 1)
	binary.LittleEndian.PutUint64(prepared[16:], 99) // no such pool
	f.Add(prepared, uint16(24))

	f.Fuzz(func(t *testing.T, logBytes []byte, crashOff uint16) {
		s := pmo.NewStore()
		p, err := s.Create("fuzz", 80<<10, pmo.ModeDefault, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		logOff, logSize := p.LogArea()
		n := int(crashOff)
		if n > len(logBytes) {
			n = len(logBytes)
		}
		data := logBytes[:n]
		if uint64(len(data)) > logSize {
			data = data[:logSize]
		}
		if len(data) > 0 {
			p.Write(uint32(logOff), data)
		}

		redone, err := RecoverMulti(p, s.ByID)
		if err != nil {
			if redone {
				t.Fatalf("redone=true alongside error %v", err)
			}
			return
		}
		if st := LogStateOf(p); st != StateClean {
			t.Fatalf("log state %d after successful recovery", st)
		}
		redone2, err2 := RecoverMulti(p, s.ByID)
		if err2 != nil || redone2 {
			t.Fatalf("second recovery = (%v, %v), want (false, nil)", redone2, err2)
		}
	})
}
