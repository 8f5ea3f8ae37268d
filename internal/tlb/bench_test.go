package tlb

import (
	"testing"

	"domainvirt/internal/memlayout"
)

func BenchmarkTLBLookupHit(b *testing.B) {
	t := New(Config{Entries: 1536, Ways: 6})
	for vpn := uint64(0); vpn < 1024; vpn++ {
		t.Insert(Entry{VPN: vpn})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(uint64(i) & 1023); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTLBInsertEvict(b *testing.B) {
	t := New(Config{Entries: 64, Ways: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(Entry{VPN: uint64(i)})
	}
}

func BenchmarkTLBRangeFlush(b *testing.B) {
	t := New(Config{Entries: 1536, Ways: 6})
	r := memlayout.Region{Base: 0, Size: 32 * memlayout.PageSize}
	for i := 0; i < b.N; i++ {
		for vpn := uint64(0); vpn < 32; vpn++ {
			t.Insert(Entry{VPN: vpn})
		}
		t.FlushRange(r, nil)
	}
}

// BenchmarkTLBRangeFlushMiss is the shootdown of an 8 MiB attach region
// none of whose pages a full L2-sized TLB holds, the common case of a
// key-eviction shootdown: the flush returns 0 without scanning the 1,536
// entries.
func BenchmarkTLBRangeFlushMiss(b *testing.B) {
	t := New(Config{Entries: 1536, Ways: 6})
	for vpn := uint64(0); vpn < 1536; vpn++ {
		t.Insert(Entry{VPN: vpn})
	}
	r := memlayout.Region{Base: 64 << 20, Size: 8 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.FlushRange(r, nil) != 0 {
			b.Fatal("flushed an entry outside the TLB's pages")
		}
	}
}

// BenchmarkDebtReset measures the owe→settle→reset cycle a machine
// stats reset drives. Reset clears the map in place, so the loop must
// run allocation-free once the map has grown.
func BenchmarkDebtReset(b *testing.B) {
	d := NewDebt()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vpn := uint64(0); vpn < 32; vpn++ {
			d.Owe(vpn)
		}
		d.Settle(7)
		d.Reset()
	}
}

// TestDebtResetAllocFree pins Reset's in-place-clear contract: emptying
// and refilling the debt set never reallocates the map storage.
func TestDebtResetAllocFree(t *testing.T) {
	d := NewDebt()
	cycle := func() {
		for vpn := uint64(0); vpn < 32; vpn++ {
			d.Owe(vpn)
		}
		if !d.Settle(7) || d.Settle(99) {
			t.Fatal("debt settle gave wrong answer")
		}
		d.Reset()
		if d.Len() != 0 {
			t.Fatalf("len = %d after Reset", d.Len())
		}
	}
	cycle() // warm: let the map grow its buckets once
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Errorf("debt owe/settle/reset cycle allocates %v times per run, want 0", allocs)
	}
}
