package pagetable

import (
	"testing"

	"domainvirt/internal/memlayout"
)

// BenchmarkSetKeySparse is a pkey_mprotect of an 8 MiB attach region with
// two populated pages, one at each end: the rewrite costs the region's
// leaves plus its two present PTEs, not its 2,048 PTE slots.
func BenchmarkSetKeySparse(b *testing.B) {
	pt := New()
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 8 << 20}
	pt.Map(r.Base, 0x1000, true)
	pt.Map(r.End()-memlayout.PageSize, 0x2000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pt.SetKey(r, uint8(i&15)) != 2 {
			b.Fatal("SetKey missed a populated page")
		}
	}
}
