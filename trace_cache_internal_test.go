package domainvirt

import (
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// TestTraceRecordingCap: a recording that passes maxTraceBytes drops
// its bytes silently, so the writer's Attach, which a workload's own
// Attach returns through the Tee, still reports no error. Publishing
// it stores nothing, while a recording under the cap stores a trace
// that loads back.
func TestTraceRecordingCap(t *testing.T) {
	cache, err := NewSnapshotCacheDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	attach := func(r *traceRecording) error {
		return r.w.Attach(1, memlayout.Region{Base: 0x10000, Size: 4096}, core.PermRW)
	}

	small := cache.newRecording("small")
	if err := attach(small); err != nil {
		t.Fatal(err)
	}
	small.publish()
	if _, ok := cache.loadTrace("small"); !ok {
		t.Error("a recording under the cap did not load back")
	}

	big := cache.newRecording("big")
	if _, err := big.Write(make([]byte, maxTraceBytes)); err != nil {
		t.Fatal(err)
	}
	// Enough events to spill the writer's 64 KiB buffer past the cap.
	for i := 0; i < 1<<15; i++ {
		big.w.Instr(1, 1)
	}
	if err := attach(big); err != nil {
		t.Errorf("Attach on a recording past the cap: %v", err)
	}
	big.publish()
	if len(big.buf) > maxTraceBytes {
		t.Errorf("recording holds %d bytes, past the %d cap", len(big.buf), maxTraceBytes)
	}
	if cache.traces.Has("big") {
		t.Error("a recording past the cap was stored")
	}
	if _, recorded := cache.TraceStats(); recorded != 1 {
		t.Errorf("recorded %d traces, want only the one under the cap", recorded)
	}
}
