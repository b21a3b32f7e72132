package cache

import "github.com/resilience-models/dvf/internal/trace"

// AccessBatch replays a whole trace.RefBatch through the simulator — one
// bounds-checked loop over two uint64 columns instead of an interface
// call per reference — splitting multi-line references exactly like
// Access, so it produces exactly the Stats the per-reference path
// produces for the same stream (enforced by the batch differential in
// replay_diff_test.go and by FuzzSimulatorVsReference). The batch is not
// retained. It implements trace.BatchConsumer.
//
//dvf:hotpath
func (s *Simulator) AccessBatch(b *trace.RefBatch) {
	for i := range b.Addrs {
		size, write, owner := trace.UnpackMeta(b.Metas[i])
		if size == 0 {
			size = 1
		}
		addr := b.Addrs[i]
		first := addr >> s.lineShift
		last := (addr + uint64(size) - 1) >> s.lineShift
		for blk := first; blk <= last; blk++ {
			s.accessBlock(blk, write, StructID(owner))
		}
	}
}
