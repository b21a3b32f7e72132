// BenchmarkSimulatorSequential measures the simulator's batched replay
// hot path at three trace-size tiers:
//
//	go test ./internal/cache/ -run '^$' -bench SimulatorSequential -benchtime 2s
//
// Each benchmark replays a pre-recorded synthetic stream through
// AccessBatch in DefaultBatch-sized views, the shape the experiment
// drivers, dvf-trace -replay and dvf-bench feed it in.
package cache_test

import (
	"math/rand"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/trace"
)

// syntheticStream records a mixed sequential/random stream of n refs with
// a handful of owners — dense enough to exercise hits, sparse enough to
// keep evicting.
func syntheticStream(n int) *trace.BatchRecorder {
	rng := rand.New(rand.NewSource(42))
	br := &trace.BatchRecorder{}
	for i := 0; i < n; i++ {
		var addr uint64
		if i%4 == 0 {
			addr = uint64(rng.Intn(64 << 20))
		} else {
			addr = uint64(i*8) % (16 << 20)
		}
		br.Access(trace.Ref{Addr: addr, Size: 8, Write: i%5 == 0}, int32(i%4))
	}
	return br
}

func BenchmarkSimulatorSequential(b *testing.B) {
	tiers := []struct {
		name string
		refs int
	}{
		{"Small", 1 << 16},
		{"Medium", 1 << 20},
		{"Large", 1 << 22},
	}
	for _, tier := range tiers {
		whole := syntheticStream(tier.refs).Batch
		b.Run(tier.name, func(b *testing.B) {
			e, err := cache.NewSimulator(cache.Small)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			var view trace.RefBatch
			for done := 0; done < b.N; {
				n := min(trace.DefaultBatch, whole.Len()-off, b.N-done)
				view = whole.Slice(off, off+n)
				e.AccessBatch(&view)
				done += n
				off += n
				if off >= whole.Len() {
					off = 0
				}
			}
		})
	}
}
