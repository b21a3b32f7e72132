package cache

import (
	"math/rand"
	"testing"

	"github.com/resilience-models/dvf/internal/trace"
)

// FuzzSimulatorVsReference generates a random cache geometry and
// reference stream from the fuzzed inputs and demands that the
// production simulator reproduce the naive refCache oracle's counters
// exactly — in total mid-stream, and per structure and in total after a
// final flush. The stream is driven twice: once reference by reference
// through Access, once in small RefBatch blocks through AccessBatch. The
// seed corpus under testdata/fuzz pins the regression cases (including a
// single-set and a direct-mapped geometry) that run on every plain
// `go test`.
func FuzzSimulatorVsReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint16(2000))
	f.Add(int64(42), uint8(0), uint8(0), uint8(0), uint16(500)) // direct-mapped, one set
	f.Add(int64(7), uint8(7), uint8(7), uint8(3), uint16(4096)) // largest geometry
	f.Fuzz(func(t *testing.T, seed int64, assocSel, setSel, lineSel uint8, n uint16) {
		cfg := Config{
			Name:          "fuzz",
			Associativity: int(assocSel%8) + 1,
			Sets:          1 << (setSel % 8),
			LineSize:      1 << (3 + lineSel%4),
		}
		type ref struct {
			addr  uint64
			size  uint32
			write bool
			owner StructID
		}
		rng := rand.New(rand.NewSource(seed))
		refs := make([]ref, int(n))
		for i := range refs {
			refs[i] = ref{
				addr:  uint64(rng.Intn(1 << 16)),
				size:  uint32(rng.Intn(64) + 1), // up to several lines, forcing splits
				write: rng.Intn(3) == 0,
				owner: StructID(rng.Intn(4)),
			}
		}

		for _, batched := range []bool{false, true} {
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatalf("geometry %v rejected: %v", cfg, err)
			}
			oracle := newRefCache(cfg)
			var b trace.RefBatch
			feed := func() {
				sim.AccessBatch(&b)
				b.Reset()
			}
			for i, r := range refs {
				oracle.access(r.addr, r.size, r.write, r.owner)
				if !batched {
					sim.Access(r.addr, r.size, r.write, r.owner)
				} else {
					b.Append(trace.Ref{Addr: r.addr, Size: r.size, Write: r.write}, int32(r.owner))
					if b.Len() == 7 {
						feed()
					}
				}
				if i == len(refs)/2 {
					// Mid-stream check: counters must already agree while
					// both caches still hold live, dirty state.
					feed()
					if got, want := sim.TotalStats(), oracle.total(); got != want {
						t.Fatalf("cfg %+v batched=%v mid-stream totals: sim %+v != oracle %+v",
							cfg, batched, got, want)
					}
				}
			}
			feed()
			sim.Flush()
			oracle.flush()
			for id := StructID(0); id < 4; id++ {
				if got, want := sim.StructStats(id), *oracle.stat(id); got != want {
					t.Errorf("cfg %+v batched=%v struct %d: sim %+v != oracle %+v",
						cfg, batched, id, got, want)
				}
			}
			if got, want := sim.TotalStats(), oracle.total(); got != want {
				t.Errorf("cfg %+v batched=%v: totals %+v != %+v", cfg, batched, got, want)
			}
		}
	})
}
