package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// genStream builds a deterministic registry and reference stream for the
// v2 round-trip tests.
func genStream(seed int64, nRegions, nRefs int) (*Registry, []Ref, []int32) {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()
	for i := 0; i < nRegions; i++ {
		reg.Alloc("region", uint64(rng.Intn(1<<14)+1))
	}
	refs := make([]Ref, nRefs)
	owners := make([]int32, nRefs)
	for i := range refs {
		refs[i] = Ref{
			Addr:  rng.Uint64(),
			Size:  uint32(rng.Intn(256)),
			Write: rng.Intn(2) == 0,
		}
		owners[i] = int32(rng.Intn(nRegions+2)) - 1
	}
	return reg, refs, owners
}

func encodeV2(t *testing.T, reg *Registry, refs []Ref, owners []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2(&buf, reg)
	for i := range refs {
		w.Access(refs[i], owners[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("WriterV2.Flush: %v", err)
	}
	return buf.Bytes()
}

func TestWriterV2RoundTrip(t *testing.T) {
	reg, refs, owners := genStream(11, 5, 4000)
	encoded := encodeV2(t, reg, refs, owners)

	tr, err := DecodeV2(encoded)
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	want := reg.Regions()
	if len(tr.Regions) != len(want) {
		t.Fatalf("regions: got %d, want %d", len(tr.Regions), len(want))
	}
	for i := range want {
		if tr.Regions[i] != want[i] {
			t.Errorf("region %d: got %+v, want %+v", i, tr.Regions[i], want[i])
		}
	}
	if tr.NumRefs() != int64(len(refs)) {
		t.Fatalf("NumRefs = %d, want %d", tr.NumRefs(), len(refs))
	}
	b := tr.Batch()
	for i := range refs {
		r, o := b.At(i)
		if r != refs[i] || o != owners[i] {
			t.Fatalf("record %d: got %+v/%d, want %+v/%d", i, r, o, refs[i], owners[i])
		}
	}
	if nativeIsLittle() && !tr.ZeroCopy() {
		t.Error("aligned little-endian decode did not alias the input")
	}
}

func TestDecodeV2MisalignedFallsBackToCopy(t *testing.T) {
	if !nativeIsLittle() {
		t.Skip("copy decode is always taken on big-endian hosts")
	}
	reg, refs, owners := genStream(13, 2, 100)
	encoded := encodeV2(t, reg, refs, owners)
	// Shift the container to a deliberately odd offset so the column bytes
	// cannot be 8-aligned.
	shifted := make([]byte, len(encoded)+1)
	copy(shifted[1:], encoded)
	tr, err := DecodeV2(shifted[1:])
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	if tr.ZeroCopy() {
		t.Fatal("misaligned decode claims to be zero-copy")
	}
	b := tr.Batch()
	for i := range refs {
		r, o := b.At(i)
		if r != refs[i] || o != owners[i] {
			t.Fatalf("record %d: got %+v/%d, want %+v/%d", i, r, o, refs[i], owners[i])
		}
	}
}

func TestWriterV2OversizeIsStickyError(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	w := NewWriterV2(&buf, reg)
	w.Access(Ref{Addr: 1, Size: MaxBatchRefSize + 1}, 0)
	w.Access(Ref{Addr: 2, Size: 1}, 0) // ignored after the sticky error
	if err := w.Flush(); err == nil {
		t.Fatal("Flush accepted a reference outside the 31-bit size domain")
	}
}

func TestTraceV2Batches(t *testing.T) {
	reg, refs, owners := genStream(17, 1, 1000)
	tr, err := DecodeV2(encodeV2(t, reg, refs, owners))
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	for _, bs := range []int{1, 7, 256, 1000, 5000} {
		i := 0
		tr.Batches(bs, func(b *RefBatch) {
			if b.Len() == 0 || b.Len() > bs {
				t.Fatalf("batchSize %d: got batch of %d", bs, b.Len())
			}
			b.Each(func(r Ref, o int32) {
				if r != refs[i] || o != owners[i] {
					t.Fatalf("batchSize %d record %d: got %+v/%d, want %+v/%d", bs, i, r, o, refs[i], owners[i])
				}
				i++
			})
		})
		if i != len(refs) {
			t.Fatalf("batchSize %d visited %d refs, want %d", bs, i, len(refs))
		}
	}
}

func TestDecodeV2TruncatedNeverPanics(t *testing.T) {
	reg, refs, owners := genStream(19, 4, 200)
	encoded := encodeV2(t, reg, refs, owners)
	for cut := 0; cut < len(encoded); cut += 13 {
		if _, err := DecodeV2(encoded[:cut]); err == nil {
			t.Fatalf("DecodeV2 accepted a %d-byte prefix of a %d-byte container", cut, len(encoded))
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("prefix %d: error %v is not ErrBadTrace", cut, err)
		}
	}
}

// TestOpenTraceFileBothVersions pins what OpenTraceFile does with each
// container revision: a v2 file replays every record in order (zero-copy
// on little-endian hosts), and a file in the retired v1 record format
// fails with ErrBadTrace before any batch reaches the callback.
func TestOpenTraceFileBothVersions(t *testing.T) {
	reg, refs, owners := genStream(23, 3, 3000)
	dir := t.TempDir()

	t.Run("v2", func(t *testing.T) {
		path := filepath.Join(dir, "trace.v2")
		if err := os.WriteFile(path, encodeV2(t, reg, refs, owners), 0o644); err != nil {
			t.Fatal(err)
		}
		tf, err := OpenTraceFile(path)
		if err != nil {
			t.Fatalf("OpenTraceFile: %v", err)
		}
		defer tf.Close()
		if tf.NumRefs() != int64(len(refs)) {
			t.Fatalf("NumRefs = %d, want %d", tf.NumRefs(), len(refs))
		}
		if want := reg.Regions(); len(tf.Regions) != len(want) {
			t.Fatalf("regions %d, want %d", len(tf.Regions), len(want))
		}
		i := 0
		if err := tf.Replay(512, func(b *RefBatch) {
			b.Each(func(r Ref, o int32) {
				if r != refs[i] || o != owners[i] {
					t.Fatalf("record %d: got %+v/%d, want %+v/%d", i, r, o, refs[i], owners[i])
				}
				i++
			})
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if i != len(refs) {
			t.Fatalf("replayed %d refs, want %d", i, len(refs))
		}
		if nativeIsLittle() && !tf.ZeroCopy() {
			t.Error("replay is not zero-copy on a little-endian host")
		}
		if err := tf.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := tf.Replay(512, func(*RefBatch) { t.Fatal("replay after Close reached the callback") }); err == nil {
			t.Error("Replay after Close returned nil")
		}
	})

	t.Run("v1", func(t *testing.T) {
		for name, raw := range map[string][]byte{
			"stream": v1File(reg, refs, owners),
			"header": v1File(NewRegistry(), nil, nil),
		} {
			path := filepath.Join(dir, "trace.v1-"+name)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			tf, err := OpenTraceFile(path)
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("%s: OpenTraceFile error %v, want ErrBadTrace", name, err)
			}
			if tf != nil {
				_ = tf.Replay(0, func(*RefBatch) { t.Errorf("%s: a v1 file reached the replay callback", name) })
				_ = tf.Close()
			}
		}
	})
}

// v1File encodes a stream in the retired v1 record layout, the input an
// old trace file presents: magic "DVFT" | uint16 version=1 | uint32
// region count | the region table | per ref uint64 addr | uint32 size |
// uint8 flags | int32 owner.
func v1File(reg *Registry, refs []Ref, owners []int32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("DVFT"), 1)
	b = le.AppendUint32(b, uint32(len(reg.Regions())))
	for _, r := range reg.Regions() {
		b = le.AppendUint32(b, uint32(r.ID))
		b = le.AppendUint64(b, r.Base)
		b = le.AppendUint64(b, r.Size)
		b = le.AppendUint16(b, uint16(len(r.Name)))
		b = append(b, r.Name...)
	}
	for i, r := range refs {
		b = le.AppendUint64(b, r.Addr)
		b = le.AppendUint32(b, r.Size)
		var flags byte
		if r.Write {
			flags = 1
		}
		b = le.AppendUint32(append(b, flags), uint32(owners[i]))
	}
	return b
}

func TestWriterV2AccessBatch(t *testing.T) {
	reg, refs, owners := genStream(29, 2, 500)
	br := &BatchRecorder{}
	for i := range refs {
		br.Access(refs[i], owners[i])
	}
	var buf bytes.Buffer
	w := NewWriterV2(&buf, reg)
	w.AccessBatch(&br.Batch)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), encodeV2(t, reg, refs, owners)) {
		t.Fatal("AccessBatch encoding differs from per-reference encoding")
	}
}
