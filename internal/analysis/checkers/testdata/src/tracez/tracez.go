// Package tracez is a miniature stand-in for the repo's real tracez
// package. The nilsink checker keys on the package NAME —
// "metrics" and "tracez" are the nil-able handle packages — so analyzing
// this fixture exercises the nil-receiver-guard rule over tracer-shaped
// types: a nil *Tracer hands out nil *Track handles and every method
// must tolerate a nil receiver.
package tracez

// Tracer is the fixture's root recorder.
type Tracer struct {
	events []int
	next   int64
}

// Recorder mirrors the real package's nil-able handle alias.
type Recorder = *Tracer

// New returns a fresh tracer.
func New() *Tracer { return &Tracer{} }

// Track is one timeline lane.
type Track struct {
	t   *Tracer
	tid int64
}

// Track is guarded: a nil tracer hands out a nil (no-op) track.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	_ = name
	t.next++
	return &Track{t: t, tid: t.next}
}

// Instant is missing the nil-receiver guard every handle method must
// open with — the checker flags it.
func (tk *Track) Instant(name string) { // want `must start with a nil-receiver guard`
	_ = name
	tk.t.events = append(tk.t.events, int(tk.tid))
}

// Mark delegates before touching state, which is nil-safe by
// construction: the dispatch itself is legal on a nil pointer.
func (tk *Track) Mark() { tk.Instant("mark") }

// ID reads a field inside the guard condition before the nil check has
// run — the checker flags the premature dereference.
func (tk *Track) ID() int64 { // want `must start with a nil-receiver guard`
	if tk.tid == 0 || tk == nil {
		return 0
	}
	return tk.tid
}

// Len is guarded correctly.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}
