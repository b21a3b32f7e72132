// Package metrics is a miniature stand-in for the repo's real metrics
// package. The nilsink checker keys on the package NAME, so
// analyzing this fixture exercises the nil-receiver-guard rule; the
// determinism fixtures import it to exercise the "time.Now feeding only
// metrics" allowance.
package metrics

// Registry is the root of the fixture's metric tree.
type Registry struct {
	total int64
}

// Sink mirrors the real package's nil-able handle alias.
type Sink = *Registry

// New returns a fresh registry.
func New() *Registry { return &Registry{} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v int64
}

// Counter returns the named counter; guarded, so a nil Sink no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	_ = name
	return &Counter{}
}

// Add is missing the nil-receiver guard every metrics method must open
// with — the checker flags it.
func (c *Counter) Add(n int64) { // want `must start with a nil-receiver guard`
	c.v += n
}

// Inc delegates before touching state, which is nil-safe by
// construction: the dispatch itself is legal on a nil pointer.
func (c *Counter) Inc() { c.Add(1) }

// Value is guarded correctly.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram records a value distribution.
type Histogram struct {
	sum   int64
	count int64
}

// Histogram returns the named histogram; guarded.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	_ = name
	return &Histogram{}
}

// Observe is guarded and the guard comes before any field access.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.sum += v
	h.count++
}

// Mean reads fields inside the guard condition itself, before the nil
// check has run — the checker flags the premature dereference.
func (h *Histogram) Mean() float64 { // want `must start with a nil-receiver guard`
	if h.count == 0 || h == nil {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}
