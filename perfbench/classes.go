package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The class-margin check. A latency percentile over a mix of request
// classes is steady only while its rank sits well inside one class: if it
// sits on the boundary between a cheap and a costly class, a few requests
// changing sides move it by the ratio of their costs. Classes are ordered
// by their median latency; in that order class k holds the ranks between
// the cumulative counts of the classes before it and its own. The margin
// of a percentile rank is how many requests would have to change class
// before the rank left the class it falls in.

// classInfo summarizes one request class of a sequence.
type classInfo struct {
	name     string
	count    int
	medianMs float64
}

// rankMargin places one percentile rank among the ordered classes.
type rankMargin struct {
	p      float64
	rank   int // 0-based nearest rank among n requests
	class  string
	margin int // requests to the nearest interior class boundary
	need   int
	purity float64 // share of the class among the requests near the rank
}

func (m rankMargin) ok() bool { return m.margin >= m.need }

// minMargin is the smallest margin a percentile rank may have: 1% of the
// requests, and never fewer than ten.
func minMargin(n int) int { return max(10, n/100) }

// classMargins orders the classes by median latency and places each
// percentile rank among them. lat and cls run parallel.
func classMargins(lat []float64, cls []int, names []string, ps []float64) ([]classInfo, []rankMargin) {
	n := len(lat)
	byClass := make([][]float64, len(names))
	for i, c := range cls {
		byClass[c] = append(byClass[c], lat[i])
	}
	var infos []classInfo
	for c, xs := range byClass {
		if len(xs) > 0 {
			infos = append(infos, classInfo{name: names[c], count: len(xs), medianMs: median(xs)})
		}
	}
	sort.SliceStable(infos, func(i, j int) bool { return infos[i].medianMs < infos[j].medianMs })

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return lat[order[i]] < lat[order[j]] })

	var out []rankMargin
	for _, p := range ps {
		r := rankOf(p, n)
		m := rankMargin{p: p, rank: r, need: minMargin(n), margin: math.MaxInt}
		lo := 0
		for _, ci := range infos {
			hi := lo + ci.count
			if r < hi {
				m.class = ci.name
				if lo > 0 {
					m.margin = r - lo + 1
				}
				if hi < n {
					m.margin = min(m.margin, hi-r)
				}
				break
			}
			lo = hi
		}
		w := m.need
		in, tot := 0, 0
		for i := max(0, r-w); i <= min(n-1, r+w); i++ {
			tot++
			if names[cls[order[i]]] == m.class {
				in++
			}
		}
		m.purity = float64(in) / float64(tot)
		out = append(out, m)
	}
	return infos, out
}

// writeClassReport prints the class shares and where each percentile
// rank sits.
func writeClassReport(w io.Writer, label string, n int, infos []classInfo, ms []rankMargin) {
	fmt.Fprintf(w, "whatif %s: classes over %d requests, by median latency:\n", label, n)
	for _, ci := range infos {
		fmt.Fprintf(w, "  %-22s share %6.2f%%  median %9.3f ms\n",
			ci.name, 100*float64(ci.count)/float64(n), ci.medianMs)
	}
	for _, m := range ms {
		verdict := "inside one class"
		if !m.ok() {
			verdict = "ON A CLASS BOUNDARY: run fails"
		}
		margin := fmt.Sprint(m.margin)
		if m.margin == math.MaxInt {
			margin = "unbounded"
		}
		fmt.Fprintf(w, "  p%g rank %d/%d in %s, margin %s requests (need %d), %.0f%% of nearby ranks in the class: %s\n",
			m.p, m.rank+1, n, m.class, margin, m.need, 100*m.purity, verdict)
	}
}
