package tracez

import (
	"fmt"
	"io"
	"sort"
)

// Fold turns a parsed trace into the terminal report dvf-flame prints:
// per-phase self/total time (a phase is one span name on one named
// track, so "worker3 / batch" and "worker5 / batch" stay distinguishable)
// and the top individual spans by duration — the "which worker stalled,
// which driver dominated" question answered without opening a UI.

// PhaseStat aggregates every span sharing a (track, name) identity.
type PhaseStat struct {
	Track   string
	Name    string
	Count   int
	TotalUs float64 // wall time inside these spans, children included
	SelfUs  float64 // TotalUs minus time covered by nested spans
	MaxUs   float64 // longest single span
}

// SpanInfo is one individual span, for the top-N listing.
type SpanInfo struct {
	Track string
	Name  string
	TsUs  float64
	DurUs float64
}

// FoldReport is the folded view of one trace.
type FoldReport struct {
	Phases   []PhaseStat // sorted by SelfUs descending
	Spans    []SpanInfo  // every X span, sorted by DurUs descending
	Counters []string    // counter-track names present, sorted
}

// Fold aggregates a validated trace. Nesting is computed per track by
// interval containment: a span is a child of the innermost span that
// fully contains it in time, and child time is subtracted from the
// parent's self time.
func Fold(events []JSONEvent) *FoldReport {
	trackName := map[int64]string{}
	counters := map[string]bool{}
	perTrack := map[int64][]SpanInfo{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if n, ok := ev.Args["name"].(string); ok {
					trackName[ev.Tid] = n
				}
			}
		case "C":
			counters[ev.Name] = true
		case "X":
			perTrack[ev.Tid] = append(perTrack[ev.Tid], SpanInfo{
				Name: ev.Name, TsUs: ev.Ts, DurUs: ev.Dur,
			})
		}
	}
	rep := &FoldReport{}
	phases := map[string]*PhaseStat{}
	tids := make([]int64, 0, len(perTrack))
	for tid := range perTrack {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		track := trackName[tid]
		if track == "" {
			track = fmt.Sprintf("tid %d", tid)
		}
		spans := perTrack[tid]
		for i := range spans {
			spans[i].Track = track
		}
		foldTrack(track, spans, phases)
		rep.Spans = append(rep.Spans, spans...)
	}
	for _, ps := range phases {
		rep.Phases = append(rep.Phases, *ps)
	}
	sort.Slice(rep.Phases, func(i, j int) bool {
		a, b := rep.Phases[i], rep.Phases[j]
		if a.SelfUs != b.SelfUs {
			return a.SelfUs > b.SelfUs
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Name < b.Name
	})
	sort.Slice(rep.Spans, func(i, j int) bool {
		a, b := rep.Spans[i], rep.Spans[j]
		if a.DurUs != b.DurUs {
			return a.DurUs > b.DurUs
		}
		if a.TsUs != b.TsUs {
			return a.TsUs < b.TsUs
		}
		return a.Track < b.Track
	})
	for name := range counters {
		rep.Counters = append(rep.Counters, name)
	}
	sort.Strings(rep.Counters)
	return rep
}

// foldTrack computes self/total per span name within one track using a
// containment stack over the spans sorted by start time (ties: the
// longer span is the parent).
func foldTrack(track string, spans []SpanInfo, phases map[string]*PhaseStat) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := spans[order[i]], spans[order[j]]
		if a.TsUs != b.TsUs {
			return a.TsUs < b.TsUs
		}
		return a.DurUs > b.DurUs
	})
	self := make([]float64, len(spans))
	var stack []int
	for _, idx := range order {
		sp := spans[idx]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if sp.TsUs < top.TsUs+top.DurUs {
				break
			}
			stack = stack[:len(stack)-1]
		}
		self[idx] = sp.DurUs
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= sp.DurUs
		}
		stack = append(stack, idx)
	}
	for i, sp := range spans {
		key := track + "\x00" + sp.Name
		ps, ok := phases[key]
		if !ok {
			ps = &PhaseStat{Track: track, Name: sp.Name}
			phases[key] = ps
		}
		ps.Count++
		ps.TotalUs += sp.DurUs
		ps.SelfUs += self[i]
		if sp.DurUs > ps.MaxUs {
			ps.MaxUs = sp.DurUs
		}
	}
}

// Render writes the folded report: a per-phase table sorted by self
// time and the top-N individual spans. topN <= 0 suppresses the span
// listing. The first write error is returned. A nil report renders
// nothing.
func (r *FoldReport) Render(w io.Writer, topN int) error {
	if r == nil {
		return nil
	}
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	printf("%-28s %-24s %8s %12s %12s %12s\n",
		"track", "phase", "count", "total", "self", "max")
	for _, p := range r.Phases {
		printf("%-28s %-24s %8d %12s %12s %12s\n",
			p.Track, p.Name, p.Count, fmtUs(p.TotalUs), fmtUs(p.SelfUs), fmtUs(p.MaxUs))
	}
	if len(r.Counters) > 0 {
		printf("counter tracks: ")
		for i, name := range r.Counters {
			if i > 0 {
				printf(", ")
			}
			printf("%s", name)
		}
		printf("\n")
	}
	if topN > 0 && len(r.Spans) > 0 {
		n := min(topN, len(r.Spans))
		printf("top %d spans by duration:\n", n)
		for _, sp := range r.Spans[:n] {
			printf("  %12s  %-28s %-24s @%s\n", fmtUs(sp.DurUs), sp.Track, sp.Name, fmtUs(sp.TsUs))
		}
	}
	return err
}

// fmtUs renders a microsecond quantity with a unit that keeps three
// significant digits readable (µs → ms → s).
func fmtUs(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fµs", us)
	}
}
