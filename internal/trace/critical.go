package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// CriticalStep is one span's contribution to a request's critical path.
type CriticalStep struct {
	Span *Span
	// SelfTime is the part of the request's end-to-end latency
	// attributable to this span alone (its duration minus the critical
	// child's overlap).
	SelfTime time.Duration
}

// CriticalPath walks a call tree from the root, at each level following
// the child whose completion gates the parent (the latest-ending child
// overlapping the parent's tail), and attributes self time to each
// span. The sum of SelfTime equals the root's duration — a standard
// decomposition for answering "where did this request's latency go?"
// (the §3.2 visibility use case).
func CriticalPath(root *TreeNode) []CriticalStep {
	if root == nil {
		return nil
	}
	var steps []CriticalStep
	node := root
	for {
		// The gating child is the one that ends last; ties break to
		// the earlier-starting child (longer involvement).
		var gating *TreeNode
		for _, c := range node.Children {
			if gating == nil || c.Span.End > gating.Span.End ||
				(c.Span.End == gating.Span.End && c.Span.Start < gating.Span.Start) {
				gating = c
			}
		}
		if gating == nil {
			steps = append(steps, CriticalStep{Span: node.Span, SelfTime: node.Span.Duration()})
			break
		}
		self := node.Span.Duration() - gating.Span.Duration()
		if self < 0 {
			self = 0
		}
		steps = append(steps, CriticalStep{Span: node.Span, SelfTime: self})
		node = gating
	}
	return steps
}

// FormatCriticalPath renders the decomposition with percentages.
func FormatCriticalPath(steps []CriticalStep) string {
	if len(steps) == 0 {
		return ""
	}
	total := steps[0].Span.Duration()
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (total %v):\n", total)
	for _, s := range steps {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.SelfTime) / float64(total)
		}
		fmt.Fprintf(&b, "  %-20s %-28s self=%-12v (%.1f%%)\n", s.Span.Service, s.Span.Name, s.SelfTime, pct)
	}
	return b.String()
}

// SlowestTraces returns the n trace IDs with the largest root-span
// durations — the troubleshooting entry point.
func (c *Collector) SlowestTraces(n int) []string {
	type td struct {
		id string
		d  time.Duration
	}
	var all []td
	for _, id := range c.TraceIDs() {
		if t := c.Tree(id); t != nil {
			all = append(all, td{id, t.Span.Duration()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].id < all[j].id
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].id
	}
	return out
}

// ServiceTotals aggregates, across every closed span, per-service
// span counts and total busy time — the mesh-level "which service is
// hot" view.
func (c *Collector) ServiceTotals() map[string]ServiceTotal {
	out := make(map[string]ServiceTotal)
	for _, t := range c.traces {
		for ref := t.head; ref != 0; {
			r := c.row(ref)
			svc := c.ops[r.op&^rowClosed].service
			st := out[svc]
			st.Spans++
			st.TotalTime += r.end - r.start
			out[svc] = st
			ref = SpanRef(r.link)
		}
	}
	return out
}

// ServiceTotal is one service's aggregate tracing footprint.
type ServiceTotal struct {
	Spans     int
	TotalTime time.Duration
}
