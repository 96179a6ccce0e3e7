package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refCollector is the store the linked lists replaced: each trace's
// spans in a slice, in recording order. Its tree, totals and ranking
// are the slice-based algorithms the collector answered with before.
type refCollector map[string][]*Span

func (r refCollector) ids() []string {
	ids := make([]string, 0, len(r))
	for id := range r {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (r refCollector) tree(id string) *TreeNode {
	spans := r[id]
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*TreeNode, len(spans))
	for _, s := range spans {
		nodes[s.SpanID] = &TreeNode{Span: s}
	}
	var root *TreeNode
	for _, s := range spans {
		n := nodes[s.SpanID]
		if s.ParentID == 0 {
			root = n
			continue
		}
		if p, ok := nodes[s.ParentID]; ok {
			p.Children = append(p.Children, n)
		} else if root == nil {
			root = n
		}
	}
	if root != nil {
		sortTree(root)
	}
	return root
}

// refFormat is the outline TreeNode.Format rendered by concatenation.
func refFormat(n *TreeNode) string {
	if n == nil {
		return "<nil>"
	}
	out := ""
	n.Walk(func(t *TreeNode, depth int) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += fmt.Sprintf("%s %s (%v)\n", t.Span.Service, t.Span.Name, t.Span.Duration())
	})
	return out
}

func (r refCollector) totals() map[string]ServiceTotal {
	out := make(map[string]ServiceTotal)
	for _, spans := range r {
		for _, s := range spans {
			t := out[s.Service]
			t.Spans++
			t.TotalTime += s.Duration()
			out[s.Service] = t
		}
	}
	return out
}

func (r refCollector) slowest(n int) []string {
	type td struct {
		id string
		d  time.Duration
	}
	var all []td
	for _, id := range r.ids() {
		if t := r.tree(id); t != nil {
			all = append(all, td{id, t.Span.Duration()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].id < all[j].id
	})
	out := make([]string, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].id)
	}
	return out
}

// recordPanics reports whether c.Record(s) panicked with the
// double-record message.
func recordPanics(c *Collector, s *Span) (ok bool) {
	defer func() {
		ok = recover() == "trace: span recorded twice"
	}()
	c.Record(s)
	return false
}

// TestCollectorMatchesReference records seeded interleavings of many
// traces — spans of each trace in shuffled order, so children arrive
// before parents and span ids out of order, some parents never recorded
// (orphans), some traces with no root at all — and after every step
// holds everything the collector answers to the reference: Trace,
// TraceIDs, Len, each tree's outline, ServiceTotals and SlowestTraces.
// Recording a span a second time, whether it ends its trace or not,
// panics and changes nothing.
func TestCollectorMatchesReference(t *testing.T) {
	services := []string{"gateway", "frontend", "reviews", "ratings", "details"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector()
		ref := refCollector{}
		var recorded []*Span

		// Build every trace's spans up front, then record them in one
		// shuffled stream across traces.
		var pending []*Span
		traces := 2 + rng.Intn(10)
		for i := 0; i < traces; i++ {
			id := fmt.Sprintf("t%02d", rng.Intn(40))
			var spans []*Span
			for j, n := 0, 1+rng.Intn(12); j < n; j++ {
				s := &Span{
					TraceID: id,
					SpanID:  c.NewSpanID(),
					Service: services[rng.Intn(len(services))],
					Name:    fmt.Sprintf("op%d", rng.Intn(3)),
					Start:   time.Duration(rng.Intn(50)) * time.Millisecond,
				}
				s.End = s.Start + time.Duration(1+rng.Intn(100))*time.Millisecond
				switch {
				case j == 0 && rng.Intn(5) > 0:
					// the root
				case j == 0 || rng.Intn(8) == 0:
					s.ParentID = 1 << 40 // never recorded: an orphan
				default:
					s.ParentID = spans[rng.Intn(len(spans))].SpanID
				}
				spans = append(spans, s)
			}
			pending = append(pending, spans...)
		}
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })

		check := func(step int) {
			t.Helper()
			where := fmt.Sprintf("seed %d step %d", seed, step)
			ids := ref.ids()
			if got := c.TraceIDs(); !reflect.DeepEqual(got, ids) {
				t.Fatalf("%s: TraceIDs = %v, want %v", where, got, ids)
			}
			if c.Len() != len(recorded) {
				t.Fatalf("%s: Len = %d, want %d", where, c.Len(), len(recorded))
			}
			for _, id := range append(ids, "absent") {
				got := c.Trace(id)
				if !reflect.DeepEqual(got, ref[id]) {
					t.Fatalf("%s: Trace(%s) = %v, want %v", where, id, got, ref[id])
				}
				if len(got) > 0 {
					got[0] = nil // the caller's own slice
					if !reflect.DeepEqual(c.Trace(id), ref[id]) {
						t.Fatalf("%s: writing Trace(%s)'s result changed the trace", where, id)
					}
				}
				if got, want := fmtTree(c.Tree(id)), refFormat(ref.tree(id)); got != want {
					t.Fatalf("%s: Tree(%s)\n%s\nwant\n%s", where, id, got, want)
				}
			}
			if got, want := c.ServiceTotals(), ref.totals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ServiceTotals = %v, want %v", where, got, want)
			}
			for _, n := range []int{1, 3, len(ids) + 1} {
				if got, want := c.SlowestTraces(n), ref.slowest(n); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: SlowestTraces(%d) = %v, want %v", where, n, got, want)
				}
			}
		}

		check(0)
		for step, s := range pending {
			c.Record(s)
			ref[s.TraceID] = append(ref[s.TraceID], s)
			recorded = append(recorded, s)
			if rng.Intn(3) == 0 {
				// Again: the span just recorded (its trace's tail) or
				// any earlier one (linked mid-list).
				again := s
				if rng.Intn(2) == 0 {
					again = recorded[rng.Intn(len(recorded))]
				}
				if !recordPanics(c, again) {
					t.Fatalf("seed %d step %d: recording span %d twice did not panic", seed, step+1, again.SpanID)
				}
			}
			check(step + 1)
		}
	}
}

// fmtTree is Format, and "<nil>" for no tree.
func fmtTree(n *TreeNode) string {
	if n == nil {
		return "<nil>"
	}
	return n.Format()
}
