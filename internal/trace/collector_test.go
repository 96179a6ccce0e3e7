package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refCollector is what the collector stores, kept the plain way: each
// trace's closed spans in a slice, in the order they closed, with
// slice-based tree, totals and ranking.
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

// panics reports whether f panicked with message want.
func panics(want string, f func()) (ok bool) {
	defer func() {
		ok = recover() == want
	}()
	f()
	return false
}

// TestCollectorMatchesReference drives the write path with seeded
// interleavings of many traces and after every step holds everything
// the collector answers to the reference, a slice of closed spans per
// trace: Trace, TraceIDs, Len, each tree's outline, ServiceTotals and
// SlowestTraces.
//
//   - Spans are opened in one shuffled order across traces and closed
//     in another, so children close before parents, span ids arrive out
//     of order, some parents never close (orphans) and some traces
//     have no root at all.
//   - Open mints ids in opening order, and the parents a span names are
//     the ids its parents will be minted, opened before it or not.
//   - Some spans are degraded while open, some more than once, and
//     spans that share everything else are degraded or not, so a
//     degrade must reach only its own span.
//   - An orphan's parent id is one a row cannot hold in 32 bits, or
//     the widest it can: 2^32−1, 2^32, 2^40 or 2^64−1. A root's is 0.
//   - Statuses are 0, 200, 503 or drawn up to 599, and retries run up
//     to math.MaxInt16; a status past int16 panics and changes nothing.
//   - Some spans are never closed; they are absent everywhere, and so
//     is a trace none of whose spans closed. A filler of unclosed spans
//     opened first puts the 1,024-row chunk boundary among the spans
//     checked, so traces interleave across it and their closes link
//     rows of both chunks.
//   - Closing a span again, whether it ends its trace or not, and
//     degrading a closed one, panic and change nothing.
func TestCollectorMatchesReference(t *testing.T) {
	services := []string{"gateway", "frontend", "reviews", "ratings", "details"}
	priorities := []string{"", "high", "low"}
	orphanParents := []uint64{1<<32 - 1, 1 << 32, 1 << 40, 1<<64 - 1}
	statuses := []int32{0, 200, 503}
	retries := []int16{0, 1, 2, math.MaxInt16}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector()
		ref := refCollector{}
		closed := 0

		filler := chunkRows - 1 - rng.Intn(60)
		for i := 0; i < filler; i++ {
			c.Open(Span{TraceID: fmt.Sprintf("f%d", i%3), Service: "filler", Start: time.Duration(i)})
		}

		// Draw every trace's spans up front, then fix the opening order
		// and with it the id each span will be minted.
		type pending struct {
			s       *Span
			parent  int // index into all; -1 for a root, -2 for an orphan
			ref     SpanRef
			close   bool
			degrade string
		}
		var all []*pending
		traces := 2 + rng.Intn(10)
		for i := 0; i < traces; i++ {
			id := fmt.Sprintf("t%02d", rng.Intn(40))
			first := len(all)
			for j, n := 0, 1+rng.Intn(12); j < n; j++ {
				s := &Span{
					TraceID:  id,
					Service:  services[rng.Intn(len(services))],
					Name:     fmt.Sprintf("op%d", rng.Intn(3)),
					Priority: priorities[rng.Intn(len(priorities))],
					Start:    time.Duration(rng.Intn(50)) * time.Millisecond,
					Status:   int32(rng.Intn(600)),
					Retries:  int16(rng.Intn(math.MaxInt16 + 1)),
					Client:   rng.Intn(2) == 0,
				}
				s.End = s.Start + time.Duration(1+rng.Intn(100))*time.Millisecond
				if rng.Intn(2) == 0 {
					s.Status = statuses[rng.Intn(len(statuses))]
				}
				if rng.Intn(2) == 0 {
					s.Retries = retries[rng.Intn(len(retries))]
				}
				p := &pending{s: s, close: rng.Intn(6) > 0}
				switch {
				case j == 0 && rng.Intn(5) > 0:
					p.parent = -1
				case j == 0 || rng.Intn(8) == 0:
					p.parent = -2
				default:
					p.parent = first + rng.Intn(j)
				}
				all = append(all, p)
			}
		}
		opening := rng.Perm(len(all))
		for pos, i := range opening {
			all[i].s.SpanID = uint64(filler + pos + 1)
		}
		for _, p := range all {
			switch p.parent {
			case -1:
			case -2:
				p.s.ParentID = orphanParents[rng.Intn(len(orphanParents))] // never opened
			default:
				p.s.ParentID = all[p.parent].s.SpanID
			}
		}
		var closing []*pending
		for _, i := range rng.Perm(len(all)) {
			if all[i].close {
				closing = append(closing, all[i])
			}
		}

		check := func(step string) {
			t.Helper()
			where := fmt.Sprintf("seed %d %s", seed, step)
			ids := ref.ids()
			if got := c.TraceIDs(); !reflect.DeepEqual(got, ids) {
				t.Fatalf("%s: TraceIDs = %v, want %v", where, got, ids)
			}
			if c.Len() != closed {
				t.Fatalf("%s: Len = %d, want %d", where, c.Len(), closed)
			}
			for _, id := range append(ids, "absent", "f0", all[0].s.TraceID) {
				got := c.Trace(id)
				if !reflect.DeepEqual(got, ref[id]) {
					t.Fatalf("%s: Trace(%s) = %v, want %v", where, id, got, ref[id])
				}
				if len(got) > 0 {
					got[0].Service = "changed" // the caller's own spans
					got[len(got)-1] = nil      // and slice
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

		upstream := func() string { return services[rng.Intn(len(services))] }
		opened := 0
		open := func() {
			p := all[opening[opened]]
			opened++
			p.ref = c.Open(*p.s)
			if uint64(p.ref) != p.s.SpanID {
				t.Fatalf("seed %d: span opened %d minted id %d, want %d", seed, opened, p.ref, p.s.SpanID)
			}
			if rng.Intn(8) == 0 {
				p.degrade = upstream()
				c.Degrade(p.ref, p.degrade)
			}
			check(fmt.Sprintf("open %d", opened))
		}

		check("start")
		for step, p := range closing {
			for p.ref == 0 {
				open()
			}
			if rng.Intn(4) == 0 {
				p.degrade = upstream()
				c.Degrade(p.ref, p.degrade)
			}
			p.s.Degraded = p.degrade
			if rng.Intn(8) == 0 {
				if !panics("trace: status out of range", func() { c.Close(p.ref, p.s.End, math.MaxInt16+1, p.s.Retries) }) {
					t.Fatalf("seed %d close %d: a status past int16 did not panic", seed, step+1)
				}
			}
			c.Close(p.ref, p.s.End, p.s.Status, p.s.Retries)
			ref[p.s.TraceID] = append(ref[p.s.TraceID], p.s)
			closed++
			if rng.Intn(3) == 0 {
				// Again: the span just closed (its trace's tail) or any
				// earlier one (linked mid-list), with a different outcome.
				again := p
				if rng.Intn(2) == 0 {
					again = closing[rng.Intn(step+1)]
				}
				if !panics("trace: span recorded twice", func() { c.Close(again.ref, again.s.End+1, again.s.Status+1, 0) }) {
					t.Fatalf("seed %d close %d: closing span %d twice did not panic", seed, step+1, again.s.SpanID)
				}
				if !panics("trace: closed span degraded", func() { c.Degrade(again.ref, "elsewhere") }) {
					t.Fatalf("seed %d close %d: degrading closed span %d did not panic", seed, step+1, again.s.SpanID)
				}
			}
			check(fmt.Sprintf("close %d", step+1))
		}
		for opened < len(all) {
			open()
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
