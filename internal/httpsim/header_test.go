package httpsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// headerKeys is the reference test's key space: twelve keys, so a list
// crosses the eight inline fields of a request both ways.
var headerKeys = func() []string {
	ks := make([]string, 12)
	for i := range ks {
		ks[i] = fmt.Sprintf("x-key-%d", i)
	}
	return ks
}()

// mixCase spells key with each letter's case drawn at random.
func mixCase(rng *rand.Rand, key string) string {
	b := []byte(key)
	for i, c := range b {
		if c >= 'a' && c <= 'z' && rng.Intn(2) == 0 {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// headerSubject is one header list under test and the map it must
// answer like.
type headerSubject struct {
	h      *Header
	oracle map[string]string
}

// check compares the subject with its oracle: the same keys and values,
// each key once, no empty slot, the oracle's wire size, and a sorted
// rendering of exactly the oracle's fields.
func (s headerSubject) check(t *testing.T, where string) {
	t.Helper()
	h := *s.h
	if len(h) != len(s.oracle) {
		t.Fatalf("%s: %d fields %q, oracle holds %d", where, len(h), h.String(), len(s.oracle))
	}
	seen := map[string]bool{}
	for _, f := range h {
		if seen[f.key] || f.key != strings.ToLower(f.key) {
			t.Fatalf("%s: field key %q repeated or not lower case in %q", where, f.key, h.String())
		}
		seen[f.key] = true
	}
	size := 0
	keys := make([]string, 0, len(s.oracle))
	for k, v := range s.oracle {
		if got := h.Get(strings.ToUpper(k)); got != v || !h.Has(k) {
			t.Fatalf("%s: Get(%q) = %q, Has %v, oracle %q", where, k, got, h.Has(k), v)
		}
		size += len(k) + len(v) + 4
		keys = append(keys, k)
	}
	if h.wireSize() != size {
		t.Fatalf("%s: wireSize %d, oracle %d", where, h.wireSize(), size)
	}
	slices.Sort(keys)
	var want strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&want, "%s: %s\r\n", k, s.oracle[k])
	}
	if h.String() != want.String() {
		t.Fatalf("%s: String() = %q, want %q", where, h.String(), want.String())
	}
}

// TestHeaderMatchesMapReference: random sequences of Set, Get, Has, Del
// and Clone, with keys in mixed case, answer what a map keyed by the
// lower-cased key answers. Subjects are requests (headers inline) and
// bare header lists; clones join the pool, and every subject is checked
// after every step, so a clone must stay independent of its original in
// both directions — including a Set on either that appends into spare
// capacity the other's list could reach if they shared an array.
func TestHeaderMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		subjects := []headerSubject{{h: &NewRequest("GET", "/").Headers, oracle: map[string]string{}}}
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(subjects))
			s := subjects[i]
			k := headerKeys[rng.Intn(len(headerKeys))]
			where := fmt.Sprintf("seed %d step %d subject %d", seed, step, i)
			switch op := rng.Intn(10); {
			case op < 5:
				v := fmt.Sprintf("v%d", rng.Intn(100))
				s.h.Set(mixCase(rng, k), v)
				s.oracle[k] = v
			case op < 7:
				s.h.Del(mixCase(rng, k))
				delete(s.oracle, k)
			case op < 8:
				v, ok := s.oracle[k]
				if got := s.h.Get(mixCase(rng, k)); got != v || s.h.Has(mixCase(rng, k)) != ok {
					t.Fatalf("%s: Get(%q) = %q, oracle %q (present %v)", where, k, got, v, ok)
				}
			default:
				var c *Header
				if rng.Intn(2) == 0 {
					req := &Request{Headers: *s.h}
					c = &req.Clone().Headers
				} else {
					h := s.h.Clone()
					c = &h
				}
				clone := headerSubject{h: c, oracle: map[string]string{}}
				for k, v := range s.oracle {
					clone.oracle[k] = v
				}
				if len(subjects) < 6 {
					subjects = append(subjects, clone)
				} else {
					subjects[rng.Intn(len(subjects))] = clone
				}
			}
			for j, s := range subjects {
				s.check(t, fmt.Sprintf("%s, then subject %d", where, j))
			}
		}
	}
}

// Sinks keep the compiler from placing the messages TestMessageAllocs
// makes on the stack.
var (
	sinkReq  *Request
	sinkResp *Response
)

// TestMessageAllocs pins what a message costs: a request and up to
// eight headers are one allocation, and so is its clone; a response
// starts with no header list at all.
func TestMessageAllocs(t *testing.T) {
	keys := headerKeys[:inlineHeaders]
	full := NewRequest("GET", "/")
	for _, k := range keys {
		full.Headers.Set(k, "v")
	}
	for _, tc := range []struct {
		what string
		fn   func()
	}{
		{"NewRequest plus 8 Sets", func() {
			sinkReq = NewRequest("GET", "/")
			for _, k := range keys {
				sinkReq.Headers.Set(k, "v")
			}
		}},
		{"Clone of a request with 8 headers", func() { sinkReq = full.Clone() }},
		{"NewResponse", func() { sinkResp = NewResponse(StatusOK) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 1 {
			t.Errorf("%s allocates %v times, want 1", tc.what, n)
		}
	}
}
