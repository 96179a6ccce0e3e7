package meshlayer

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"meshlayer/internal/lint/leakcheck"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt and testdata/mesh_series.txt from the current code")

// withParallelism runs fn with MaxParallel forced to n, restoring the
// previous value afterwards.
func withParallelism(n int, fn func()) {
	old := MaxParallel
	MaxParallel = n
	defer func() { MaxParallel = old }()
	fn()
}

func readGolden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("%v (record it with: go test -run TestGoldens -update .)", err)
	}
	return string(b)
}

// sameBytes fails t at the first line where got leaves want.
func sameBytes(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", what, len(g), len(w))
}

// TestRegistry pins the table's shape: ids are unique flag-friendly
// words, every entry has golden settings, and the golden files are
// exactly the entries.
func TestRegistry(t *testing.T) {
	word := regexp.MustCompile(`^[a-z0-9]+$`)
	want := map[string]bool{}
	for _, e := range Experiments {
		if !word.MatchString(e.ID) || e.ID == "all" || want[e.ID] {
			t.Errorf("id %q: want unique, matching %v, and not the reserved \"all\"", e.ID, word)
		}
		want[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s: no Run", e.ID)
		}
		if e.Golden.Measure <= 0 {
			t.Errorf("%s: no golden settings", e.ID)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if !want[id] {
			t.Errorf("%s has no registry entry", f)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s has no file under testdata/golden (go test -run TestGoldens -update .)", id)
	}
}

// TestGoldens replays every registry entry at its golden settings and
// compares the bytes with testdata/golden/<id>.txt — the files the
// parent of the registry refactor wrote, so any later change to a
// table is a visible diff (-update rewrites them). Two passes pin the
// sweep pool's parallel == sequential property on every table: each
// entry alone with the pool off (what `meshbench -exp <id> -parallel 1`
// prints), then on the pool, where the InAll entries run as one
// `-exp all` whose output must be their goldens in registry order with
// the Fig. 4 sweep run, and its header printed, once.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every experiment twice (~100 s)")
	}
	leakcheck.Check(t)

	withParallelism(1, func() {
		t.Run("sequential", func(t *testing.T) {
			for _, e := range Experiments {
				t.Run(e.ID, func(t *testing.T) {
					t.Parallel() // the pool is off, the entries are independent: keep the cores busy
					got := e.Run(e.Golden) + "\n"
					if *update {
						if err := os.WriteFile(filepath.Join("testdata", "golden", e.ID+".txt"), []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					sameBytes(t, "sequential run vs golden file", got, readGolden(t, e.ID))
				})
			}
		})
	})
	withParallelism(4, func() {
		var all strings.Builder
		var header string // "# sweep: ...": only the shared sweep's first table keeps it
		for _, e := range Experiments {
			switch {
			case e.InAll:
				g := readGolden(t, e.ID)
				if all.Len() == 0 {
					header = g[:strings.Index(g, "\n\n")+2]
				} else {
					g = strings.TrimPrefix(g, header)
				}
				all.WriteString(g)
			default:
				t.Run("pool/"+e.ID, func(t *testing.T) {
					sameBytes(t, "pooled run vs golden file", e.Run(e.Golden)+"\n", readGolden(t, e.ID))
				})
			}
		}
		t.Run("pool/all", func(t *testing.T) {
			var got bytes.Buffer
			if err := RunExperiment(&got, "all", smoke()); err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "-exp all vs the InAll goldens in registry order", got.String(), all.String())
		})
	})
}
