package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshlayer"
)

// TestRunFlags: bad input is one line on stderr and exit 2, never a
// panic or a silently substituted default; good input prints its table.
func TestRunFlags(t *testing.T) {
	defer func(old int) { meshlayer.MaxParallel = old }(meshlayer.MaxParallel)
	ids, _ := meshlayer.IDs()
	first, second := ids[0], ids[1] // the sweep's two tables: quick at one level and a 1 s window
	dir := t.TempDir()
	cpuOut, memOut := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	noSuchDir := filepath.Join(dir, "missing", "x.prof")
	cases := []struct {
		args   string
		code   int
		stderr string // substring of the one stderr line
		stdout string // substring
	}{
		{"-exp " + second + " -rps -5", 2, "rps must be > 0", ""},
		{"-exp " + second + " -rps 0", 2, "rps must be > 0", ""},
		{"-exp " + second + " -measure -3s", 2, "warmup and measure must be > 0", ""},
		{"-exp " + second + " -warmup 0s", 2, "warmup and measure must be > 0", ""},
		{"-parallel 0", 2, "parallel must be >= 1", ""},
		{"-parallel -2", 2, "parallel must be >= 1", ""},
		{"-zones -1", 2, "zones and subs must be >= 0", ""},
		{"-subs -1", 2, "zones and subs must be >= 0", ""},
		{"-exp " + second + " -csv", 2, "csv renders only " + first, ""},
		{"-exp nope", 2, `unknown experiment "nope" (valid: ` + strings.Join(ids, ", ") + ", all)", ""},
		{"-levels 10,x", 2, "bad RPS level", ""},
		{"-opts warp", 2, "unknown optimization", ""},
		{"-exp " + first + " -levels 20 -warmup 500ms -measure 1s -parallel 1", 0, "", "# sweep: opts=routing+tc levels=[20] measure=1s seed=1\n\nFig. 4"},
		{"-exp " + first + " -levels 20 -warmup 500ms -measure 1s -csv", 0, "", "\n\nrps,ls_base_p50_ms"},
		{"-exp " + first + " -cpuprofile " + noSuchDir, 2, "no such file or directory", ""},
		{"-exp " + first + " -cpuprofile " + cpuOut + " -memprofile " + noSuchDir, 2, "no such file or directory", ""},
		{"-exp " + first + " -levels 20 -warmup 500ms -measure 1s -cpuprofile " + cpuOut + " -memprofile " + memOut, 0, "", "Fig. 4"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		if code != c.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.stderr) || !strings.Contains(stdout.String(), c.stdout) {
			t.Errorf("%q:\nstdout %q, want it to contain %q\nstderr %q, want it to contain %q",
				c.args, stdout.String(), c.stdout, stderr.String(), c.stderr)
		}
		if c.code != 0 && (stdout.Len() > 0 || strings.Count(stderr.String(), "\n") != 1) {
			t.Errorf("%q: want no stdout and one stderr line, got stdout %q stderr %q", c.args, stdout.String(), stderr.String())
		}
	}
	for _, f := range []string{cpuOut, memOut} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: want a non-empty file, got %v", f, err)
		}
	}
	// There is no process-wide fidelity: E20 and E21 set it on the
	// networks they build, so -fidelity is an unknown flag (the flag
	// package follows its message with the usage text).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fidelity", "hybrid"}, &stdout, &stderr); code != 2 ||
		!strings.HasPrefix(stderr.String(), "flag provided but not defined: -fidelity\n") || stdout.Len() > 0 {
		t.Errorf("-fidelity hybrid: exit %d, stdout %q, stderr %q; want exit 2 and the undefined-flag message", code, stdout.String(), stderr.String())
	}
}
