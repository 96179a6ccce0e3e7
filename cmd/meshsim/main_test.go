package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlags: bad input is one line on stderr and exit 2, never a
// panic or a silently substituted default; a good run's header names the
// window it ran.
func TestRunFlags(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string // substring of the one stderr line
		stdout string // prefix
	}{
		{"-rps 0", 2, "meshsim: rps must be > 0, got 0", ""},
		{"-rps -5", 2, "meshsim: rps must be > 0", ""},
		{"-measure -1s", 2, "meshsim: warmup and measure must be > 0, got 2s and -1s", ""},
		{"-measure 0", 2, "meshsim: warmup and measure must be > 0, got 2s and 0s", ""},
		{"-warmup 0s", 2, "meshsim: warmup and measure must be > 0", ""},
		{"-opts warp", 2, "meshsim: unknown optimization", ""},
		{"-rps 20 -opts routing,tc -warmup 500ms -measure 1s", 0, "",
			"scenario: routing+tc, 20 RPS per workload, 1s measured\n\nlatency-sensitive    n="},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		if code != c.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.stderr) || !strings.HasPrefix(stdout.String(), c.stdout) {
			t.Errorf("%q:\nstdout %q, want it to start %q\nstderr %q, want it to contain %q",
				c.args, stdout.String(), c.stdout, stderr.String(), c.stderr)
		}
		if c.code != 0 && (stdout.Len() > 0 || strings.Count(stderr.String(), "\n") != 1) {
			t.Errorf("%q: want no stdout and one stderr line, got stdout %q stderr %q", c.args, stdout.String(), stderr.String())
		}
	}
}
