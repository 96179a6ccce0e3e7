package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFlags: bad input is one line on stderr and exit 2, never a run
// that traces nothing; a good run prints the traces it served.
func TestRunFlags(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string // substring of the one stderr line
		stdout string // prefix
	}{
		{"-n 0", 2, "tracedump: n must be > 0, got 0", ""},
		{"-n -3", 2, "tracedump: n must be > 0, got -3", ""},
		{"-opts warp", 2, "tracedump: unknown optimization", ""},
		{"-n 1 -opts routing", 0, "", "trace "},
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
