package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *fileDirectives, []string, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var diags []Diagnostic
	fd, pooled := parseDirectives(fset, f, "example.com/p", &diags)
	return fset, fd, pooled, diags
}

func TestAllowCoversOwnAndNextLine(t *testing.T) {
	src := `package p
//meshvet:allow walltime trailing-position reason
var x = 1
`
	_, fd, _, diags := parseSrc(t, src)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if !fd.suppressed("walltime", 2) || !fd.suppressed("walltime", 3) {
		t.Errorf("allow on line 2 must suppress walltime on lines 2 and 3")
	}
	if fd.suppressed("walltime", 4) {
		t.Errorf("allow must not reach line 4")
	}
	if fd.suppressed("globalrand", 3) {
		t.Errorf("allow is per-analyzer; globalrand must not be suppressed")
	}
}

func TestAllowNeverSuppressesDirectiveDiagnostics(t *testing.T) {
	src := `package p
//meshvet:allow directive trying to silence the validator
var x = 1
`
	_, _, _, diags := parseSrc(t, src)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Fatalf("allow naming the reserved %q pseudo-analyzer must be rejected, got %v",
			DirectiveAnalyzerName, diags)
	}
}

func TestPooledAttachment(t *testing.T) {
	src := `package p
// T is pool-recycled.
//
//meshvet:pooled
type T struct{}

type U struct{} //meshvet:pooled

var NotAType = 1 //meshvet:pooled
`
	_, _, pooled, diags := parseSrc(t, src)
	want := map[string]bool{"T": true, "U": true}
	if len(pooled) != 2 || !want[pooled[0]] || !want[pooled[1]] {
		t.Errorf("pooled = %v, want the bare names T and U (facts key them by object)", pooled)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "must be attached to a type declaration") {
		t.Errorf("detached pooled marker must be a diagnostic, got %v", diags)
	}
	if len(diags) == 1 && diags[0].Analyzer != DirectiveAnalyzerName {
		t.Errorf("directive diagnostics carry the reserved analyzer name, got %q", diags[0].Analyzer)
	}
}

// malformedDirectives are directives meshvet rejects, each with the
// diagnostic it draws.
var malformedDirectives = []struct {
	comment string
	wantMsg string
}{
	{"//meshvet:allow", "needs an analyzer name and a reason"},
	{"//meshvet:allow mapiter", "missing its reason"},
	{"//meshvet:allow nosuch because reasons", `unknown analyzer "nosuch"`},
	{"//meshvet:frob x", `unknown meshvet directive "frob"`},
}

func TestMalformedAllowVariants(t *testing.T) {
	for _, c := range malformedDirectives {
		_, fd, _, diags := parseSrc(t, "package p\n"+c.comment+"\nvar x = 1\n")
		if len(diags) != 1 || !strings.Contains(diags[0].Message, c.wantMsg) {
			t.Errorf("%s: got %v, want message containing %q", c.comment, diags, c.wantMsg)
		}
		if len(fd.allows) != 0 {
			t.Errorf("%s: malformed directive must not suppress anything, got %v", c.comment, fd.allows)
		}
	}
}

func TestNonDirectiveCommentsIgnored(t *testing.T) {
	src := `package p
// plain comment mentioning meshvet:allow inside prose is not a directive
var x = 1 // meshvet:allow walltime spaced-out prefix is prose too
`
	_, fd, pooled, diags := parseSrc(t, src)
	if len(diags) != 0 || len(fd.allows) != 0 || len(pooled) != 0 {
		t.Errorf("prose mentioning directives must be inert: diags=%v allows=%v pooled=%v",
			diags, fd.allows, pooled)
	}
}

// FuzzParseDirectives puts one comment in three places of a small file
// — on its own line above a type, trailing a type, trailing a var — and
// holds what parseDirectives makes of it to meshvet's contract: no
// comment panics it, a comment not spelled //meshvet: does nothing, and
// a directive does exactly one thing on its own line. That is a
// diagnostic of the reserved analyzer; or an allow of a known analyzer,
// named by the directive's first word and followed by a reason, over
// its own line and the next; or a pooled mark on the type it sits on.
//
//	go test -run '^$' -fuzz FuzzParseDirectives -fuzztime 30s ./internal/lint
func FuzzParseDirectives(f *testing.F) {
	for _, c := range malformedDirectives {
		f.Add(c.comment)
	}
	for _, c := range []string{
		"//meshvet:allow walltime trailing-position reason",
		"//meshvet:allow directive trying to silence the validator",
		"//meshvet:pooled",
		"//meshvet:allow\twalltime\treason",
		"// meshvet:allow walltime spaced-out prefix is prose too",
		"// plain comment mentioning meshvet:allow inside prose is not a directive",
	} {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		if !strings.HasPrefix(comment, "//") || strings.ContainsAny(comment, "\r\n") {
			return // not one line comment
		}
		for _, place := range []struct {
			src      string
			line     int
			typeName string // the type a pooled mark here sits on
		}{
			{"package p\n" + comment + "\ntype T struct{}\n", 2, "T"},
			{"package p\ntype U struct{} " + comment + "\n", 2, "U"},
			{"package p\nvar x = 1 " + comment + "\n", 2, ""},
		} {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "fuzz.go", place.src, parser.ParseComments)
			if err != nil || len(file.Comments) != 1 || len(file.Comments[0].List) != 1 {
				continue // not Go, or not the one comment
			}
			text := file.Comments[0].List[0].Text
			var diags []Diagnostic
			fd, pooled := parseDirectives(fset, file, "example.com/p", &diags)
			for _, d := range diags {
				if d.Analyzer != DirectiveAnalyzerName || d.Pos.Line != place.line {
					t.Fatalf("%q: diagnostic %v, want one of %q on line %d", text, d, DirectiveAnalyzerName, place.line)
				}
			}
			outcomes := len(diags) + len(pooled)
			if len(fd.allows) > 0 {
				outcomes++
			}
			if !strings.HasPrefix(text, directivePrefix) {
				if outcomes != 0 {
					t.Fatalf("%q is no directive, yet: diags %v, allows %v, pooled %v", text, diags, fd.allows, pooled)
				}
				continue
			}
			if outcomes != 1 {
				t.Fatalf("%q: diags %v, allows %v, pooled %v, want exactly one outcome", text, diags, fd.allows, pooled)
			}
			if len(pooled) == 1 && pooled[0] != place.typeName {
				t.Fatalf("%q marks %q pooled, want %q", text, pooled[0], place.typeName)
			}
			if len(fd.allows) > 0 {
				words := strings.Fields(strings.TrimPrefix(text, directivePrefix+"allow"))
				if len(fd.allows) != 2 || len(words) < 2 || !knownAnalyzer(words[0]) ||
					!fd.suppressed(words[0], place.line) || !fd.suppressed(words[0], place.line+1) {
					t.Fatalf("%q allows %v, want its analyzer on lines %d and %d, with a reason", text, fd.allows, place.line, place.line+1)
				}
			}
		}
	})
}
