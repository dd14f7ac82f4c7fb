package lang

import (
	"reflect"
	"testing"
	"time"
)

// TestCanonicalRejectsNonASCII: identifiers are ASCII-only, so a byte
// of a multi-byte UTF-8 letter must be a prompt lexical error. A lexer
// that accepted such a byte as an identifier start but not as an
// identifier rune would return empty tokens forever, and locmapd
// canonicalizes every request's source before parsing it.
func TestCanonicalRejectsNonASCII(t *testing.T) {
	for _, src := range []string{"é", "param N = 4\narray Ä[N]", "(\xc2"} {
		done := make(chan error, 1)
		go func() {
			_, err := Canonical(src)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Canonical(%q): expected a lexical error", src)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Canonical(%q) did not return", src)
		}
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("Parse(%q): expected an error", src)
		}
	}
}

// FuzzCanonical checks the properties the plan-cache key relies on:
// Canonical terminates, is idempotent, and preserves meaning — src and
// its canonical form either both fail to parse or parse to identical
// programs. The seed corpus lives in testdata/fuzz/FuzzCanonical.
func FuzzCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		canon, err := Canonical(src)
		if err != nil {
			if _, perr := Parse(src, nil); perr == nil {
				t.Fatalf("Canonical failed (%v) but Parse accepted %q", err, src)
			}
			return
		}
		again, err := Canonical(canon)
		if err != nil {
			t.Fatalf("Canonical of canonical form %q failed: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("Canonical not idempotent:\n once  %q\n twice %q", canon, again)
		}
		p1, err1 := Parse(src, nil)
		p2, err2 := Parse(canon, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Parse disagrees: src err %v, canonical err %v (src %q)", err1, err2, src)
		}
		if err1 == nil && !reflect.DeepEqual(p1, p2) {
			t.Fatalf("Parse(src) and Parse(Canonical(src)) differ for %q", src)
		}
	})
}
