// Package lang is the small front end of the locmap compiler: it parses a
// C-like loop-nest language into the loop-nest IR (internal/loop) that the
// location-aware mapping passes consume.
//
// The language covers what the paper's PLUTO-based prototype consumes:
// parameter declarations (symbolic loop bounds), array declarations,
// perfectly nested rectangular `for` loops marked `parallel`, and
// assignment statements whose subscripts are affine expressions of the
// loop iterators — or references through index arrays (`A[idx[i]]`),
// which classify the enclosing nest as irregular.
//
// Grammar (EBNF):
//
//	program  = { decl } .
//	decl     = "param" ident "=" int
//	         | "array" ident "[" expr "]"
//	         | nest .
//	nest     = [ "parallel" ] "for" ident "=" expr ".." expr
//	           [ "work" int ] "{" { stmt } "}" .
//	stmt     = nest | assign .
//	assign   = ref "=" ref { ("+"|"-"|"*") ref } .
//	ref      = ident "[" subscript "]" | ident .
//	subscript= sum of terms; term = int | ident | int "*" ident
//	         | ident "[" subscript "]"   (index-array reference) .
//	expr     = int | ident | int "*" ident | expr ("+"|"-") expr .
package lang

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct // single-rune punctuation and ".."
)

type token struct {
	kind tokKind
	text string
	num  int64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokInt:
		return fmt.Sprintf("%d", t.num)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer tokenizes source text; `#` starts a comment to end of line.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentRune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		var n int64
		for _, d := range l.src[start:l.pos] {
			n = n*10 + int64(d-'0')
		}
		return token{kind: tokInt, text: l.src[start:l.pos], num: n, line: l.line}, nil
	case c == '.':
		if strings.HasPrefix(l.src[l.pos:], "..") {
			l.pos += 2
			return token{kind: tokPunct, text: "..", line: l.line}, nil
		}
		return token{}, l.errorf("unexpected %q", c)
	case strings.ContainsRune("[]{}=+-*(),", rune(c)):
		l.pos++
		return token{kind: tokPunct, text: string(c), line: l.line}, nil
	default:
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		return token{}, l.errorf("unexpected character %q", r)
	}
}

// isIdentStart reports whether c can begin an identifier. Identifiers
// are ASCII-only; testing a single byte of a multi-byte UTF-8 sequence
// with a Unicode predicate would accept Latin-1 letters that
// isIdentRune then rejects, yielding an empty token that never
// advances the lexer.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentRune(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
