// Package cfront is a C-subset frontend standing in for the Clang inside
// Vitis HLS: it parses the HLS C++ emitted by cgen (and hand-written kernels
// in the same subset), type-checks it, lowers it to LLVM IR through allocas,
// and recovers SSA with mem2reg — reproducing the re-canonicalization the
// baseline HLS-C++ flow undergoes (int loop counters, sign extensions,
// rebuilt address expressions).
package cfront

import (
	"fmt"
	"slices"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tPunct
	tPragma // whole "#pragma ..." line, text holds the content after '#'
)

type token struct {
	kind tokKind
	text string
	line int
}

// lex appends the tokens of src to toks and returns the extended slice,
// also with an error, so the caller keeps its storage.
func lex(toks []token, src string) ([]token, error) {
	// Emitted C runs three to four and a half bytes per token.
	toks = slices.Grow(toks, len(src)/3+1)
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			i += 2
		case c == '#':
			start := i
			for i < n && src[i] != '\n' {
				i++
			}
			toks = append(toks, token{kind: tPragma, text: strings.TrimSpace(src[start:i]), line: line})
		case isAlpha(c):
			start := i
			for i < n && (isAlpha(src[i]) || isDig(src[i])) {
				i++
			}
			toks = append(toks, token{kind: tIdent, text: src[start:i], line: line})
		case isDig(c) || (c == '.' && i+1 < n && isDig(src[i+1])):
			start := i
			isF := false
			for i < n {
				ch := src[i]
				if isDig(ch) {
					i++
					continue
				}
				if ch == '.' && !isF {
					isF = true
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && i+1 < n &&
					(isDig(src[i+1]) || ((src[i+1] == '+' || src[i+1] == '-') && i+2 < n && isDig(src[i+2]))) {
					isF = true
					i += 2
					continue
				}
				if ch == 'f' || ch == 'F' {
					isF = true
					i++
					break
				}
				break
			}
			k := tInt
			if isF {
				k = tFloat
			}
			toks = append(toks, token{kind: k, text: src[start:i], line: line})
		default:
			// Multi-character operators first.
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "&&", "||":
				toks = append(toks, token{kind: tPunct, text: two, line: line})
				i += 2
			default:
				switch c {
				case '(', ')', '{', '}', '[', ']', ';', ',', '=', '<', '>', '+',
					'-', '*', '/', '%', '?', ':', '!', '&', '|':
					toks = append(toks, token{kind: tPunct, text: src[i : i+1], line: line})
					i++
				default:
					return toks, fmt.Errorf("cfront: line %d: unexpected character %q", line, string(c))
				}
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDig(c byte) bool { return c >= '0' && c <= '9' }
