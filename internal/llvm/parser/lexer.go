// Package parser parses the .ll text produced by llvm.Module.Print (both
// opaque- and typed-pointer spellings), giving the command-line tools a file
// interface and closing the print/parse round trip.
package parser

import (
	"fmt"
	"strconv"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tLocal    // %name
	tGlobal   // @name
	tAttrRef  // #0
	tMDRef    // !0
	tMDString // !"..."
	tInt
	tFloat
	tString
	tPunct
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i, n := 0, len(src)
	readName := func() string {
		start := i
		for i < n && (isIdentChar(src[i]) || src[i] == '.') {
			i++
		}
		return src[start:i]
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '%':
			i++
			toks = append(toks, token{tLocal, readName(), line})
		case c == '@':
			i++
			toks = append(toks, token{tGlobal, readName(), line})
		case c == '#':
			i++
			toks = append(toks, token{tAttrRef, readName(), line})
		case c == '!':
			i++
			if i < n && src[i] == '"' {
				i++
				start := i
				for i < n && src[i] != '"' {
					i++
				}
				toks = append(toks, token{tMDString, src[start:i], line})
				i++
				continue
			}
			if i < n && src[i] == '{' {
				toks = append(toks, token{tPunct, "!{", line})
				i++
				continue
			}
			toks = append(toks, token{tMDRef, readName(), line})
		case c == '"':
			// Attribute strings are printed Go-quoted (%q), so a value may
			// carry backslash escapes; the string ends at the first
			// unescaped quote and decodes with the inverse of the printer.
			start := i
			i++
			escaped := false
			for i < n && src[i] != '"' {
				if src[i] == '\\' {
					escaped = true
					i++
				}
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("llvm parser: line %d: unterminated string", line)
			}
			i++
			text := src[start+1 : i-1]
			if escaped {
				s, err := strconv.Unquote(src[start:i])
				if err != nil {
					return nil, fmt.Errorf("llvm parser: line %d: bad string %s: %v", line, src[start:i], err)
				}
				text = s
			}
			toks = append(toks, token{tString, text, line})
		case isLetter(c):
			toks = append(toks, token{tIdent, readName(), line})
		case isDigit(c) || (c == '-' && i+1 < n && isDigit(src[i+1])):
			start := i
			if c == '-' {
				i++
			}
			isF := false
			for i < n {
				ch := src[i]
				if isDigit(ch) || ch == '.' {
					if ch == '.' {
						isF = true
					}
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && i+1 < n &&
					(isDigit(src[i+1]) || src[i+1] == '+' || src[i+1] == '-') {
					isF = true
					i += 2
					continue
				}
				break
			}
			k := tInt
			if isF {
				k = tFloat
			}
			toks = append(toks, token{k, src[start:i], line})
		default:
			switch c {
			case '(', ')', '{', '}', '[', ']', '<', '>', ',', '=', '*', ':':
				toks = append(toks, token{tPunct, string(c), line})
				i++
			default:
				return nil, fmt.Errorf("llvm parser: line %d: unexpected %q", line, string(c))
			}
		}
	}
	toks = append(toks, token{tEOF, "", line})
	return toks, nil
}

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentChar(c byte) bool { return isLetter(c) || isDigit(c) }
