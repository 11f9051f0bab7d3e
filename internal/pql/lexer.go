// Package pql implements a small provenance path-query language — the
// concrete form of the paper's §2.4 claims that forensic questions
// become "a simple query":
//
//	first ancestor of download("/home/u/x.exe") where recognizable
//	descendants(url("http://shady.example/")) where kind = download
//	ancestors(url("http://films.example/kane")) where kind = search-term
//	descendants(term("rosebud")) where title ~ "kane" limit 10
//
// The language has three statement forms (set traversal, nearest-match,
// and lineage), four node sources, and a conjunctive predicate over node
// kind, visit counts, text fields and the recognizability heuristic.
package pql

import (
	"fmt"
	"strings"
)

// tokenKind discriminates lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokEq
	tokTilde
	tokLT
	tokGT
	tokLE
	tokGE
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokEq:
		return "'='"
	case tokTilde:
		return "'~'"
	case tokLT:
		return "'<'"
	case tokGT:
		return "'>'"
	case tokLE:
		return "'<='"
	case tokGE:
		return "'>='"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError reports a lexing or parsing failure with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pql: position %d: %s", e.Pos, e.Msg)
}

func errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lex splits src into tokens. Identifiers are ASCII and may contain '-'
// so edge and node kind names ("search-term") lex as single tokens.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case c == '~':
			toks = append(toks, token{tokTilde, "~", i})
			i++
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokLE, "<=", i})
				i += 2
			} else {
				toks = append(toks, token{tokLT, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokGE, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokGT, ">", i})
				i++
			}
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, errf(i, "unterminated string")
				}
				if src[j] == '\\' && j+1 < len(src) {
					sb.WriteByte(src[j+1])
					j += 2
					continue
				}
				if src[j] == '"' {
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case isLetter(c) || c == '_':
			j := i
			for j < len(src) && (isLetter(src[j]) || src[j] >= '0' && src[j] <= '9' || src[j] == '_' || src[j] == '-') {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(src[i:j]), i})
			i = j
		default:
			return nil, errf(i, "unexpected character %q", c)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// isLetter reports whether c is an ASCII letter. A byte of multi-byte
// UTF-8 is not a character on its own, so it never starts or extends an
// identifier.
func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
