// Package db is a small in-memory relational database engine standing in
// for the SQLite port the paper uses (§7.5). It supports the SQL subset
// ok-dbproxy needs — CREATE TABLE, INSERT, SELECT, UPDATE, DELETE with
// equality WHERE conjunctions and positional ? parameters — and exposes its
// statement AST so the proxy can rewrite queries (adding the private
// "user ID" column) exactly as the paper's ok-dbproxy does.
//
// Every table keeps a hash index from the value of its first column to its
// rows. A SELECT, UPDATE or DELETE whose WHERE conjunction fixes that
// column, with every parameter bound, visits only the key's rows; any other
// statement scans the table. The index is what keeps a login's cost flat in
// the number of users: a login still pays one database round trip, which is
// the per-login overhead the paper observes ("database overhead incurred by
// user authentication quickly becomes significant", §9.3), but it no longer
// pays one row per user. For okws_users the first column is the user name;
// ok-dbproxy appends its private user-ID column last, so a worker table
// keys on the worker's own first column.
package db

import (
	"fmt"
	"strings"
)

// Stmt is a parsed SQL statement.
type Stmt interface {
	// SQL re-serializes the statement.
	SQL() string
	isStmt()
}

// Expr is a value expression: a literal or a positional parameter.
type Expr struct {
	Param   bool
	Index   int    // parameter index when Param
	Literal string // literal value otherwise
}

// Lit makes a literal expression.
func Lit(s string) Expr { return Expr{Literal: s} }

// Param makes the i-th (0-based) positional parameter.
func Param(i int) Expr { return Expr{Param: true, Index: i} }

func (e Expr) sql() string {
	if e.Param {
		return "?"
	}
	return "'" + strings.ReplaceAll(e.Literal, "'", "''") + "'"
}

// resolve returns the concrete value given the statement arguments.
func (e Expr) resolve(args []string) (string, error) {
	if !e.Param {
		return e.Literal, nil
	}
	if e.Index < 0 || e.Index >= len(args) {
		return "", fmt.Errorf("db: parameter %d out of range (%d args)", e.Index, len(args))
	}
	return args[e.Index], nil
}

// Cond is an equality condition "col = expr".
type Cond struct {
	Col string
	Val Expr
}

// Assign is a SET clause element "col = expr".
type Assign struct {
	Col string
	Val Expr
}

// CreateStmt is CREATE TABLE t (c1, c2, ...).
type CreateStmt struct {
	Table string
	Cols  []string
}

// InsertStmt is INSERT INTO t (c1, ...) VALUES (e1, ...).
type InsertStmt struct {
	Table string
	Cols  []string
	Vals  []Expr
}

// SelectStmt is SELECT c1, ... FROM t [WHERE conds]; Cols == nil means *.
type SelectStmt struct {
	Table string
	Cols  []string
	Where []Cond
}

// UpdateStmt is UPDATE t SET a1, ... [WHERE conds].
type UpdateStmt struct {
	Table string
	Set   []Assign
	Where []Cond
}

// DeleteStmt is DELETE FROM t [WHERE conds].
type DeleteStmt struct {
	Table string
	Where []Cond
}

func (*CreateStmt) isStmt() {}
func (*InsertStmt) isStmt() {}
func (*SelectStmt) isStmt() {}
func (*UpdateStmt) isStmt() {}
func (*DeleteStmt) isStmt() {}

func (s *CreateStmt) SQL() string {
	return "CREATE TABLE " + s.Table + " (" + strings.Join(s.Cols, ", ") + ")"
}

func (s *InsertStmt) SQL() string {
	vals := make([]string, len(s.Vals))
	for i, v := range s.Vals {
		vals[i] = v.sql()
	}
	return "INSERT INTO " + s.Table + " (" + strings.Join(s.Cols, ", ") +
		") VALUES (" + strings.Join(vals, ", ") + ")"
}

func condSQL(w []Cond) string {
	if len(w) == 0 {
		return ""
	}
	parts := make([]string, len(w))
	for i, c := range w {
		parts[i] = c.Col + " = " + c.Val.sql()
	}
	return " WHERE " + strings.Join(parts, " AND ")
}

func (s *SelectStmt) SQL() string {
	cols := "*"
	if s.Cols != nil {
		cols = strings.Join(s.Cols, ", ")
	}
	return "SELECT " + cols + " FROM " + s.Table + condSQL(s.Where)
}

func (s *UpdateStmt) SQL() string {
	sets := make([]string, len(s.Set))
	for i, a := range s.Set {
		sets[i] = a.Col + " = " + a.Val.sql()
	}
	return "UPDATE " + s.Table + " SET " + strings.Join(sets, ", ") + condSQL(s.Where)
}

func (s *DeleteStmt) SQL() string {
	return "DELETE FROM " + s.Table + condSQL(s.Where)
}

// --- tokenizer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct // ( ) , = * ?
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && isSpace(l.in[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF}, nil
	}
	c := l.in[l.pos]
	switch {
	case c == '(' || c == ')' || c == ',' || c == '=' || c == '*' || c == '?':
		l.pos++
		return token{kind: tokPunct, text: string(c)}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.in) {
				return token{}, fmt.Errorf("db: unterminated string literal")
			}
			if l.in[l.pos] == '\'' {
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: b.String()}, nil
			}
			b.WriteByte(l.in[l.pos])
			l.pos++
		}
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.in) && isDigit(l.in[l.pos+1])):
		start := l.pos
		l.pos++
		for l.pos < len(l.in) && (isDigit(l.in[l.pos]) || l.in[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.in[start:l.pos]}, nil
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.in[start:l.pos]}, nil
	default:
		return token{}, fmt.Errorf("db: unexpected character %q", c)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// --- parser ---

type parser struct {
	lex    lexer
	tok    token
	params int
}

// Parse parses one SQL statement.
func Parse(query string) (Stmt, error) {
	p := &parser{lex: lexer{in: query}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("db: trailing input at %q", p.tok.text)
	}
	return stmt, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) keyword(words ...string) bool {
	if p.tok.kind != tokIdent {
		return false
	}
	up := strings.ToUpper(p.tok.text)
	for _, w := range words {
		if up == w {
			return true
		}
	}
	return false
}

func (p *parser) expectKeyword(w string) error {
	if !p.keyword(w) {
		return fmt.Errorf("db: expected %s, got %q", w, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return fmt.Errorf("db: expected %q, got %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("db: expected identifier, got %q", p.tok.text)
	}
	name := strings.ToLower(p.tok.text)
	return name, p.advance()
}

func (p *parser) expr() (Expr, error) {
	switch {
	case p.tok.kind == tokPunct && p.tok.text == "?":
		e := Param(p.params)
		p.params++
		return e, p.advance()
	case p.tok.kind == tokString, p.tok.kind == tokNumber:
		e := Lit(p.tok.text)
		return e, p.advance()
	default:
		return Expr{}, fmt.Errorf("db: expected value, got %q", p.tok.text)
	}
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.keyword("CREATE"):
		return p.create()
	case p.keyword("INSERT"):
		return p.insert()
	case p.keyword("SELECT"):
		return p.selectStmt()
	case p.keyword("UPDATE"):
		return p.update()
	case p.keyword("DELETE"):
		return p.delete()
	default:
		return nil, fmt.Errorf("db: unsupported statement %q", p.tok.text)
	}
}

func (p *parser) create() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Optional type annotation (TEXT, INTEGER, ...) — parsed, ignored.
		if p.tok.kind == tokIdent {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		cols = append(cols, col)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateStmt{Table: table, Cols: cols}, nil
}

func (p *parser) insert() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vals []Expr
	for {
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(cols) != len(vals) {
		return nil, fmt.Errorf("db: %d columns but %d values", len(cols), len(vals))
	}
	return &InsertStmt{Table: table, Cols: cols, Vals: vals}, nil
}

func (p *parser) where() ([]Cond, error) {
	if !p.keyword("WHERE") {
		return nil, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var conds []Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Cond{Col: col, Val: val})
		if p.keyword("AND") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return conds, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	var cols []string
	if p.tok.kind == tokPunct && p.tok.text == "*" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	where, err := p.where()
	if err != nil {
		return nil, err
	}
	return &SelectStmt{Table: table, Cols: cols, Where: where}, nil
}

func (p *parser) update() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var sets []Assign
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, Assign{Col: col, Val: val})
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	where, err := p.where()
	if err != nil {
		return nil, err
	}
	return &UpdateStmt{Table: table, Set: sets, Where: where}, nil
}

func (p *parser) delete() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	where, err := p.where()
	if err != nil {
		return nil, err
	}
	return &DeleteStmt{Table: table, Where: where}, nil
}
