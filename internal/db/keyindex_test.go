package db

import (
	"fmt"
	"strconv"
	"testing"
)

// The key index must be invisible: every statement returns what a full
// scan returns — the same rows in the same order, the same Affected count
// and the same error. FuzzKeyIndexMatchesScan holds the engine to a naive
// scanning model written here, over a byte-coded statement stream.

// fuzzTables are the two schemas the stack uses: idd's user table, keyed
// on the name, and a worker table as ok-dbproxy creates it, with the
// private user-ID column appended last.
var fuzzTables = []struct {
	name string
	cols []string
}{
	{"okws_users", []string{"name", "password", "uid", "ut", "ug"}},
	{"notes", []string{"k", "d", "_uid"}},
}

// fuzzVals is a small domain, so keys collide and conditions often match.
var fuzzVals = []string{"alice", "bob", "carol", "", "0", "1", "2"}

// Statement encoding, one byte per field:
//
//	op%5 table%2 body args
//	body:  CREATE nothing; INSERT mask expr…; SELECT mask where;
//	       UPDATE n%3+1 (col expr)… where; DELETE where
//	where: n%4 (col expr)…
//	args:  n%6 val…
//
// A mask selects columns by bit (0 means all: the INSERT default, or
// SELECT *); col 255 names a column no table has; an expr with the high
// bit set is parameter (b&0x7f)%7, so parameters 5 and 6 are always out of
// range, else literal fuzzVals[b%7].
const (
	fzCreate = iota
	fzInsert
	fzSelect
	fzUpdate
	fzDelete
)

// fzBadCol encodes the missing column.
const fzBadCol = 255

// fzParam and fzLit encode an expr.
func fzParam(i int) byte  { return 0x80 | byte(i) }
func fzLit(v string) byte { return fzVal(v) }

func fzVal(v string) byte {
	for i, s := range fuzzVals {
		if s == v {
			return byte(i)
		}
	}
	panic("no fuzz value " + v)
}

// decodeStmt reads one statement and its arguments.
func decodeStmt(next func() int) (Stmt, []string) {
	op := next() % 5
	tb := fuzzTables[next()%len(fuzzTables)]
	col := func() string {
		if c := next(); c != fzBadCol {
			return tb.cols[c%len(tb.cols)]
		}
		return "nosuch"
	}
	expr := func() Expr {
		b := next()
		if b&0x80 != 0 {
			return Param(b & 0x7f % 7)
		}
		return Lit(fuzzVals[b%len(fuzzVals)])
	}
	mask := func() []string {
		m := next()
		if m == 0 {
			return nil
		}
		var cols []string
		for i, c := range tb.cols {
			if m&(1<<i) != 0 {
				cols = append(cols, c)
			}
		}
		if cols == nil {
			cols = []string{"nosuch"}
		}
		return cols
	}
	where := func() []Cond {
		var w []Cond
		for n := next() % 4; n > 0; n-- {
			w = append(w, Cond{Col: col(), Val: expr()})
		}
		return w
	}
	var stmt Stmt
	switch op {
	case fzCreate:
		stmt = &CreateStmt{Table: tb.name, Cols: tb.cols}
	case fzInsert:
		ins := &InsertStmt{Table: tb.name, Cols: mask()}
		if ins.Cols == nil {
			ins.Cols = tb.cols
		}
		for range ins.Cols {
			ins.Vals = append(ins.Vals, expr())
		}
		stmt = ins
	case fzSelect:
		sel := &SelectStmt{Table: tb.name, Cols: mask()}
		sel.Where = where()
		stmt = sel
	case fzUpdate:
		up := &UpdateStmt{Table: tb.name}
		for n := next()%3 + 1; n > 0; n-- {
			up.Set = append(up.Set, Assign{Col: col(), Val: expr()})
		}
		up.Where = where()
		stmt = up
	case fzDelete:
		stmt = &DeleteStmt{Table: tb.name, Where: where()}
	}
	var args []string
	for n := next() % 6; n > 0; n-- {
		args = append(args, fuzzVals[next()%len(fuzzVals)])
	}
	return stmt, args
}

// scanModel is the engine without an index: every WHERE walks every row,
// evaluating conditions in order.
type scanModel map[string]*modelTable

type modelTable struct {
	name string
	cols []string
	rows [][]string
}

func (t *modelTable) col(c string) (int, error) {
	for i, name := range t.cols {
		if name == c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("db: no column %q in %q", c, t.name)
}

func (t *modelTable) match(row []string, where []Cond, args []string) (bool, error) {
	for _, c := range where {
		i, err := t.col(c.Col)
		if err != nil {
			return false, err
		}
		v, err := c.Val.resolve(args)
		if err != nil {
			return false, err
		}
		if row[i] != v {
			return false, nil
		}
	}
	return true, nil
}

// scan returns the positions of the matching rows, validating the WHERE
// columns first as the engine does.
func (t *modelTable) scan(where []Cond, args []string) ([]int, error) {
	for _, c := range where {
		if _, err := t.col(c.Col); err != nil {
			return nil, err
		}
	}
	var hits []int
	for i, row := range t.rows {
		ok, err := t.match(row, where, args)
		if err != nil {
			return nil, err
		}
		if ok {
			hits = append(hits, i)
		}
	}
	return hits, nil
}

func (m scanModel) exec(stmt Stmt, args []string) (Result, error) {
	if s, ok := stmt.(*CreateStmt); ok {
		if m[s.Table] != nil {
			return Result{}, fmt.Errorf("db: table %q already exists", s.Table)
		}
		m[s.Table] = &modelTable{name: s.Table, cols: s.Cols}
		return Result{}, nil
	}
	var name string
	switch s := stmt.(type) {
	case *InsertStmt:
		name = s.Table
	case *SelectStmt:
		name = s.Table
	case *UpdateStmt:
		name = s.Table
	case *DeleteStmt:
		name = s.Table
	}
	t := m[name]
	if t == nil {
		return Result{}, fmt.Errorf("db: no such table %q", name)
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		row := make([]string, len(t.cols))
		for i, c := range s.Cols {
			j, err := t.col(c)
			if err != nil {
				return Result{}, err
			}
			if row[j], err = s.Vals[i].resolve(args); err != nil {
				return Result{}, err
			}
		}
		t.rows = append(t.rows, row)
		return Result{Affected: 1}, nil
	case *SelectStmt:
		for _, c := range s.Where {
			if _, err := t.col(c.Col); err != nil {
				return Result{}, err
			}
		}
		cols := s.Cols
		if cols == nil {
			cols = t.cols
		}
		var idxs []int
		for _, c := range cols {
			j, err := t.col(c)
			if err != nil {
				return Result{}, err
			}
			idxs = append(idxs, j)
		}
		hits, err := t.scan(s.Where, args)
		if err != nil {
			return Result{}, err
		}
		res := Result{Cols: cols, Affected: len(hits)}
		for _, i := range hits {
			var out []string
			for _, j := range idxs {
				out = append(out, t.rows[i][j])
			}
			res.Rows = append(res.Rows, out)
		}
		return res, nil
	case *UpdateStmt:
		for _, c := range s.Where {
			if _, err := t.col(c.Col); err != nil {
				return Result{}, err
			}
		}
		var idxs []int
		var vals []string
		for _, a := range s.Set {
			j, err := t.col(a.Col)
			if err != nil {
				return Result{}, err
			}
			v, err := a.Val.resolve(args)
			if err != nil {
				return Result{}, err
			}
			idxs, vals = append(idxs, j), append(vals, v)
		}
		hits, err := t.scan(s.Where, args)
		if err != nil {
			return Result{}, err
		}
		for _, i := range hits {
			for k, j := range idxs {
				t.rows[i][j] = vals[k]
			}
		}
		return Result{Affected: len(hits)}, nil
	case *DeleteStmt:
		hits, err := t.scan(s.Where, args)
		if err != nil {
			return Result{}, err
		}
		var kept [][]string
		for i, row := range t.rows {
			if len(hits) > 0 && hits[0] == i {
				hits = hits[1:]
				continue
			}
			kept = append(kept, row)
		}
		n := len(t.rows) - len(kept)
		t.rows = kept
		return Result{Affected: n}, nil
	}
	return Result{}, fmt.Errorf("db: unknown statement type %T", stmt)
}

// sameResult compares results and errors, treating nil and empty slices
// alike.
func sameResult(a Result, aErr error, b Result, bErr error) bool {
	if (aErr == nil) != (bErr == nil) || (aErr != nil && aErr.Error() != bErr.Error()) {
		return false
	}
	return fmt.Sprintf("%q %q %d", a.Cols, a.Rows, a.Affected) ==
		fmt.Sprintf("%q %q %d", b.Cols, b.Rows, b.Affected)
}

// checkIndex asserts the index is exactly what reindex would build.
func checkIndex(t *testing.T, d *DB) {
	t.Helper()
	for name, tb := range d.tables {
		n := 0
		for key, pos := range tb.keys {
			for i, p := range pos {
				if p >= len(tb.rows) || tb.rows[p][0] != key || (i > 0 && pos[i-1] >= p) {
					t.Fatalf("%s: index entry %q → %v disagrees with the rows", name, key, pos)
				}
			}
			n += len(pos)
		}
		if n != len(tb.rows) {
			t.Fatalf("%s: index holds %d positions for %d rows", name, n, len(tb.rows))
		}
	}
}

// fzStream concatenates encoded statements.
func fzStream(stmts ...[]byte) []byte {
	var out []byte
	for _, s := range stmts {
		out = append(out, s...)
	}
	return out
}

// fzArgs encodes an argument list.
func fzArgs(vals ...string) []byte {
	out := []byte{byte(len(vals))}
	for _, v := range vals {
		out = append(out, fzVal(v))
	}
	return out
}

func FuzzKeyIndexMatchesScan(f *testing.F) {
	const users, notes = 0, 1
	createUsers := []byte{fzCreate, users, 0}
	createNotes := []byte{fzCreate, notes, 0}
	// idd: INSERT INTO okws_users (name, password, uid, ut, ug) VALUES (?, ?, ?, ?, ?)
	addUser := func(name, uid string) []byte {
		return fzStream([]byte{fzInsert, users, 0, fzParam(0), fzParam(1), fzParam(2), fzParam(3), fzParam(4)},
			fzArgs(name, "carol", uid, "", ""))
	}
	// idd: SELECT password, uid, ut, ug FROM okws_users WHERE name = ?
	lookup := func(name string) []byte {
		return fzStream([]byte{fzSelect, users, 0b11110, 1, 0, fzParam(0)}, fzArgs(name))
	}
	// idd: UPDATE okws_users SET ut = ?, ug = ? WHERE name = ?
	mint := func(name string) []byte {
		return fzStream([]byte{fzUpdate, users, 1, 3, fzParam(0), 4, fzParam(1), 1, 0, fzParam(2)},
			fzArgs("1", "2", name))
	}
	// dbproxy: INSERT INTO notes (k, d, _uid) VALUES (?, ?, '<uid>')
	note := func(k, uid string) []byte {
		return fzStream([]byte{fzInsert, notes, 0, fzParam(0), fzParam(1), fzLit(uid)}, fzArgs(k, "bob"))
	}
	// dbproxy select: SELECT k, d, _uid FROM notes WHERE k = ?
	readNote := func(k string) []byte {
		return fzStream([]byte{fzSelect, notes, 0b111, 1, 0, fzParam(0)}, fzArgs(k))
	}
	// dbproxy update: UPDATE notes SET d = ? WHERE k = ? AND _uid = '<uid>'
	writeNote := func(k, uid string) []byte {
		return fzStream([]byte{fzUpdate, notes, 0, 1, fzParam(0), 2, 0, fzParam(1), 2, fzLit(uid)}, fzArgs("alice", k))
	}
	// dbproxy declassify: UPDATE notes SET _uid = '0' WHERE _uid = '<uid>'
	declassify := func(uid string) []byte {
		return fzStream([]byte{fzUpdate, notes, 0, 2, fzLit("0"), 1, 2, fzLit(uid)}, fzArgs())
	}
	// dbproxy delete: DELETE FROM notes WHERE k = ? AND _uid = '<uid>'
	dropNote := func(k, uid string) []byte {
		return fzStream([]byte{fzDelete, notes, 2, 0, fzParam(0), 2, fzLit(uid)}, fzArgs(k))
	}
	f.Add([]byte{})
	f.Add(fzStream(createUsers, addUser("alice", "1"), addUser("bob", "2"),
		lookup("alice"), mint("alice"), lookup("alice"), lookup("carol")))
	// A duplicate name, then a lookup that sees both rows in order.
	f.Add(fzStream(createUsers, addUser("alice", "1"), addUser("bob", "2"),
		addUser("alice", "2"), lookup("alice"), mint("alice"), lookup("alice")))
	f.Add(fzStream(createNotes, note("alice", "1"), note("bob", "1"), note("alice", "2"),
		readNote("alice"), writeNote("alice", "1"), readNote("alice"), declassify("1"),
		dropNote("alice", "2"), readNote("alice"), readNote("bob")))
	// Out-of-range parameters: on the key (no row reaches it past an empty
	// table, then every row does) and behind a key condition.
	f.Add(fzStream(createUsers,
		[]byte{fzSelect, users, 0, 1, 0, fzParam(5)}, fzArgs("alice"),
		addUser("alice", "1"),
		[]byte{fzSelect, users, 0, 1, 0, fzParam(5)}, fzArgs("alice"),
		[]byte{fzSelect, users, 0, 2, 0, fzParam(0), 2, fzParam(1)}, fzArgs("alice"),
		[]byte{fzSelect, users, 0, 2, 0, fzParam(0), 2, fzParam(1)}, fzArgs("bob"),
		[]byte{fzDelete, users, 2, 2, fzParam(1), 0, fzParam(0)}, fzArgs("alice")))
	// UPDATE renaming keys, and a key condition that is not the first.
	f.Add(fzStream(createUsers, addUser("alice", "1"), addUser("bob", "2"),
		[]byte{fzUpdate, users, 0, 0, fzLit("carol"), 1, 2, fzLit("1")}, fzArgs(),
		lookup("alice"), lookup("carol"),
		[]byte{fzSelect, users, 0, 3, 2, fzLit("2"), 0, fzLit("bob"), 0, fzLit("alice")}, fzArgs(),
		[]byte{fzDelete, users, 0}, fzArgs(), lookup("bob")))
	// Missing tables and columns.
	f.Add(fzStream(lookup("alice"), createUsers, createUsers,
		[]byte{fzSelect, users, 0, 1, fzBadCol, fzLit("1")}, fzArgs(),
		[]byte{fzUpdate, users, 0, fzBadCol, fzLit("1"), 0}, fzArgs()))

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		d, model := Open(), scanModel{}
		for step := 0; len(data) > 0; step++ {
			stmt, args := decodeStmt(next)
			got, gotErr := d.ExecStmt(stmt, args...)
			want, wantErr := model.exec(stmt, args)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Fatalf("step %d: %s %q\n engine %+v, %v\n scan   %+v, %v",
					step, stmt.SQL(), args, got, gotErr, want, wantErr)
			}
			checkIndex(t, d)
		}
		for name, mt := range model {
			res, _ := d.ExecStmt(&SelectStmt{Table: name})
			if fmt.Sprintf("%q", res.Rows) != fmt.Sprintf("%q", mt.rows) {
				t.Fatalf("%s: engine holds %q, scan %q", name, res.Rows, mt.rows)
			}
		}
	})
}

// BenchmarkSelectByKey is idd's login lookup over user tables of growing
// size; with the key index its cost does not depend on the row count.
func BenchmarkSelectByKey(b *testing.B) {
	for _, rows := range []int{256, 2000, 10000} {
		b.Run(strconv.Itoa(rows), func(b *testing.B) {
			d := Open()
			mustBench(b, d, "CREATE TABLE okws_users (name, password, uid, ut, ug)")
			for i := 0; i < rows; i++ {
				mustBench(b, d, "INSERT INTO okws_users (name, password, uid, ut, ug) VALUES (?, ?, ?, ?, ?)",
					"user"+strconv.Itoa(i), "hash", strconv.Itoa(i), "", "")
			}
			key := "user" + strconv.Itoa(rows/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Exec("SELECT password, uid, ut, ug FROM okws_users WHERE name = ?", key)
				if err != nil || len(res.Rows) != 1 {
					b.Fatalf("lookup = %v, %v", res.Rows, err)
				}
			}
		})
	}
}

func mustBench(b *testing.B, d *DB, q string, args ...string) {
	if _, err := d.Exec(q, args...); err != nil {
		b.Fatalf("%s: %v", q, err)
	}
}
