package db

import (
	"fmt"
	"sort"
	"sync"
)

// DB is an in-memory relational database. It is safe for concurrent use,
// though the Asbestos deployment serializes access through the ok-dbproxy
// process anyway.
type DB struct {
	mu     sync.Mutex
	tables map[string]*table
}

type table struct {
	name string
	cols []string
	// colIdx maps column name to row offset.
	colIdx map[string]int
	rows   [][]string
	// keys maps each value of column 0 to the ascending positions of the
	// rows holding it. INSERT appends to it; an UPDATE that writes column 0
	// or a DELETE that removes rows rebuilds it.
	keys map[string][]int
}

// Result is the outcome of a statement.
type Result struct {
	Cols     []string
	Rows     [][]string
	Affected int
}

// Open creates an empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*table)}
}

// Exec parses and executes a statement with positional arguments.
func (db *DB) Exec(query string, args ...string) (Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return Result{}, err
	}
	return db.ExecStmt(stmt, args...)
}

// ExecStmt executes an already-parsed (possibly rewritten) statement.
func (db *DB) ExecStmt(stmt Stmt, args ...string) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := stmt.(type) {
	case *CreateStmt:
		return db.create(s)
	case *InsertStmt:
		return db.insert(s, args)
	case *SelectStmt:
		return db.selectRows(s, args)
	case *UpdateStmt:
		return db.update(s, args)
	case *DeleteStmt:
		return db.deleteRows(s, args)
	default:
		return Result{}, fmt.Errorf("db: unknown statement type %T", stmt)
	}
}

// Tables lists table names (diagnostics).
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Columns returns a table's column names.
func (db *DB) Columns(tbl string) ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[tbl]
	if t == nil {
		return nil, fmt.Errorf("db: no such table %q", tbl)
	}
	return append([]string(nil), t.cols...), nil
}

func (db *DB) create(s *CreateStmt) (Result, error) {
	if db.tables[s.Table] != nil {
		return Result{}, fmt.Errorf("db: table %q already exists", s.Table)
	}
	if len(s.Cols) == 0 {
		return Result{}, fmt.Errorf("db: table %q needs at least one column", s.Table)
	}
	t := &table{name: s.Table, cols: append([]string(nil), s.Cols...),
		colIdx: make(map[string]int), keys: make(map[string][]int)}
	for i, c := range t.cols {
		if _, dup := t.colIdx[c]; dup {
			return Result{}, fmt.Errorf("db: duplicate column %q", c)
		}
		t.colIdx[c] = i
	}
	db.tables[s.Table] = t
	return Result{}, nil
}

func (db *DB) table(name string) (*table, error) {
	t := db.tables[name]
	if t == nil {
		return nil, fmt.Errorf("db: no such table %q", name)
	}
	return t, nil
}

func (db *DB) insert(s *InsertStmt, args []string) (Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	row := make([]string, len(t.cols))
	for i, col := range s.Cols {
		idx, ok := t.colIdx[col]
		if !ok {
			return Result{}, fmt.Errorf("db: no column %q in %q", col, s.Table)
		}
		v, err := s.Vals[i].resolve(args)
		if err != nil {
			return Result{}, err
		}
		row[idx] = v
	}
	t.keys[row[0]] = append(t.keys[row[0]], len(t.rows))
	t.rows = append(t.rows, row)
	return Result{Affected: 1}, nil
}

// reindex rebuilds the key index from the rows.
func (t *table) reindex() {
	t.keys = make(map[string][]int, len(t.rows))
	for i, row := range t.rows {
		t.keys[row[0]] = append(t.keys[row[0]], i)
	}
}

// validateWhere checks condition columns exist (even when the table is
// empty, so bad queries fail deterministically).
func (t *table) validateWhere(where []Cond) error {
	for _, c := range where {
		if _, ok := t.colIdx[c.Col]; !ok {
			return fmt.Errorf("db: no column %q in %q", c.Col, t.name)
		}
	}
	return nil
}

// match evaluates a WHERE conjunction against a row.
func (t *table) match(row []string, where []Cond, args []string) (bool, error) {
	for _, c := range where {
		idx, ok := t.colIdx[c.Col]
		if !ok {
			return false, fmt.Errorf("db: no column %q in %q", c.Col, t.name)
		}
		v, err := c.Val.resolve(args)
		if err != nil {
			return false, err
		}
		if row[idx] != v {
			return false, nil
		}
	}
	return true, nil
}

// each calls fn, in row order, with every row the WHERE conjunction
// matches and its position. A conjunction with an equality on column 0,
// all of whose parameters resolve, visits only that key's rows. Any other
// scans; an unresolvable parameter then errors once a row reaches its
// condition, which is before any row has matched.
func (t *table) each(where []Cond, args []string, fn func(i int, row []string)) error {
	if pos, ok := t.lookup(where, args); ok {
		for _, i := range pos {
			if ok, _ := t.match(t.rows[i], where, args); ok {
				fn(i, t.rows[i])
			}
		}
		return nil
	}
	for i, row := range t.rows {
		ok, err := t.match(row, where, args)
		if err != nil {
			return err
		}
		if ok {
			fn(i, row)
		}
	}
	return nil
}

// lookup returns the index entry for the conjunction's first equality on
// column 0, if it has one and every parameter in it resolves.
func (t *table) lookup(where []Cond, args []string) ([]int, bool) {
	key, keyed := "", false
	for _, c := range where {
		v, err := c.Val.resolve(args)
		if err != nil {
			return nil, false
		}
		if !keyed && c.Col == t.cols[0] {
			key, keyed = v, true
		}
	}
	if !keyed {
		return nil, false
	}
	return t.keys[key], true
}

func (db *DB) selectRows(s *SelectStmt, args []string) (Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := t.validateWhere(s.Where); err != nil {
		return Result{}, err
	}
	outCols := s.Cols
	if outCols == nil {
		outCols = t.cols
	}
	idxs := make([]int, len(outCols))
	for i, c := range outCols {
		idx, ok := t.colIdx[c]
		if !ok {
			return Result{}, fmt.Errorf("db: no column %q in %q", c, s.Table)
		}
		idxs[i] = idx
	}
	res := Result{Cols: append([]string(nil), outCols...)}
	err = t.each(s.Where, args, func(_ int, row []string) {
		out := make([]string, len(idxs))
		for i, idx := range idxs {
			out[i] = row[idx]
		}
		res.Rows = append(res.Rows, out)
	})
	if err != nil {
		return Result{}, err
	}
	res.Affected = len(res.Rows)
	return res, nil
}

func (db *DB) update(s *UpdateStmt, args []string) (Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := t.validateWhere(s.Where); err != nil {
		return Result{}, err
	}
	type setOp struct {
		idx int
		val string
	}
	ops := make([]setOp, len(s.Set))
	setsKey := false
	for i, a := range s.Set {
		idx, ok := t.colIdx[a.Col]
		if !ok {
			return Result{}, fmt.Errorf("db: no column %q in %q", a.Col, s.Table)
		}
		v, err := a.Val.resolve(args)
		if err != nil {
			return Result{}, err
		}
		ops[i] = setOp{idx, v}
		setsKey = setsKey || idx == 0
	}
	n := 0
	err = t.each(s.Where, args, func(_ int, row []string) {
		for _, op := range ops {
			row[op.idx] = op.val
		}
		n++
	})
	if err != nil {
		return Result{}, err
	}
	if setsKey && n > 0 {
		t.reindex()
	}
	return Result{Affected: n}, nil
}

func (db *DB) deleteRows(s *DeleteStmt, args []string) (Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := t.validateWhere(s.Where); err != nil {
		return Result{}, err
	}
	var drop []int // ascending
	err = t.each(s.Where, args, func(i int, _ []string) { drop = append(drop, i) })
	if err != nil || len(drop) == 0 {
		return Result{}, err
	}
	kept, next := t.rows[:0], drop
	for i, row := range t.rows {
		if len(next) > 0 && next[0] == i {
			next = next[1:]
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	t.reindex()
	return Result{Affected: len(drop)}, nil
}
