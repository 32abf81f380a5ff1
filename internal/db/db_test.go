package db

import (
	"strings"
	"testing"
)

func mustExec(t *testing.T, d *DB, q string, args ...string) Result {
	t.Helper()
	res, err := d.Exec(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE users (name, password, uid)")
	mustExec(t, d, "INSERT INTO users (name, password, uid) VALUES ('alice', 'secret', '1')")
	mustExec(t, d, "INSERT INTO users (name, password, uid) VALUES (?, ?, ?)", "bob", "hunter2", "2")

	res := mustExec(t, d, "SELECT * FROM users")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res = mustExec(t, d, "SELECT uid FROM users WHERE name = ? AND password = ?", "bob", "hunter2")
	if len(res.Rows) != 1 || res.Rows[0][0] != "2" {
		t.Fatalf("lookup = %v", res.Rows)
	}
	res = mustExec(t, d, "SELECT uid FROM users WHERE name = 'alice' AND password = 'wrong'")
	if len(res.Rows) != 0 {
		t.Fatal("wrong password matched")
	}
}

func TestUpdateDelete(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE kv (k, v)")
	mustExec(t, d, "INSERT INTO kv (k, v) VALUES ('a', '1')")
	mustExec(t, d, "INSERT INTO kv (k, v) VALUES ('b', '2')")
	res := mustExec(t, d, "UPDATE kv SET v = '9' WHERE k = 'a'")
	if res.Affected != 1 {
		t.Fatalf("update affected %d", res.Affected)
	}
	res = mustExec(t, d, "SELECT v FROM kv WHERE k = 'a'")
	if res.Rows[0][0] != "9" {
		t.Fatalf("v = %q", res.Rows[0][0])
	}
	res = mustExec(t, d, "DELETE FROM kv WHERE k = 'b'")
	if res.Affected != 1 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	if res := mustExec(t, d, "SELECT * FROM kv"); len(res.Rows) != 1 {
		t.Fatalf("rows after delete = %d", len(res.Rows))
	}
	// UPDATE/DELETE with no WHERE touch everything.
	mustExec(t, d, "INSERT INTO kv (k, v) VALUES ('c', '3')")
	if res := mustExec(t, d, "UPDATE kv SET v = '0'"); res.Affected != 2 {
		t.Fatalf("update-all affected %d", res.Affected)
	}
	if res := mustExec(t, d, "DELETE FROM kv"); res.Affected != 2 {
		t.Fatalf("delete-all affected %d", res.Affected)
	}
}

func TestErrors(t *testing.T) {
	d := Open()
	cases := []string{
		"SELECT * FROM missing",
		"DROP TABLE x",
		"CREATE TABLE t ()",
		"INSERT INTO missing (a) VALUES ('1')",
		"SELECT nope FROM t2",
	}
	mustExec(t, d, "CREATE TABLE t2 (a)")
	for _, q := range cases {
		if _, err := d.Exec(q); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
	if _, err := d.Exec("CREATE TABLE t2 (a)"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := d.Exec("CREATE TABLE t3 (a, a)"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := d.Exec("INSERT INTO t2 (a) VALUES (?)"); err == nil {
		t.Error("missing parameter accepted")
	}
	if _, err := d.Exec("SELECT * FROM t2 WHERE nosuch = '1'"); err == nil {
		t.Error("bad where column accepted")
	}
}

func TestQuotingAndEscapes(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE q (v)")
	mustExec(t, d, "INSERT INTO q (v) VALUES ('it''s quoted')")
	res := mustExec(t, d, "SELECT v FROM q")
	if res.Rows[0][0] != "it's quoted" {
		t.Fatalf("v = %q", res.Rows[0][0])
	}
	// Parameters defeat injection: the value is data, not SQL.
	inj := "x' OR '1'='1"
	mustExec(t, d, "INSERT INTO q (v) VALUES (?)", inj)
	res = mustExec(t, d, "SELECT v FROM q WHERE v = ?", inj)
	if len(res.Rows) != 1 || res.Rows[0][0] != inj {
		t.Fatalf("injection roundtrip = %v", res.Rows)
	}
}

func TestTypeAnnotationsIgnored(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE typed (id INTEGER, name TEXT, age INTEGER)")
	cols, err := d.Columns("typed")
	if err != nil || len(cols) != 3 || cols[0] != "id" || cols[1] != "name" {
		t.Fatalf("cols = %v, %v", cols, err)
	}
}

func TestCaseInsensitiveKeywordsLowercaseIdents(t *testing.T) {
	d := Open()
	mustExec(t, d, "create table MiXeD (Aa, Bb)")
	mustExec(t, d, "insert into mixed (aa, bb) values ('1', '2')")
	res := mustExec(t, d, "SELECT AA FROM MIXED WHERE BB = '2'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParseRoundTrip(t *testing.T) {
	queries := []string{
		"CREATE TABLE t (a, b)",
		"INSERT INTO t (a, b) VALUES ('x', ?)",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = '1' AND b = ?",
		"UPDATE t SET a = '2' WHERE b = '3'",
		"DELETE FROM t WHERE a = ?",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		re, err := Parse(stmt.SQL())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", stmt.SQL(), q, err)
		}
		if re.SQL() != stmt.SQL() {
			t.Errorf("round trip unstable: %q → %q", stmt.SQL(), re.SQL())
		}
	}
}

func TestASTRewriting(t *testing.T) {
	// The ok-dbproxy pattern: parse a worker query, inject the private
	// user-ID column, execute.
	d := Open()
	mustExec(t, d, "CREATE TABLE notes (text, _uid)")
	stmt, err := Parse("INSERT INTO notes (text) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	ins.Cols = append(ins.Cols, "_uid")
	ins.Vals = append(ins.Vals, Lit("42"))
	if _, err := d.ExecStmt(ins, "hello"); err != nil {
		t.Fatal(err)
	}
	sel := &SelectStmt{Table: "notes", Where: []Cond{{Col: "_uid", Val: Lit("42")}}}
	res, err := d.ExecStmt(sel)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "hello" {
		t.Fatalf("rewritten select = %v, %v", res, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"INSERT INTO t VALUES ('x')",
		"INSERT INTO t (a, b) VALUES ('x')",
		"UPDATE t WHERE a = '1'",
		"DELETE t",
		"SELECT * FROM t WHERE a > '1'",
		"SELECT * FROM t; DROP TABLE t",
		"CREATE TABLE t (a", // unterminated
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q: expected parse error", q)
		}
	}
}

func TestNumbersAsLiterals(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE n (v)")
	mustExec(t, d, "INSERT INTO n (v) VALUES (42)")
	mustExec(t, d, "INSERT INTO n (v) VALUES (-3.5)")
	res := mustExec(t, d, "SELECT v FROM n WHERE v = 42")
	if len(res.Rows) != 1 || res.Rows[0][0] != "42" {
		t.Fatalf("numeric literal = %v", res.Rows)
	}
}

func TestTables(t *testing.T) {
	d := Open()
	mustExec(t, d, "CREATE TABLE b (x)")
	mustExec(t, d, "CREATE TABLE a (x)")
	got := d.Tables()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tables = %v", got)
	}
	if _, err := d.Columns("zzz"); err == nil {
		t.Error("Columns of missing table should error")
	}
}

func TestLargeScanCost(t *testing.T) {
	// Sanity: a few thousand rows still work, and WHERE narrows correctly
	// both through the key index (k) and by scanning (v).
	d := Open()
	mustExec(t, d, "CREATE TABLE big (k, v)")
	for i := 0; i < 5000; i++ {
		mustExec(t, d, "INSERT INTO big (k, v) VALUES (?, ?)",
			"key"+itoa(i), "val"+itoa(i))
	}
	res := mustExec(t, d, "SELECT v FROM big WHERE k = ?", "key4999")
	if len(res.Rows) != 1 || res.Rows[0][0] != "val4999" {
		t.Fatalf("indexed = %v", res.Rows)
	}
	res = mustExec(t, d, "SELECT k FROM big WHERE v = ?", "val4998")
	if len(res.Rows) != 1 || res.Rows[0][0] != "key4998" {
		t.Fatalf("scan = %v", res.Rows)
	}
}

func itoa(i int) string {
	var b strings.Builder
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append(digits, byte('0'+i%10))
		i /= 10
	}
	for j := len(digits) - 1; j >= 0; j-- {
		b.WriteByte(digits[j])
	}
	return b.String()
}

func BenchmarkLookupByUsername(b *testing.B) {
	d := Open()
	d.Exec("CREATE TABLE users (name, password, uid)")
	for i := 0; i < 10000; i++ {
		d.Exec("INSERT INTO users (name, password, uid) VALUES (?, ?, ?)",
			"user"+itoa(i), "pw", itoa(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Exec("SELECT uid FROM users WHERE name = ? AND password = ?", "user9999", "pw")
	}
}
