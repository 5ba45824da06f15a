package query

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Parse reads a query with FDs, degree bounds, and data from a simple
// line-based text format:
//
//	# comment
//	vars x y z u
//	rel R(x, y)
//	rel S(y, z)
//	fd x z -> u via sum        # unguarded FD computed by a builtin UDF
//	fd y -> z guard S          # guarded FD (relation S enforces it)
//	degree R: x -> x y max 4   # degree bound guarded by R
//	row R 1 2
//	row S 2 3
//
// Builtin UDFs: sum (Σ args), first (first arg), last, pair (args packed
// base 2^20), zero. Every fd directive has exactly one of 'via' and 'guard';
// an unguarded FD with k target variables applies its UDF per target.
func Parse(src string) (*Q, error) {
	var q *Q
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]
		if key != "vars" && q == nil {
			return nil, fmt.Errorf("line %d: 'vars' must come first", lineNo)
		}
		var err error
		switch key {
		case "vars":
			if q != nil {
				return nil, fmt.Errorf("line %d: duplicate 'vars'", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: vars needs at least one name", lineNo)
			}
			q = New(fields[1:]...)
		case "rel":
			err = parseRel(q, strings.TrimSpace(line[len("rel"):]))
		case "fd":
			err = parseFD(q, strings.TrimSpace(line[len("fd"):]))
		case "degree":
			err = parseDegree(q, strings.TrimSpace(line[len("degree"):]))
		case "row":
			err = parseRow(q, fields[1:])
		default:
			err = fmt.Errorf("unknown directive %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if q == nil {
		return nil, fmt.Errorf("empty query (missing 'vars')")
	}
	return q, nil
}

func parseRel(q *Q, s string) error {
	open := strings.IndexByte(s, '(')
	close_ := strings.LastIndexByte(s, ')')
	if open < 1 || close_ < open {
		return fmt.Errorf("rel syntax: Name(v1, v2, ...)")
	}
	name := strings.TrimSpace(s[:open])
	var attrs []int
	for _, vn := range strings.Split(s[open+1:close_], ",") {
		v := q.Var(strings.TrimSpace(vn))
		if v < 0 {
			return fmt.Errorf("unknown variable %q", strings.TrimSpace(vn))
		}
		attrs = append(attrs, v)
	}
	q.AddRel(rel.New(name, attrs...))
	return nil
}

// BuiltinUDF resolves the named builtin UDF of the script grammar ("sum",
// "first", "last", "pair", "zero"). Exported for consumers that receive
// functions by name — the fdqd wire protocol ships unguarded computed FDs
// as builtin names and resolves them server-side through this table.
func BuiltinUDF(name string) (fd.UDF, error) { return builtinUDF(name) }

// builtinUDF returns a named builtin.
func builtinUDF(name string) (fd.UDF, error) {
	switch name {
	case "sum":
		return func(a []fd.Value) fd.Value {
			var s fd.Value
			for _, v := range a {
				s += v
			}
			return s
		}, nil
	case "first":
		return func(a []fd.Value) fd.Value { return a[0] }, nil
	case "last":
		return func(a []fd.Value) fd.Value { return a[len(a)-1] }, nil
	case "pair":
		return func(a []fd.Value) fd.Value {
			var s fd.Value
			for _, v := range a {
				s = s<<20 | (v & (1<<20 - 1))
			}
			return s
		}, nil
	case "zero":
		return func([]fd.Value) fd.Value { return 0 }, nil
	}
	return nil, fmt.Errorf("unknown builtin UDF %q", name)
}

func parseFD(q *Q, s string) error {
	arrow := strings.Index(s, "->")
	if arrow < 0 {
		return fmt.Errorf("fd syntax: v1 v2 -> w [via udf | guard R]")
	}
	from, err := parseVarList(q, s[:arrow])
	if err != nil {
		return err
	}
	rest := strings.Fields(strings.TrimSpace(s[arrow+2:]))
	var toNames []string
	guard := -1
	var udf fd.UDF
	var udfName string
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case "via":
			if i+1 >= len(rest) {
				return fmt.Errorf("'via' needs a UDF name")
			}
			udf, err = builtinUDF(rest[i+1])
			if err != nil {
				return err
			}
			udfName = rest[i+1]
			i++
		case "guard":
			if i+1 >= len(rest) {
				return fmt.Errorf("'guard' needs a relation name")
			}
			guard = relIndex(q, rest[i+1])
			if guard < 0 {
				return fmt.Errorf("unknown relation %q", rest[i+1])
			}
			i++
		default:
			toNames = append(toNames, rest[i])
		}
	}
	if len(toNames) == 0 {
		return fmt.Errorf("fd needs at least one target variable")
	}
	if (udf == nil) == (guard < 0) {
		return fmt.Errorf("fd %s: needs exactly one of 'via udf' (computed) and 'guard R' (guarded)", s)
	}
	to := varset.Empty
	fns := map[int]fd.UDF{}
	names := map[int]string{}
	for _, tn := range toNames {
		v := q.Var(strings.Trim(tn, ","))
		if v < 0 {
			return fmt.Errorf("unknown variable %q", tn)
		}
		to = to.Add(v)
		if udf != nil {
			fns[v] = udf
			names[v] = udfName
		}
	}
	if udf == nil {
		fns, names = nil, nil
	}
	q.FDs.Add(from, to, guard, fns)
	q.FDs.FDs[len(q.FDs.FDs)-1].FnNames = names
	q.invalidate()
	return nil
}

func parseDegree(q *Q, s string) error {
	// "R: x -> x y max 4"
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return fmt.Errorf("degree syntax: R: x -> x y max 4")
	}
	guard := relIndex(q, strings.TrimSpace(s[:colon]))
	if guard < 0 {
		return fmt.Errorf("unknown relation in degree bound")
	}
	rest := s[colon+1:]
	arrow := strings.Index(rest, "->")
	maxIdx := strings.LastIndex(rest, "max")
	if arrow < 0 || maxIdx < arrow {
		return fmt.Errorf("degree syntax: R: x -> x y max 4")
	}
	x, err := parseVarList(q, rest[:arrow])
	if err != nil {
		return err
	}
	y, err := parseVarList(q, rest[arrow+2:maxIdx])
	if err != nil {
		return err
	}
	d, err := strconv.Atoi(strings.TrimSpace(rest[maxIdx+3:]))
	if err != nil {
		return fmt.Errorf("bad max degree: %w", err)
	}
	q.AddDegreeBound(x, y, d, guard)
	return nil
}

func parseRow(q *Q, fields []string) error {
	if len(fields) < 1 {
		return fmt.Errorf("row syntax: row R v1 v2 ...")
	}
	j := relIndex(q, fields[0])
	if j < 0 {
		return fmt.Errorf("unknown relation %q", fields[0])
	}
	r := q.Rels[j]
	if len(fields)-1 != r.Arity() {
		return fmt.Errorf("relation %s has arity %d, got %d values", r.Name, r.Arity(), len(fields)-1)
	}
	t := make(rel.Tuple, r.Arity())
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", f, err)
		}
		t[i] = v
	}
	r.AddTuple(t)
	return nil
}

func parseVarList(q *Q, s string) (varset.Set, error) {
	out := varset.Empty
	for _, f := range strings.Fields(strings.ReplaceAll(s, ",", " ")) {
		v := q.Var(f)
		if v < 0 {
			return 0, fmt.Errorf("unknown variable %q", f)
		}
		out = out.Add(v)
	}
	if out.IsEmpty() {
		return 0, fmt.Errorf("empty variable list")
	}
	return out, nil
}

func relIndex(q *Q, name string) int {
	for j, r := range q.Rels {
		if r.Name == name {
			return j
		}
	}
	return -1
}
