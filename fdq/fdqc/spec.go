package fdqc

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/fdq"
	"repro/internal/query"
)

// QuerySpec is a query description in wire form: the same shape the fdq
// builder describes, minus anything that cannot cross a network boundary.
// Relations are referenced by server-side catalog name; unguarded computed
// FDs travel as builtin names (the script grammar's `via` table), never as
// function values.
type QuerySpec struct {
	Vars    []string     `json:"vars"`
	Rels    []RelSpec    `json:"rels"`
	FDs     []FDSpec     `json:"fds,omitempty"`
	Degrees []DegreeSpec `json:"degrees,omitempty"`
	Limit   int          `json:"limit,omitempty"`
	Alg     string       `json:"alg,omitempty"`     // "", "auto", "chain", "sm", "csma", "generic", "binary"
	Workers int          `json:"workers,omitempty"` // 0 = server default
	Count   bool         `json:"count,omitempty"`   // COUNT-only: stream no rows, return the cardinality
}

// RelSpec binds a server catalog relation to query variables, positionally.
type RelSpec struct {
	Name string   `json:"name"`
	Vars []string `json:"vars"`
}

// FDSpec is one functional dependency. Exactly one of Guard, naming the
// enforcing relation (guarded), and Via, naming a server-side builtin UDF
// (computed), is set; a spec with neither or both is refused.
type FDSpec struct {
	Guard string   `json:"guard,omitempty"`
	From  []string `json:"from"`
	To    []string `json:"to"`
	Via   string   `json:"via,omitempty"`
}

// DegreeSpec is one prescribed degree bound within the guard relation.
type DegreeSpec struct {
	Guard string   `json:"guard"`
	X     []string `json:"x"`
	Y     []string `json:"y"`
	Max   int      `json:"max"`
}

// Query lowers the spec onto the fdq builder, resolving Via names through
// the builtin-UDF table. The server calls this to execute a received spec;
// the returned builder carries any construction error into the session the
// usual deferred way (plus builtin resolution errors surfaced here).
func (s *QuerySpec) Query() (*fdq.Q, error) {
	b := fdq.Query().Vars(s.Vars...)
	for _, r := range s.Rels {
		b.Rel(r.Name, r.Vars...)
	}
	for _, f := range s.FDs {
		from, to := strings.Join(f.From, " "), strings.Join(f.To, " ")
		if f.Via != "" {
			if f.Guard != "" {
				return nil, fmt.Errorf("fdqc: FD %s -> %s has both a guard and a via builtin", from, to)
			}
			fn, err := query.BuiltinUDF(f.Via)
			if err != nil {
				return nil, fmt.Errorf("fdqc: FD %s -> %s: %w", from, to, err)
			}
			b.UDF("builtin:"+f.Via, from, to, fn)
			continue
		}
		b.FD(f.Guard, from, to)
	}
	for _, d := range s.Degrees {
		b.Degree(d.Guard, strings.Join(d.X, " "), strings.Join(d.Y, " "), d.Max)
	}
	if s.Limit > 0 {
		b.Limit(s.Limit)
	}
	if s.Alg != "" {
		b.Alg(s.Alg)
	}
	if s.Workers > 0 {
		b.Workers(s.Workers)
	}
	return b, b.Err()
}

// SpecFromScript extracts the query of a .fdq script (vars / rel / fd /
// degree directives; row data is the server catalog's concern and is
// ignored) as a wire spec. Unguarded computed FDs must use named builtins
// — a function value has no wire form.
func SpecFromScript(src string) (*QuerySpec, error) {
	qq, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromQuery(qq)
}

// FromQuery renders an internal query representation as a wire spec (the
// converter behind SpecFromScript, shared with the conformance oracle,
// which specs scenario instances straight from their built queries). It
// fails on FDs computed by unnamed functions: only named builtins cross
// the wire.
func FromQuery(qq *query.Q) (*QuerySpec, error) {
	spec := &QuerySpec{Vars: append([]string(nil), qq.Names...)}
	for _, r := range qq.Rels {
		vars := make([]string, r.Arity())
		for i, a := range r.Attrs {
			vars[i] = qq.Names[a]
		}
		spec.Rels = append(spec.Rels, RelSpec{Name: r.Name, Vars: vars})
	}
	for _, f := range qq.FDs.FDs {
		from := names(qq, f.From.Members())
		if f.Guarded() {
			spec.FDs = append(spec.FDs, FDSpec{Guard: qq.Rels[f.Guard].Name, From: from, To: names(qq, f.To.Members())})
			continue
		}
		// Computed: split the targets by builtin name, one FDSpec per via.
		byVia := map[string][]string{}
		for _, v := range f.To.Members() {
			via := f.FnNames[v]
			if via == "" {
				return nil, fmt.Errorf("fdqc: FD onto %s computed by an unnamed function cannot cross the wire", qq.Names[v])
			}
			byVia[via] = append(byVia[via], qq.Names[v])
		}
		for _, via := range slices.Sorted(maps.Keys(byVia)) { // deterministic spec → stable shape signature
			spec.FDs = append(spec.FDs, FDSpec{From: from, To: byVia[via], Via: via})
		}
	}
	for _, d := range qq.DegreeBounds {
		spec.Degrees = append(spec.Degrees, DegreeSpec{
			Guard: qq.Rels[d.Guard].Name,
			X:     names(qq, d.X.Members()),
			Y:     names(qq, d.Y.Members()),
			Max:   d.MaxDegree,
		})
	}
	return spec, nil
}

func names(q *query.Q, vars []int) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = q.Names[v]
	}
	return out
}
