package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/engine"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// source names one instance of a workload's query list: a scenario family
// (or one of the two variable-count variants below) at a fixed size. Quick
// is the size the -quick tier uses.
type source struct {
	Family string
	Size   int
	Quick  int
}

func (s source) size(quick bool) int {
	if quick {
		return s.Quick
	}
	return s.Size
}

// variants are the two constructions the issue asks for at a variable count
// the scenario catalog does not list. They call the catalog's own exported
// generators; nothing is generated here.
var variants = map[string]func(scenario.Params) *query.Q{
	"paper/simple-fd-chain-6": func(p scenario.Params) *query.Q { return paper.SimpleFDChain(6, p.Size) },
	"motif/path-8":            func(p scenario.Params) *query.Q { return scenario.PathQuery(8, p.Size, p.Seed) },
}

// generate builds the family's instance at (size, seed) in internal form.
func generate(family string, size int, seed int64) (*query.Q, error) {
	p := scenario.Params{Size: size, Seed: seed}
	if build, ok := variants[family]; ok {
		return build(p), nil
	}
	for _, f := range scenario.Catalog() {
		if f.Name == family {
			return f.Build(p), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown scenario family %q", family)
}

// relDef is one relation in the form Catalog.Define takes it.
type relDef struct {
	name string
	cols []string
	rows [][]fdq.Value
}

// reference is the expected answer of one instance, computed in setup by a
// route the measured path does not take.
type reference struct {
	rows   int
	digest uint64
	first  []fdq.Value
}

// version is one generated data version of an instance: the internal query
// (for the per-layer calls), the relations to define, and the answer.
type version struct {
	size int
	seed int64
	q    *query.Q
	defs []relDef
	ref  reference
}

// instance is one query of a workload, ready to run through every surface.
type instance struct {
	label string // "family@size"
	src   source
	pub   *fdq.Q          // the public builder form
	spec  *fdqc.QuerySpec // wire form; nil when an FD is computed by an unnamed function
	ver   [2]*version     // ver[1] is set only where the workload reloads data
}

func (in *instance) inputRows() int { return in.ver[0].q.TotalSize() }

// newVersion generates one data version. Relation names are prefixed with
// id so every query of a workload can share one catalog.
func newVersion(id, family string, size int, seed int64) (*version, error) {
	q, err := generate(family, size, seed)
	if err != nil {
		return nil, err
	}
	v := &version{size: size, seed: seed, q: q}
	seen := map[string]*rel.Relation{}
	for _, r := range q.Rels {
		if !strings.HasPrefix(r.Name, id+".") {
			r.Name = id + "." + r.Name
		}
		if prev, ok := seen[r.Name]; ok {
			if !rel.Identical(prev, r) {
				return nil, fmt.Errorf("bench: %s: relation name %q reused with different data", family, r.Name)
			}
			continue
		}
		seen[r.Name] = r
		d := relDef{name: r.Name, cols: varNames(q, r.Attrs), rows: make([][]fdq.Value, r.Len())}
		for i := range d.rows {
			d.rows[i] = append([]fdq.Value(nil), r.Row(i)...)
		}
		v.defs = append(v.defs, d)
	}
	if v.ref, err = referenceAnswer(q); err != nil {
		return nil, fmt.Errorf("bench: %s@%d: reference: %w", family, size, err)
	}
	return v, nil
}

// newInstance generates the instance and its public and wire forms. With
// reload set, a second data version is generated: the next seed, and four
// more rows for the families that ignore the seed.
func newInstance(id string, src source, size int, seed int64, reload bool) (*instance, error) {
	in := &instance{label: fmt.Sprintf("%s@%d", src.Family, size), src: src}
	var err error
	if in.ver[0], err = newVersion(id, src.Family, size, seed); err != nil {
		return nil, err
	}
	if reload {
		if in.ver[1], err = newVersion(id, src.Family, size+4, seed+1); err != nil {
			return nil, err
		}
	}
	q := in.ver[0].q
	in.pub = publicQuery(id, q)
	if err := in.pub.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", in.label, err)
	}
	if spec, err := fdqc.FromQuery(q); err == nil {
		in.spec = spec
	}
	return in, nil
}

func varNames(q *query.Q, vars []int) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = q.Names[v]
	}
	return out
}

// publicQuery renders the internal query on the fdq builder. Unlike
// fdqc.FromQuery it keeps FDs computed by unnamed functions, which the
// paper's M3, Fig. 4, Fig. 5 and Fig. 9 instances need; an FD with several
// targets becomes one declaration per target, which has the same closure.
func publicQuery(id string, q *query.Q) *fdq.Q {
	b := fdq.Query().Vars(q.Names...)
	for _, r := range q.Rels {
		b.Rel(r.Name, varNames(q, r.Attrs)...)
	}
	for i, f := range q.FDs.FDs {
		from := strings.Join(varNames(q, f.From.Members()), " ")
		if f.Guarded() {
			b.FD(q.Rels[f.Guard].Name, from, strings.Join(varNames(q, f.To.Members()), " "))
			continue
		}
		for _, v := range f.To.Members() {
			if fn := f.Fns[v]; fn != nil {
				b.UDF(fmt.Sprintf("%s.fd%d.%s", id, i, q.Names[v]), from, q.Names[v], fn)
			} else {
				b.FD("", from, q.Names[v])
			}
		}
	}
	for _, d := range q.DegreeBounds {
		b.Degree(q.Rels[d.Guard].Name,
			strings.Join(varNames(q, d.X.Members()), " "),
			strings.Join(varNames(q, d.Y.Members()), " "), d.MaxDegree)
	}
	return b
}

// referenceAlgorithm is the independent route: sequential generic join,
// or the binary plan where the planner itself would pick generic join.
func referenceAlgorithm(planned engine.Algorithm) engine.Algorithm {
	if planned == engine.AlgGenericJoin {
		return engine.AlgBinary
	}
	return engine.AlgGenericJoin
}

func referenceAnswer(q *query.Q) (reference, error) {
	if err := q.Validate(); err != nil {
		return reference{}, err
	}
	prep, err := engine.Prepare(q)
	if err != nil {
		return reference{}, err
	}
	b, err := prep.Bind(nil)
	if err != nil {
		return reference{}, err
	}
	alg := referenceAlgorithm(b.Plan().Algorithm)
	out, _, err := b.Run(context.Background(), &engine.Options{Algorithm: alg, Workers: 1})
	if err != nil {
		return reference{}, err
	}
	ref := reference{rows: out.Len()}
	d := fnvOffset64
	for i := 0; i < out.Len(); i++ {
		d = d.row(out.Row(i))
	}
	ref.digest = uint64(d)
	if out.Len() > 0 {
		ref.first = append([]fdq.Value(nil), out.Row(0)...)
	}
	return ref, nil
}

// digest is FNV-64a taken over 64-bit values instead of bytes (xor the
// value in, multiply by the FNV prime): checking an answer costs far less
// than producing it, so the check can sit inside the timed round.
type digest uint64

const (
	fnvOffset64 digest = 14695981039346656037
	fnvPrime64  digest = 1099511628211
)

func (d digest) row(row []fdq.Value) digest {
	for _, v := range row {
		d = (d ^ digest(v)) * fnvPrime64
	}
	return d
}

func digestRows(rows [][]fdq.Value) uint64 {
	d := fnvOffset64
	for _, r := range rows {
		d = d.row(r)
	}
	return uint64(d)
}
