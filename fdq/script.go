package fdq

import (
	"fmt"
	"strings"

	"repro/internal/query"
)

// ParseScript reads the .fdq text format (see internal/query.Parse for the
// grammar: vars / rel / fd / degree / row directives) and returns the data
// as a fresh Catalog plus the query as a builder ready for a Session —
// the bridge between the fdjoin CLI's file format and the public API.
func ParseScript(src string) (*Catalog, *Q, error) {
	qq, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	cat := NewCatalog()
	b := Query().Vars(qq.Names...)
	seen := map[string]bool{}
	for _, r := range qq.Rels {
		if seen[r.Name] {
			return nil, nil, fmt.Errorf("fdq: script defines relation %q twice", r.Name)
		}
		seen[r.Name] = true
		cols := make([]string, r.Arity())
		for i, a := range r.Attrs {
			cols[i] = qq.Names[a]
		}
		rows := make([][]Value, r.Len())
		for i := range rows {
			rows[i] = r.Row(i)
		}
		if err := cat.Define(r.Name, cols, rows); err != nil {
			return nil, nil, err
		}
		b.Rel(r.Name, cols...)
	}
	for i, f := range qq.FDs.FDs {
		from := strings.Join(nameList(qq, f.From.Members()), " ")
		if f.Guarded() {
			b.FD(qq.Rels[f.Guard].Name, from, strings.Join(nameList(qq, f.To.Members()), " "))
			continue
		}
		// Computed: one UDF spec per target (scripts name a builtin per fd
		// directive, so a deterministic per-target name keeps signatures
		// stable).
		for _, v := range f.To.Members() {
			b.UDF(fmt.Sprintf("script:fd%d:%s", i, qq.Names[v]), from, qq.Names[v], f.Fns[v])
		}
	}
	for _, d := range qq.DegreeBounds {
		b.Degree(qq.Rels[d.Guard].Name,
			strings.Join(nameList(qq, d.X.Members()), " "),
			strings.Join(nameList(qq, d.Y.Members()), " "), d.MaxDegree)
	}
	return cat, b, b.Err()
}

func nameList(q *query.Q, vars []int) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = q.Names[v]
	}
	return out
}
