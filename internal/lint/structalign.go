package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// structalignThreshold is the minimum per-instance savings (bytes) worth a
// report. Small wins on cold one-off structs are not worth disturbing a
// declaration order chosen for readability; hot structs allocated in
// bulk (rows, index nodes, per-morsel state) are.
const structalignThreshold = 8

// Structalign reports struct types whose field order wastes at least
// structalignThreshold bytes per instance to alignment padding, compared
// with the best order achievable by sorting fields by descending
// alignment/size. The stdlib-only stand-in for x/tools' fieldalignment
// analyzer (unavailable: this module is dependency-free), scoped to where
// it pays: structs with any struct tag are exempt (declaration order is
// their serialization order — reordering a wire struct changes committed
// JSON artifacts), and deliberate cache-line or readability layouts keep
// their order with a //lint:ignore stating so.
var Structalign = &Analyzer{
	Name: "structalign",
	Doc:  "struct field order should not waste ≥8 bytes per instance to padding (reorder by descending alignment, or annotate the deliberate layout)",
	Run:  runStructalign,
}

func runStructalign(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil || len(st.Fields.List) < 2 {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag != nil {
					return true // serialized struct: order is part of the format
				}
			}
			tv, ok := pass.TypesInfo.Types[ts.Type]
			if !ok {
				return true
			}
			s, ok := tv.Type.Underlying().(*types.Struct)
			if !ok || s.NumFields() < 2 {
				return true
			}
			cur := structSize(pass.Sizes, fieldsOf(s))
			best := structSize(pass.Sizes, optimalOrder(pass.Sizes, fieldsOf(s)))
			if cur-best >= structalignThreshold {
				pass.Reportf(ts.Pos(), "struct %s wastes %d bytes per instance to padding (%d now, %d reordered): sort fields by descending alignment, or annotate the deliberate layout",
					ts.Name.Name, cur-best, cur, best)
			}
			return true
		})
	}
	return nil
}

func fieldsOf(s *types.Struct) []*types.Var {
	out := make([]*types.Var, s.NumFields())
	for i := range out {
		out[i] = s.Field(i)
	}
	return out
}

// structSize computes the gc layout size of fields in the given order:
// each field at the next offset aligned to its alignment, the total
// rounded up to the struct's alignment, with the gc rule that a trailing
// zero-sized field occupies one byte (so a past-the-end pointer to it
// stays inside the object).
func structSize(sizes types.Sizes, fields []*types.Var) int64 {
	var off, maxAlign int64 = 0, 1
	for i, f := range fields {
		a := sizes.Alignof(f.Type())
		sz := sizes.Sizeof(f.Type())
		if a > maxAlign {
			maxAlign = a
		}
		off = align(off, a)
		if sz == 0 && i == len(fields)-1 {
			sz = 1
		}
		off += sz
	}
	return align(off, maxAlign)
}

func align(off, a int64) int64 {
	if a <= 0 {
		return off
	}
	return (off + a - 1) / a * a
}

// optimalOrder returns fields sorted for minimal padding: zero-sized
// fields first (so none lands at the end and costs a byte), then by
// descending alignment, then descending size — the same greedy ordering
// x/tools' fieldalignment uses, optimal for gc's power-of-two alignments.
func optimalOrder(sizes types.Sizes, fields []*types.Var) []*types.Var {
	out := append([]*types.Var(nil), fields...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := sizes.Sizeof(out[i].Type()), sizes.Sizeof(out[j].Type())
		if (si == 0) != (sj == 0) {
			return si == 0
		}
		ai, aj := sizes.Alignof(out[i].Type()), sizes.Alignof(out[j].Type())
		if ai != aj {
			return ai > aj
		}
		return si > sj
	})
	return out
}
