package expand

import "repro/internal/varset"

// Programs returns the programs the record holds, in compile order.
func (in *Inputs) Programs() []*Program {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*Program(nil), in.programs...)
}

// Shape returns what p was compiled for and what it binds.
func (p *Program) Shape() (have varset.Set, known []varset.Set, bound varset.Set) {
	return p.have, p.known, p.bound
}

// SetVerify installs the hook that sees every Program run on the record's
// instance. Call it before the first run.
func (in *Inputs) SetVerify(f func(p *Program, vals []Value)) { in.verify = f }
