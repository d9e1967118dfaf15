package dtmc

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the kernel in Graphviz DOT format, naming state id by
// label(id) and labelling each edge with its transition probability. A
// state whose only edge is a self-loop is absorbing: it is drawn as a
// double circle and its self-loop is left out. Every other state prints
// all its compiled edges, zero-valued ones included. This reproduces the
// paper's Figs. 4 and 5 style diagrams.
func (k *Kernel) WriteDOT(w io.Writer, title string, label func(id int) string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=LR;\n")
	for id := 0; id < k.n; id++ {
		shape := "circle"
		if k.absorbing(id) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [label=%q shape=%s];\n", id, label(id), shape)
	}
	for id := 0; id < k.n; id++ {
		if k.absorbing(id) {
			continue
		}
		cols, vals := k.mat.Row(id)
		for e, to := range cols {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\"];\n", id, to, vals[e])
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// absorbing reports whether state id's only edge is a self-loop. The test
// is structural: a validated row with one edge carries probability one.
func (k *Kernel) absorbing(id int) bool {
	cols, _ := k.mat.Row(id)
	return len(cols) == 1 && cols[0] == id
}
