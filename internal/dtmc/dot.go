package dtmc

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the chain in Graphviz DOT format, labelling each edge
// with its transition probability. Absorbing states are drawn as double
// circles. This reproduces the paper's Figs. 4 and 5 style diagrams.
func (c *Chain) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=LR;\n")
	for id, name := range c.names {
		shape := "circle"
		if c.absorbing[id] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [label=%q shape=%s];\n", id, name, shape)
	}
	for id := range c.names {
		for _, tr := range c.out[id] {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\"];\n", id, tr.To, tr.Prob)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
