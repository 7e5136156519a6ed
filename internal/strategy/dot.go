package strategy

import (
	"fmt"
	"strings"

	"multijoin/internal/database"
)

// DOT renders the strategy as a Graphviz digraph. Leaves are labeled
// with relation names and cardinalities; steps with their result sizes
// (the τ contributions); Cartesian-product steps are drawn dashed — the
// tree the paper draws in its figures, ready for `dot -Tsvg`.
func DOT(ev *database.Evaluator, s *Node) string {
	db := ev.Database()
	g := db.Graph()
	// Materialize the steps from their own children first, as Cost
	// does; the pre-order walk below then reads memoized sizes only.
	s.Cost(ev)
	var b strings.Builder
	b.WriteString("digraph strategy {\n")
	b.WriteString("  rankdir=BT;\n  node [fontname=\"Helvetica\"];\n")
	id := 0
	var walk func(n *Node) int
	walk = func(n *Node) int {
		my := id
		id++
		if n.IsLeaf() {
			name := db.Relation(n.Index()).Name()
			if name == "" {
				name = fmt.Sprintf("R%d", n.Index())
			}
			fmt.Fprintf(&b, "  n%d [shape=box, label=\"%s\\nτ=%d\"];\n",
				my, name, ev.Size(n.Set()))
			return my
		}
		style := ""
		label := "⋈"
		if !g.Linked(n.Left().Set(), n.Right().Set()) {
			style = ", style=dashed"
			label = "×"
		}
		fmt.Fprintf(&b, "  n%d [shape=ellipse, label=\"%s\\nτ=%d\"%s];\n",
			my, label, ev.Size(n.Set()), style)
		l := walk(n.Left())
		r := walk(n.Right())
		fmt.Fprintf(&b, "  n%d -> n%d;\n  n%d -> n%d;\n", l, my, r, my)
		return my
	}
	walk(s)
	b.WriteString("}\n")
	return b.String()
}
