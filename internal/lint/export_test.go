package lint

import (
	"fmt"
	"strings"
)

// DebugString renders the graph — every node with its summary facts and
// outgoing edges — in the deterministic order the engine guarantees.
// The 3-run byte-identical golden test pins this output.
func (g *CallGraph) DebugString() string {
	var sb strings.Builder
	for _, n := range g.Funcs {
		fmt.Fprintf(&sb, "%s [%s]\n", n.ID, n.facts.letters())
		for _, cs := range n.Calls {
			marker := "-> "
			if cs.Callee == nil {
				marker = "~> " // external: not resolved within the set
			}
			fmt.Fprintf(&sb, "  %s%s\n", marker, cs.ID)
		}
	}
	return sb.String()
}

// letters renders the fact vector compactly for DebugString:
// A=allocates, W=writes ordered output, B=blocks, C=reads clock, and
// the acquired-lock list. "-" when nothing is set.
func (f funcFacts) letters() string {
	var sb strings.Builder
	if f.allocates {
		sb.WriteByte('A')
	}
	if f.writesOrdered {
		sb.WriteByte('W')
	}
	if f.blocks {
		sb.WriteByte('B')
	}
	if f.readsClock {
		sb.WriteByte('C')
	}
	if len(f.acquires) > 0 {
		sb.WriteString("L:" + strings.Join(f.acquires, ","))
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}
