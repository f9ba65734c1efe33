package rbmodel

import (
	"fmt"
	"sort"
	"strings"
)

// vectorLabel renders an intermediate state's (x_1..x_n) vector, x_1 first,
// matching the paper's notation.
func vectorLabel(mask, n int) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if mask&(1<<i) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// DOT renders the full chain in Graphviz format — the machine-checkable
// equivalent of the paper's Figure 2 (which draws the n = 3 instance).
func (m *AsyncModel) DOT() string {
	n := m.P.N()
	var b strings.Builder
	b.WriteString("digraph async_rb_model {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  label=\"Asynchronous recovery blocks: CTMC of Section 2.2 (Figure 2)\";\n")
	fmt.Fprintf(&b, "  s0 [label=\"S_r\\n(entry)\" shape=doublecircle];\n")
	fmt.Fprintf(&b, "  s%d [label=\"S_r+1\\n(absorbing)\" shape=doublecircle];\n", m.Absorbing())
	for mask := 0; mask < m.ones; mask++ {
		fmt.Fprintf(&b, "  s%d [label=\"%s\"];\n", m.StateOf(mask), vectorLabel(mask, n))
	}
	// No answer path holds the enumerated chain: enumerate the cube's rows
	// for the rendering alone.
	c := enumerate(m.P)
	for u := 0; u < m.NumStates(); u++ {
		for _, e := range c.Transitions(u) {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\"];\n", u, e.To, e.Rate)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the lumped chain — the equivalent of the paper's Figure 3.
func (m *SymmetricModel) DOT() string {
	var b strings.Builder
	b.WriteString("digraph symmetric_rb_model {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  label=\"Simplified (lumped) model of Figure 3: rules R1'-R4'\";\n")
	fmt.Fprintf(&b, "  s0 [label=\"S_r\\n(entry)\" shape=doublecircle];\n")
	fmt.Fprintf(&b, "  s%d [label=\"S_r+1\\n(absorbing)\" shape=doublecircle];\n", m.Absorbing())
	for u := 0; u <= m.N-1; u++ {
		fmt.Fprintf(&b, "  s%d [label=\"S_%d\"];\n", m.StateOf(u), u)
	}
	c := m.Chain()
	for u := 0; u < m.N+2; u++ {
		for _, e := range c.Transitions(u) {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\"];\n", u, e.To, e.Rate)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the split discrete chain — the equivalent of the paper's
// Figure 4 (which shows the split of one state for the n = 3 instance).
func (s *SplitChain) DOT() string {
	n := s.P.N()
	labels := make(map[int]string, s.numStates)
	labels[s.entry] = "S_r (entry)"
	labels[s.absorbPrime] = "S_r+1'"
	labels[s.absorbOther] = "S_r+1''"
	for mask, st := range s.idxSingle {
		labels[st] = vectorLabel(mask, n)
	}
	for mask, st := range s.idxPrime {
		labels[st] = vectorLabel(mask, n) + "'"
	}
	for mask, st := range s.idxDoublePrim {
		labels[st] = vectorLabel(mask, n) + "''"
	}
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var b strings.Builder
	b.WriteString("digraph split_chain_yd {\n")
	b.WriteString("  rankdir=LR;\n")
	fmt.Fprintf(&b, "  label=\"Discrete chain Y_d with split states for P_%d (Figure 4)\";\n", s.Target+1)
	for _, id := range ids {
		shape := "ellipse"
		if id == s.entry || id == s.absorbPrime || id == s.absorbOther {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [label=\"%s\" shape=%s];\n", id, labels[id], shape)
	}
	for _, id := range ids {
		for _, e := range s.chain.Transitions(id) {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\"];\n", id, e.To, e.Rate)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
