// Command igraph exposes the theory toolkit of §3-§4: it renders the
// indistinguishability graphs of Figure 2 (text or Graphviz DOT), the Table 1
// catalog of adjusted data types, the Figure 3 adjustment lattice (verified
// against Definition 1), and the scalability analyses (consensus number via
// Theorem 1, the Corollary 1 permissive check, the Proposition 1/2
// conflict-freedom predicates).
//
// Usage:
//
//	igraph -fig 2 [-dot]
//	igraph -fig 3
//	igraph -table 1
//	igraph -analyze C3   (any of C1..C3, S1..S3, Q1, R1, R2, M1, M2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/adjusted-objects/dego/internal/igraph"
	"github.com/adjusted-objects/dego/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "igraph:", err)
		os.Exit(1)
	}
}

// run renders what args ask for to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("igraph", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure to render: 2 or 3")
	table := fs.String("table", "", "table to render: 1")
	analyze := fs.String("analyze", "", "data type to analyze (C1..C3, S1..S3, Q1, R1, R2, M1, M2)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text (figure 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	did := false
	if *fig == "2" {
		figure2(w, *dot)
		did = true
	}
	if *fig == "3" {
		if err := figure3(w); err != nil {
			return err
		}
		did = true
	}
	if *table == "1" {
		table1(w)
		did = true
	}
	if *analyze != "" {
		if err := analyzeType(w, *analyze); err != nil {
			return err
		}
		did = true
	}
	if !did {
		figure2(w, false)
		if err := figure3(w); err != nil {
			return err
		}
		table1(w)
	}
	return nil
}

// figure2 renders the three panels of Figure 2.
func figure2(w io.Writer, dot bool) {
	r := spec.Ref(spec.R1)
	s := spec.Set(spec.S1)
	c := spec.Counter(spec.C1)
	panels := []struct {
		name string
		g    *igraph.Graph
	}{
		{"Reference", igraph.New([]*spec.Op{r.Op("set", 1), r.Op("set", 2), r.Op("get")}, r.Init)},
		{"Set", igraph.New([]*spec.Op{s.Op("add", 1), s.Op("add", 1), s.Op("contains", 1)}, s.Init)},
		{"Counter", igraph.New([]*spec.Op{c.Op("rmw", 1), c.Op("rmw", 3), c.Op("rmw", 5)}, c.Init)},
	}
	fmt.Fprintln(w, "=== Figure 2: indistinguishability graphs G({a,b,c}) ===")
	fmt.Fprintln(w)
	for _, p := range panels {
		if dot {
			fmt.Fprintln(w, p.g.DOT(p.name))
		} else {
			fmt.Fprintln(w, p.g.Summary(p.name))
		}
	}
}

// figure3 renders and verifies the adjustment lattice.
func figure3(w io.Writer) error {
	l := spec.Figure3()
	fmt.Fprintln(w, "=== Figure 3: adjustments (subtyping p/r, deletion d, access c/m) ===")
	fmt.Fprintln(w)
	for _, e := range l.Edges {
		fmt.Fprintf(w, "  %s\n", e)
	}
	fmt.Fprintf(w, "\nverifying Definition 1 on every edge and path... ")
	if err := l.Verify(spec.DefaultCheckConfig()); err != nil {
		return err
	}
	fmt.Fprintln(w, "OK")
	fmt.Fprintln(w)
	return nil
}

// table1 renders the catalog in the paper's Hoare-logic layout, then the
// computed per-type analyses.
func table1(w io.Writer) {
	fmt.Fprintln(w, "=== Table 1: adjusted data types ===")
	fmt.Fprintln(w)
	fmt.Fprint(w, spec.FormatTable1())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Computed properties:")
	opts := igraph.DefaultSearchOpts()
	for _, dt := range spec.AllCatalogTypes() {
		cn := igraph.ConsensusNumber(dt, opts)
		cnStr := fmt.Sprintf("%d", cn.CN)
		if !cn.Exact {
			cnStr = fmt.Sprintf("≥%d", cn.CN)
		}
		fmt.Fprintf(w, "%-4s ops=%v readable=%v permissive=%v CN=%s\n",
			dt.Name, dt.OpNames(), dt.Readable, igraph.Permissive(dt, opts), cnStr)
	}
	fmt.Fprintln(w)
}

// analyzeType prints the full analysis of one catalog type.
func analyzeType(w io.Writer, name string) error {
	var dt *spec.DataType
	for _, t := range spec.AllCatalogTypes() {
		if t.Name == name {
			dt = t
			break
		}
	}
	if dt == nil {
		return fmt.Errorf("unknown data type %q", name)
	}
	opts := igraph.DefaultSearchOpts()
	fmt.Fprintf(w, "=== Analysis of %s ===\n\n", dt.Name)
	fmt.Fprintf(w, "operations:        %v\n", dt.OpNames())
	fmt.Fprintf(w, "readable:          %v\n", dt.Readable)
	cn := igraph.ConsensusNumber(dt, opts)
	fmt.Fprintf(w, "consensus number:  %d (exact=%v)", cn.CN, cn.Exact)
	if cn.Witness != "" {
		fmt.Fprintf(w, "  witness: %s", cn.Witness)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "permissive (Cor.1): %v\n", igraph.Permissive(dt, opts))
	fmt.Fprintf(w, "D(2,l):            l=%d\n", igraph.Distinguish(dt, 2, opts))
	fmt.Fprintf(w, "D(3,l):            l=%d\n", igraph.Distinguish(dt, 3, opts))
	fmt.Fprintf(w, "conflict-free (Prop.2, |B|=2): %v\n", igraph.ConflictFreeLongLived(dt, opts))
	oneShot := opts
	oneShot.OneShot = true
	fmt.Fprintf(w, "conflict-free one-shot (Prop.1, |B|=2): %v\n", igraph.ConflictFreeOneShot(dt, 2, oneShot))
	for _, opName := range dt.OpNames() {
		var gen *spec.Op
		switch {
		case dt.HasOp(opName):
			gen = dt.Op(opName, 1, 1)
		}
		fmt.Fprintf(w, "  %-10s left-mover=%-5v right-mover=%v\n",
			opName, igraph.LeftMover(dt, gen, opts), igraph.RightMover(dt, gen, opts))
	}
	return nil
}
