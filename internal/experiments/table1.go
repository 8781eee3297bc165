package experiments

import "fmt"

// Table1 reproduces Table 1 on the GNP, NLANR and P2PSim datasets at d=8:
// the wall time each system needs to build its full model — landmark fit
// plus the placement of every ordinary host — on one dataset. The paper's
// qualitative result: IDES (either algorithm) and ICS build models in
// well under a second while GNP's Simplex Downhill needs minutes — a gap
// of several orders of magnitude that survives any hardware change
// because it is algorithmic (closed-form solves versus iterative simplex
// search).
func Table1(scale Scale, seed int64) (Table, error) {
	tab := Table{Title: "Table 1: model construction time (landmark fit + all host placements)", Label: "dataset"}
	for _, dsName := range predictionDatasets {
		p, err := fig6Problem(dsName, scale, seed)
		if err != nil {
			return Table{}, fmt.Errorf("table1: %w", err)
		}
		row := Row{Label: dsName}
		for _, s := range systems(p, seed) {
			secs, err := timed(func() error { _, err := s.run(); return err })
			if err != nil {
				return Table{}, fmt.Errorf("table1: %s: %w", dsName, err)
			}
			row.Values = append(row.Values, secs)
			if len(tab.Rows) == 0 {
				tab.Columns = append(tab.Columns, Column{s.name, Seconds})
			}
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}
