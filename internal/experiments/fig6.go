package experiments

import (
	"fmt"

	"github.com/ides-go/ides/internal/dataset"
)

// predictionDatasets are the datasets of §6, in the order of Figure 6's
// panels and Table 1's rows.
var predictionDatasets = []string{"GNP", "NLANR", "P2PSim"}

// Fig6 reproduces Figure 6: CDFs of *prediction* error (distances between
// hosts that never measured each other) for the four systems of §6 at d=8.
//
//   - dsName "GNP": 15 of the 19 GNP hosts are landmarks; the remaining 4
//     are ordinary; accuracy is evaluated on the 869 AGNP probes' distances
//     to those 4 hosts (869x4 pairs).
//   - dsName "NLANR": 20 random landmarks, 90x90 ordinary pairs.
//   - dsName "P2PSim": 20 random landmarks, 1123x1123 ordinary pairs.
//
// Paper's qualitative result: GNP wins narrowly on its own (atypical)
// dataset; IDES wins on NLANR (median ~0.03 for SVD) and on P2PSim.
func Fig6(dsName string, scale Scale, seed int64) (Table, error) {
	fig, err := panel("6", dsName, predictionDatasets...)
	if err != nil {
		return Table{}, err
	}
	p, err := fig6Problem(dsName, scale, seed)
	if err != nil {
		return Table{}, err
	}
	tab := cdfTable(fmt.Sprintf("%s: CDF of prediction error, %s, d=%d", fig, dsName, predictionDim), "system")
	for _, s := range systems(p, seed) {
		errs, err := s.run()
		if err != nil {
			return Table{}, fmt.Errorf("fig6: %w", err)
		}
		tab.Rows = append(tab.Rows, cdfRow(s.name, errs))
	}
	return tab, nil
}

// fig6Problem builds the prediction problem for one of the
// predictionDatasets.
func fig6Problem(dsName string, scale Scale, seed int64) (*predictionProblem, error) {
	if dsName == "GNP" {
		return gnpAGNPProblem(seed)
	}
	ds, err := genByName(dsName, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	lm, hosts := splitHosts(ds.Rows(), 20, seed)
	return squareProblem(ds.D, lm, hosts), nil
}

// gnpAGNPProblem builds the paper's GNP prediction setup: the 869 AGNP
// probes are sources, 4 held-out GNP hosts are destinations, and the truth
// is the probes' measured distances to those hosts.
func gnpAGNPProblem(seed int64) (*predictionProblem, error) {
	gnp, err := dataset.GenGNP(seed)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	agnp, err := dataset.GenAGNP(seed)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	lm, rest := splitHosts(gnp.Rows(), 15, seed)
	dl := submatrix(gnp.D, lm, lm)

	// Destinations: the 4 held-out GNP hosts, placed from the GNP clique.
	dstOut := submatrix(gnp.D, rest, lm)
	dstIn := submatrix(gnp.D, lm, rest).T()

	// Sources: the AGNP probes, placed from their measured distances to
	// the 15 landmark columns. Only the probe→target direction was
	// measured; it serves as both directions (the paper does the same).
	srcOut := agnp.D.SelectCols(lm)
	srcIn := srcOut

	truth := agnp.D.SelectCols(rest)

	return &predictionProblem{
		dl:     dl,
		srcOut: srcOut, srcIn: srcIn,
		dstOut: dstOut, dstIn: dstIn,
		truth: truth,
	}, nil
}
