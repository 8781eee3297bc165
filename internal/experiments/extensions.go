package experiments

import (
	"fmt"

	"github.com/ides-go/ides/internal/coord"
	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/stats"
)

// AblationMissingData hides a growing fraction of the NLANR matrix from a
// masked NMF fit (Eqs. 8–9) and scores reconstruction on both observed and
// hidden entries. The paper asserts NMF "can cope with missing values";
// this quantifies how accuracy decays with missingness. The hidden-entry
// error — the real test of §4.2's missing-data handling — is NaN where
// nothing was hidden.
func AblationMissingData(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim = 10
	n := ds.Rows()
	tab := Table{
		Title:   fmt.Sprintf("Ablation: masked NMF under missing measurements (§4.2), NLANR, d=%d", dim),
		Label:   "missing",
		Columns: []Column{{"median err (observed)", Ratio}, {"median err (hidden)", Ratio}},
	}
	for _, f := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		masked := ds.WithMissing(f, seed+int64(1000*f))
		res, err := factor.NMF(masked.D, dim, factor.NMFOptions{Seed: seed, Mask: masked.Mask})
		if err != nil {
			return Table{}, fmt.Errorf("ablation missing f=%.2f: %w", f, err)
		}
		var obs, hid []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				e := stats.RelativeError(ds.D.At(i, j), res.Estimate(i, j))
				if masked.Observed(i, j) {
					obs = append(obs, e)
				} else {
					hid = append(hid, e)
				}
			}
		}
		tab.Rows = append(tab.Rows, Row{fmt.Sprintf("%.0f%%", 100*f), []float64{
			stats.NewCDF(obs).Quantile(0.5), stats.NewCDF(hid).Quantile(0.5),
		}})
	}
	return tab, nil
}

// ExtVivaldi runs the extension comparison the paper alludes to in §2.1
// (Vivaldi is reviewed but not evaluated): plain Vivaldi, Vivaldi with
// height vectors, Lipschitz+PCA and IDES/SVD reconstructing the NLANR
// matrix at d=8 (height uses d=7+1 for a fair parameter count).
func ExtVivaldi(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim = 8
	tab := Table{
		Title:   fmt.Sprintf("Extension: Vivaldi baselines vs IDES, NLANR reconstruction, d=%d", dim),
		Label:   "system",
		Columns: []Column{{"median", Ratio}, {"p90", Ratio}},
	}
	add := func(system string, errs []float64) {
		c := stats.NewCDF(errs)
		tab.Rows = append(tab.Rows, Row{system, []float64{c.Quantile(0.5), c.Quantile(0.9)}})
	}

	svd, err := factor.SVDFactor(ds.D, dim, seed)
	if err != nil {
		return Table{}, fmt.Errorf("ext vivaldi: svd: %w", err)
	}
	add("IDES/SVD", svd.ReconstructionErrors(ds.D))

	lip, _, err := factor.FitLipschitzPCA(ds.D, dim)
	if err != nil {
		return Table{}, fmt.Errorf("ext vivaldi: lipschitz: %w", err)
	}
	add("Lipschitz+PCA", lip.ReconstructionErrors(ds.D))

	plain, err := coord.FitVivaldi(ds.D, coord.VivaldiOptions{Dim: dim, Rounds: 3000, Seed: seed})
	if err != nil {
		return Table{}, fmt.Errorf("ext vivaldi: plain: %w", err)
	}
	add("Vivaldi", plain.ReconstructionErrors(ds.D))

	height, err := coord.FitVivaldi(ds.D, coord.VivaldiOptions{Dim: dim - 1, Rounds: 3000, Seed: seed, Height: true})
	if err != nil {
		return Table{}, fmt.Errorf("ext vivaldi: height: %w", err)
	}
	add("Vivaldi+height", height.ReconstructionErrors(ds.D))
	return tab, nil
}
