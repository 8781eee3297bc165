package experiments

import (
	"fmt"

	"github.com/ides-go/ides/internal/factor"
)

// Fig2 reproduces Figure 2: the CDF of SVD reconstruction relative error
// at d=10 over all five datasets. The paper's qualitative result: GNP is
// easiest (90% of pairs within ~9%), NLANR next (90% within ~15%), and
// P2PSim/PL-RTT hardest (90th percentile around 50%).
func Fig2(scale Scale, seed int64) (Table, error) {
	const dim = 10
	tab := cdfTable(fmt.Sprintf("Figure 2: CDF of SVD reconstruction relative error, d=%d", dim), "dataset")
	for _, name := range []string{"NLANR", "GNP", "AGNP", "PL-RTT", "P2PSim"} {
		ds, err := genByName(name, scale, seed)
		if err != nil {
			return Table{}, fmt.Errorf("fig2: %w", err)
		}
		f, err := factor.SVDFactor(ds.D, dim, seed)
		if err != nil {
			return Table{}, fmt.Errorf("fig2: %s: %w", name, err)
		}
		tab.Rows = append(tab.Rows, cdfRow(name, f.ReconstructionErrors(ds.D)))
	}
	return tab, nil
}
