// Package dataset synthesizes the five evaluation datasets used by the
// paper and provides loading, saving and characterization utilities.
//
// The real datasets (NLANR AMP 2003, GNP/AGNP 2001, P2PSim King
// measurements, PlanetLab all-pairs pings 2004) are unobtainable offline;
// each generator reproduces the corresponding dataset's shape, geography
// and noise process on a synthetic transit-stub topology; each generator's
// comment states what it stands in for.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/measure"
	"github.com/ides-go/ides/internal/topology"
)

// Dataset is a named distance matrix, square (clique measurements) or
// rectangular (probes x targets), with an observation mask.
type Dataset struct {
	Name string
	// D holds RTTs in milliseconds. Rows are sources, columns destinations.
	D *mat.Dense
	// Mask is 1 where D is observed. A nil mask means fully observed.
	Mask *mat.Dense
	// Symmetric records whether the measurement process was symmetric.
	Symmetric bool
}

// Rows returns the number of source hosts.
func (d *Dataset) Rows() int { return d.D.Rows() }

// Cols returns the number of destination hosts.
func (d *Dataset) Cols() int { return d.D.Cols() }

// Square reports whether the dataset is a square clique matrix.
func (d *Dataset) Square() bool { return d.D.Rows() == d.D.Cols() }

// Observed reports whether entry (i,j) was measured.
func (d *Dataset) Observed(i, j int) bool {
	return d.Mask == nil || d.Mask.At(i, j) != 0
}

// GenNLANR emulates the NLANR AMP clique: 110 well-provisioned HPC sites,
// ~90% in North America, distances taken as the minimum of a day of pings
// (1440 samples/pair). Low jitter survives the min, and mild routing
// inflation gives the easy-but-not-exact shape of Fig. 2.
func GenNLANR(seed int64) (*Dataset, error) {
	topo, err := topology.Generate(topology.Config{
		Seed:              seed,
		NumHosts:          110,
		ContinentWeights:  []float64{0.9, 0.06, 0.04},
		HostsPerStub:      1, // each AMP monitor is its own site
		InflationProb:     0.35,
		InflationMax:      0.5,
		StubInflationProb: 0.3,
		StubInflationMax:  0.25,
	})
	if err != nil {
		return nil, fmt.Errorf("nlanr: %w", err)
	}
	p := measure.NewPinger(topo, measure.Config{Seed: seed + 1, JitterMean: 1.5})
	hosts := seqHosts(110)
	c := p.MeasureMatrix(hosts, measure.ModeMinRTT, 48, 0)
	return &Dataset{Name: "NLANR", D: c.D, Mask: nil, Symmetric: true}, nil
}

// GenGNP emulates the 19-host GNP dataset: half North America, half
// global, minimum RTT probes.
func GenGNP(seed int64) (*Dataset, error) {
	topo, err := gnpTopology(seed)
	if err != nil {
		return nil, fmt.Errorf("gnp: %w", err)
	}
	p := measure.NewPinger(topo, measure.Config{Seed: seed + 1, JitterMean: 2})
	hosts := seqHosts(19)
	c := p.MeasureMatrix(hosts, measure.ModeMinRTT, 32, 0)
	return &Dataset{Name: "GNP", D: c.D, Mask: nil, Symmetric: true}, nil
}

// gnpHostCount is the total host population behind the GNP/AGNP pair:
// the 19 GNP targets plus 869 AGNP probe hosts.
const gnpHostCount = 19 + 869

// gnpTopology builds the shared 888-host world from which both the GNP
// clique (hosts 0..18) and the AGNP probes (hosts 19..887) are drawn, with
// asymmetric routing and asymmetric last-mile links enabled.
func gnpTopology(seed int64) (*topology.Topology, error) {
	return topology.Generate(topology.Config{
		Seed:              seed,
		NumHosts:          gnpHostCount,
		ContinentWeights:  []float64{0.5, 0.25, 0.15, 0.1},
		HostsPerStub:      4,
		InflationProb:     0.5,
		InflationMax:      0.8,
		StubInflationProb: 0.2,
		StubInflationMax:  0.2,
		AsymmetryProb:     0.5,
		AsymmetryMax:      0.3,
		HostAsymmetryMax:  4,
	})
}

// GenAGNP emulates the asymmetric 869x19 AGNP dataset: 869 probe hosts
// measuring the 19 GNP targets over asymmetric paths. It shares its
// topology with GenGNP for the same seed, as in the original measurement
// campaign.
func GenAGNP(seed int64) (*Dataset, error) {
	topo, err := gnpTopology(seed)
	if err != nil {
		return nil, fmt.Errorf("agnp: %w", err)
	}
	p := measure.NewPinger(topo, measure.Config{Seed: seed + 2, JitterMean: 2})
	rows := make([]int, 869)
	for i := range rows {
		rows[i] = 19 + i
	}
	cols := seqHosts(19)
	c := p.MeasureDirected(rows, cols, 16)
	return &Dataset{Name: "AGNP", D: c.D, Mask: nil, Symmetric: false}, nil
}

// P2PSimHosts is the number of hosts in the synthetic P2PSim dataset,
// matching the 1143 nodes the paper evaluates on.
const P2PSimHosts = 1143

// GenP2PSim emulates the P2PSim dataset: 1143 DNS servers spread worldwide
// whose pairwise RTTs were estimated with the King method, so the matrix
// carries multiplicative estimation error, heavier inflation and a global
// footprint — the paper's hardest dataset.
func GenP2PSim(seed int64) (*Dataset, error) {
	return genP2PSimN(seed, P2PSimHosts)
}

// GenP2PSimSmall generates a reduced-size P2PSim-like dataset for tests and
// quick experiments. n must be at least 2.
func GenP2PSimSmall(seed int64, n int) (*Dataset, error) {
	return genP2PSimN(seed, n)
}

func genP2PSimN(seed int64, n int) (*Dataset, error) {
	topo, err := topology.Generate(topology.Config{
		Seed:              seed,
		NumHosts:          n,
		ContinentWeights:  []float64{0.35, 0.3, 0.25, 0.07, 0.03},
		HostsPerStub:      3,
		InflationProb:     0.6,
		InflationMax:      1.0,
		StubInflationProb: 0.5,
		StubInflationMax:  0.65,
	})
	if err != nil {
		return nil, fmt.Errorf("p2psim: %w", err)
	}
	p := measure.NewPinger(topo, measure.Config{Seed: seed + 1})
	c := p.MeasureMatrix(seqHosts(n), measure.ModeKing, 1, 0)
	return &Dataset{Name: "P2PSim", D: c.D, Mask: nil, Symmetric: true}, nil
}

// GenPLRTT emulates the PlanetLab all-pairs-ping dataset: 169 academic
// sites worldwide, min RTT at a single timestamp, moderate inflation (the
// PlanetLab inter-domain mess of [3]).
func GenPLRTT(seed int64) (*Dataset, error) {
	topo, err := topology.Generate(topology.Config{
		Seed:              seed,
		NumHosts:          169,
		ContinentWeights:  []float64{0.5, 0.3, 0.2},
		HostsPerStub:      1,
		InflationProb:     0.55,
		InflationMax:      0.9,
		StubInflationProb: 0.55,
		StubInflationMax:  0.85,
	})
	if err != nil {
		return nil, fmt.Errorf("plrtt: %w", err)
	}
	p := measure.NewPinger(topo, measure.Config{Seed: seed + 1, JitterMean: 3})
	c := p.MeasureMatrix(seqHosts(169), measure.ModeMinRTT, 8, 0)
	return &Dataset{Name: "PL-RTT", D: c.D, Mask: nil, Symmetric: true}, nil
}

// WithMissing returns a copy of d whose off-diagonal entries are masked out
// independently with probability p, emulating measurement loss. The
// original dataset is not modified.
func (d *Dataset) WithMissing(p float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	m, n := d.D.Dims()
	mask := mat.NewDense(m, n)
	mask.Fill(1)
	if d.Mask != nil {
		mask.CopyFrom(d.Mask)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if i == j && d.Square() {
				continue
			}
			if rng.Float64() < p {
				mask.Set(i, j, 0)
			}
		}
	}
	return &Dataset{Name: d.Name + "+missing", D: d.D.Clone(), Mask: mask, Symmetric: d.Symmetric}
}

// TriangleViolationFraction estimates the fraction of ordered host pairs
// (i,j) for which some relay k gives a strictly shorter two-hop path:
// D[i][k] + D[k][j] < D[i][j] by more than margin (relative). For matrices
// larger than exhaustLimit hosts it samples pairs; the estimate is
// deterministic for a given seed.
func TriangleViolationFraction(d *mat.Dense, margin float64, seed int64) float64 {
	n, c := d.Dims()
	if n != c {
		panic(fmt.Sprintf("dataset: triangle check needs square matrix, got %dx%d", n, c))
	}
	const exhaustLimit = 220
	const sampledPairs = 4000
	rng := rand.New(rand.NewSource(seed))
	checkPair := func(i, j int) bool {
		dij := d.At(i, j)
		if dij <= 0 {
			return false
		}
		for k := 0; k < n; k++ {
			if k == i || k == j {
				continue
			}
			if d.At(i, k)+d.At(k, j) < dij*(1-margin) {
				return true
			}
		}
		return false
	}
	var violated, total int
	if n <= exhaustLimit {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				total++
				if checkPair(i, j) {
					violated++
				}
			}
		}
	} else {
		for s := 0; s < sampledPairs; s++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			total++
			if checkPair(i, j) {
				violated++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(violated) / float64(total)
}

// AsymmetryFraction returns the fraction of unordered host pairs whose
// forward and reverse distances differ by more than frac relative.
func AsymmetryFraction(d *mat.Dense, frac float64) float64 {
	n, c := d.Dims()
	if n != c {
		panic(fmt.Sprintf("dataset: asymmetry check needs square matrix, got %dx%d", n, c))
	}
	var asym, total int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			f, r := d.At(i, j), d.At(j, i)
			if f == 0 && r == 0 {
				continue
			}
			if math.Abs(f-r) > frac*math.Max(f, r) {
				asym++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(asym) / float64(total)
}

// Save writes the dataset in a simple self-describing text format:
//
//	ides-dataset v1
//	name <name>
//	dims <rows> <cols>
//	symmetric <bool>
//	masked <bool>
//	<row of distances>...
//	[<row of mask bits>...]
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m, n := d.D.Dims()
	fmt.Fprintln(bw, "ides-dataset v1")
	fmt.Fprintf(bw, "name %s\n", d.Name)
	fmt.Fprintf(bw, "dims %d %d\n", m, n)
	fmt.Fprintf(bw, "symmetric %v\n", d.Symmetric)
	fmt.Fprintf(bw, "masked %v\n", d.Mask != nil)
	for i := 0; i < m; i++ {
		row := d.D.Row(i)
		for j, v := range row {
			if j > 0 {
				bw.WriteByte(' ')
			}
			// Shortest representation that round-trips exactly.
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	if d.Mask != nil {
		for i := 0; i < m; i++ {
			row := d.Mask.Row(i)
			for j, v := range row {
				if j > 0 {
					bw.WriteByte(' ')
				}
				if v != 0 {
					bw.WriteByte('1')
				} else {
					bw.WriteByte('0')
				}
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Load reads a dataset previously written by Save.
func Load(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	readLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	header, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if header != "ides-dataset v1" {
		return nil, fmt.Errorf("dataset: unrecognized header %q", header)
	}
	d := &Dataset{}
	var rows, cols int
	var masked bool
	for _, key := range []string{"name", "dims", "symmetric", "masked"} {
		line, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading %s: %w", key, err)
		}
		val, ok := strings.CutPrefix(line, key+" ")
		if !ok {
			return nil, fmt.Errorf("dataset: expected %q line, got %q", key, line)
		}
		switch key {
		case "name":
			d.Name = val
		case "dims":
			if _, err := fmt.Sscanf(val, "%d %d", &rows, &cols); err != nil {
				return nil, fmt.Errorf("dataset: bad dims %q: %w", val, err)
			}
			if rows <= 0 || cols <= 0 {
				return nil, fmt.Errorf("dataset: bad dims %dx%d", rows, cols)
			}
		case "symmetric":
			d.Symmetric = val == "true"
		case "masked":
			masked = val == "true"
		}
	}
	readMatrix := func(name string) (*mat.Dense, error) {
		m := mat.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			line, err := readLine()
			if err != nil {
				return nil, fmt.Errorf("dataset: reading %s row %d: %w", name, i, err)
			}
			fields := strings.Fields(line)
			if len(fields) != cols {
				return nil, fmt.Errorf("dataset: %s row %d has %d fields, want %d", name, i, len(fields), cols)
			}
			row := m.Row(i)
			for j, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: %s row %d col %d: %w", name, i, j, err)
				}
				row[j] = v
			}
		}
		return m, nil
	}
	if d.D, err = readMatrix("distance"); err != nil {
		return nil, err
	}
	if masked {
		if d.Mask, err = readMatrix("mask"); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func seqHosts(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return hosts
}
