// Quickstart: the paper's own worked example (§4.1 and §5) through the
// public API — factor a 4-landmark distance matrix, place two ordinary
// hosts from their landmark measurements, and predict the distance between
// them without ever measuring it. Then the same flow on a realistic
// synthetic topology.
package main

import (
	"fmt"
	"log"

	"github.com/ides-go/ides"
)

func main() {
	paperExample()
	syntheticExample()
}

// paperExample reproduces §5.1: four landmarks on a unit ring, two
// ordinary hosts H1 and H2. The model estimates H1–H2 as 3.25 ms; the true
// distance is 3 ms.
func paperExample() {
	fmt.Println("== Paper worked example (Figures 1 & 4) ==")
	landmarks := ides.MatrixFromRows([][]float64{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	})
	// Rank 3 suffices: the ring's 4th singular value is exactly zero.
	model, err := ides.FitSVD(landmarks, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("landmark model: %d landmarks, d=%d\n", model.NumLandmarks(), model.Dim())

	// Each ordinary host measures RTT to the four landmarks.
	h1Dist := []float64{0.5, 1.5, 1.5, 2.5}
	h2Dist := []float64{2.5, 1.5, 1.5, 0.5}
	h1, err := model.SolveHost(h1Dist, h1Dist)
	if err != nil {
		log.Fatal(err)
	}
	h2, err := model.SolveHost(h2Dist, h2Dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated H1->H2: %.2f ms (true distance: 3.00 ms, never measured)\n",
		ides.Estimate(h1, h2))
	fmt.Printf("estimated H1->L4: %.2f ms (measured: %.2f ms)\n\n",
		ides.Estimate(h1, ides.Vectors{Out: model.Outgoing(3), In: model.Incoming(3)}), h1Dist[3])
	// At scale, estimate in bulk rather than pair by pair: against a live
	// server, Client.EstimateBatch answers one-source→many-targets and
	// Client.KNearest ranks the whole directory, each in a single wire
	// round trip (see examples/mirrorselect); in process, ides.NewDirectory
	// + ides.NewQueryEngine expose the same batch operations directly.
}

// syntheticExample runs the same flow on a generated Internet-like
// topology with sub-optimal routing, comparing predictions to ground truth.
func syntheticExample() {
	fmt.Println("== Synthetic topology (60 hosts, 16 landmarks, d=6) ==")
	topo, err := ides.GenerateTopology(ides.TopologyConfig{
		Seed: 7, NumHosts: 60, HostsPerStub: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Hosts 0..15 serve as landmarks.
	const m, dim = 16, 6
	dl := ides.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				dl.Set(i, j, topo.RTT(i, j))
			}
		}
	}
	model, err := ides.FitSVD(dl, dim, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Ordinary hosts measure the landmarks and solve their vectors.
	place := func(h int) ides.Vectors {
		d := make([]float64, m)
		for l := 0; l < m; l++ {
			d[l] = topo.RTT(h, l)
		}
		v, err := model.SolveHost(d, d)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	hosts := []int{15, 20, 28, 33, 41, 47, 52, 59}
	vecs := make([]ides.Vectors, len(hosts))
	for i, h := range hosts {
		vecs[i] = place(h)
	}
	var errs []float64
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			errs = append(errs, ides.RelativeError(topo.RTT(a, b), ides.Estimate(vecs[i], vecs[j])))
		}
	}
	for _, pair := range [][2]int{{0, 3}, {1, 5}, {2, 7}} {
		a, b := hosts[pair[0]], hosts[pair[1]]
		est := ides.Estimate(vecs[pair[0]], vecs[pair[1]])
		truth := topo.RTT(a, b)
		fmt.Printf("host %2d -> host %2d: estimated %6.1f ms, true %6.1f ms (rel.err %4.1f%%)\n",
			a, b, est, truth, 100*ides.RelativeError(truth, est))
	}
	fmt.Printf("all %d predicted pairs: %s\n", len(errs), ides.Summarize(errs))
	// The paper reads its accuracy figures off the error CDF (Fig. 2:
	// "90% of pairs within 15%").
	fmt.Printf("%.0f%% of them within 25%% relative error\n", 100*ides.NewCDF(errs).P(0.25))
}
