package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/wordgen"
)

// corrupt complements the first primary output.
func corrupt(n *network.Network) {
	n.POs[0].Gate = n.AddGate(network.Not, n.POs[0].Gate)
}

func table2Subset(t *testing.T, names ...string) *table2 {
	t.Helper()
	w := &table2{}
	for _, name := range names {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no circuit %s", name)
		}
		w.specs = append(w.specs, namedNet{c.Name, c.Build()})
	}
	return w
}

func verifiedShare(rows []row) float64 {
	return endToEnd(rows, []float64{1}, []float64{1}, 1, 50)["verified_share"].Value
}

func TestTable2CorruptedNetworkIsCaught(t *testing.T) {
	w := table2Subset(t, "z4ml", "rd53", "majority")
	rows, err := w.pass([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verifiedShare(rows); got != 1 {
		t.Fatalf("clean run: verified_share = %v, want 1 (rows %+v)", got, rows)
	}

	w.mutate = corrupt
	rows, err = w.pass([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verifiedShare(rows); got != 0 {
		t.Fatalf("corrupted run: verified_share = %v, want 0", got)
	}
}

func TestWordgenCorruptedNetworkIsCaught(t *testing.T) {
	s, err := wordgen.Generate("add", 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &wordgenXor{specs: []*wordgen.Spec{s}}
	rows, _ := w.pass([]int{0}, nil)
	if got := verifiedShare(rows); got != 1 {
		t.Fatalf("clean run: verified_share = %v, want 1 (rows %+v)", got, rows)
	}
	w.mutate = corrupt
	rows, _ = w.pass([]int{0}, nil)
	if got := verifiedShare(rows); got >= 1 {
		t.Fatalf("corrupted run: verified_share = %v, want < 1", got)
	}
}

// TestServedCorruptedNetworkIsCaught feeds the rmsynd-miss check a
// response whose network is wrong but whose verified field claims
// otherwise: the check must not trust it.
func TestServedCorruptedNetworkIsCaught(t *testing.T) {
	c, _ := bench.ByName("rd53")
	spec := c.Build()
	respond := func(n *network.Network) []byte {
		var b bytes.Buffer
		if err := n.WriteBLIF(&b); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(server.Response{Verified: true, NetworkBLIF: b.String()})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var good, bad row
	check(&good, spec, respond(spec.Clone()))
	wrong := spec.Clone()
	corrupt(wrong)
	check(&bad, spec, respond(wrong))
	if got := verifiedShare([]row{good, bad}); got != 0.5 {
		t.Fatalf("verified_share = %v, want 0.5 (good %+v, bad %+v)", got, good, bad)
	}
	if !strings.Contains(bad.Error, "not equivalent") {
		t.Fatalf("corrupted response error = %q", bad.Error)
	}
}

// TestCountsIndependentOfOrder runs the same circuits in two orders, as
// two seeds would, and checks the determinism guard holds.
func TestCountsIndependentOfOrder(t *testing.T) {
	w := table2Subset(t, "z4ml", "rd53", "sym10", "cm82a", "t481")
	var rows []row
	for p := 0; p < 2; p++ {
		rs, err := w.pass(permutation(int64(p+1), p, w.size()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			rs[i].Pass = p
		}
		rows = append(rows, rs...)
	}
	if err := determinismGuard(rows); err != nil {
		t.Fatal(err)
	}
	rows[len(rows)-1].MapGates++
	if determinismGuard(rows) == nil {
		t.Fatal("guard missed a count that changed between passes")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "input", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6}, // overlaps a
		{ID: 3, Parent: 0, Name: "a", Start: 8, End: 9},
	}
	got := selfTimes(spans)
	want := map[string]float64{"input": 0.004, "a": 0.004, "b": 0.003}
	for k, v := range want {
		if diff := got[k] - v; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("self time of %s = %v s, want %v s", k, got[k], v)
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	// Symmetric samples: the estimate of the median is the centre.
	if got := harrellDavis([]float64{5, 1, 4, 2, 3}, 50); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// The weights sum to 1, so a constant sample estimates itself.
	if got := harrellDavis([]float64{7, 7, 7, 7}, 90); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of constant 7 = %v", got)
	}
	// A known value: I_0.5(2, 3) = 11/16.
	if got := regIncBeta(2, 3, 0.5); math.Abs(got-11.0/16) > 1e-12 {
		t.Errorf("I_0.5(2,3) = %v, want 0.6875", got)
	}
	// Both branches of the continued fraction agree with the symmetry
	// I_x(a, b) = 1 - I_(1-x)(b, a).
	if got, want := regIncBeta(30, 12, 0.8), 1-regIncBeta(12, 30, 0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("I_0.8(30,12) = %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{25: 60, 41: 75, 75: 75, 82: 75, 123: 90, 205: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
