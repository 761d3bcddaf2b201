package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sisbase"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// table2 is the table2-auto workload: the 41 Table 2 circuits, one at a
// time in one process, through rmbench's per-circuit pipeline under the
// default flow (auto basis, no deadline).
type table2 struct {
	specs []namedNet
	// mutate, when set, corrupts each synthesized network before the
	// check; the benchmark's own test uses it to show the check is real.
	mutate func(*network.Network)
}

type namedNet struct {
	name string
	net  *network.Network
}

func (t *table2) prepare(int64) error {
	t.specs = t.specs[:0]
	for _, c := range bench.Circuits() {
		t.specs = append(t.specs, namedNet{c.Name, c.Build()})
	}
	return nil
}

func (t *table2) size() int { return len(t.specs) }
func (t *table2) exact()    {}

func (t *table2) nominalPass() time.Duration { return 10 * time.Second }

func (t *table2) setup(seed int64, k int) ([]float64, error) {
	return probeSelf("table2-auto", seed, k)
}
func (t *table2) open() error                 { return nil }
func (t *table2) close() (float64, error)     { return selfPeakMB() }
func (t *table2) cpu() (time.Duration, error) { return selfCPU() }

func (t *table2) pass(order []int, tr *tracer) ([]row, error) {
	// Each pass synthesizes fresh copies, so nothing one pass does to a
	// specification can reach the next.
	specs := make([]namedNet, len(order))
	for i, j := range order {
		specs[i] = namedNet{t.specs[j].name, t.specs[j].net.Clone()}
	}
	rows := make([]row, 0, len(specs))
	for _, s := range specs {
		rows = append(rows, t.one(s, tr))
	}
	return rows, nil
}

// one runs the per-circuit pipeline: sisbase.Run, core.Synthesize,
// verify.Equivalent on both flows' networks, techmap.Map and
// power.EstimateMapped on both.
func (t *table2) one(s namedNet, tr *tracer) (r row) {
	r.Input = s.name
	start := time.Now()
	root := tr.begin("input", s.name, -1)
	defer func() {
		tr.end(root)
		r.LatencyMS = ms(time.Since(start))
	}()
	ctx := context.Background()

	sp := tr.begin("sisbase.Run", s.name, root)
	sis, err := sisbase.Run(ctx, s.net, sisbase.DefaultOptions())
	tr.end(sp)
	if err != nil {
		r.Error = "sisbase: " + err.Error()
		return r
	}

	opt := core.DefaultOptions()
	if tr != nil {
		opt.Obs = obs.NewCollector()
	}
	sp = tr.begin("core.Synthesize", s.name, root)
	t0 := time.Now()
	res, err := core.Synthesize(ctx, s.net, opt)
	r.SynthMS = ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		r.Error = "synthesize: " + err.Error()
		return r
	}
	if t.mutate != nil {
		t.mutate(res.Network)
	}
	rs := res.RunStats(s.name)
	r.stats = rs
	r.PremapLits = res.Stats.Lits
	r.Basis = res.Basis
	r.SpecShipped = shippedSpec(rs.Degradations)
	r.Degradations = degradationStages(rs.Degradations)

	for _, n := range []*network.Network{sis.Network, res.Network} {
		sp = tr.begin("verify.Equivalent", s.name, root)
		eq, err := verify.Equivalent(s.net, n)
		tr.end(sp)
		if err != nil || !eq {
			r.Error = fmt.Sprintf("not equivalent to the specification (%v)", err)
			return r
		}
	}
	r.Verified = true

	lib := techmap.Library()
	for i, n := range []*network.Network{sis.Network, res.Network} {
		sp = tr.begin("techmap.Map", s.name, root)
		mapped, err := techmap.Map(n, lib)
		tr.end(sp)
		if err != nil {
			r.Error = "map: " + err.Error()
			return r
		}
		sp = tr.begin("power.EstimateMapped", s.name, root)
		power.EstimateMapped(mapped)
		tr.end(sp)
		if i == 1 {
			r.MapLits, r.MapGates = mapped.Lits, mapped.Gates
		}
	}
	return r
}

// selfPeakMB is this process's high-water RSS in MiB.
func selfPeakMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
