package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// endToEndNames are the metrics a user of the system sees, reported by
// every untraced run. error_share is always printed as well, but stays out
// of this list: it is 0 on a healthy run, and failures already show in
// verified_share and in the result line's failed count.
var endToEndNames = []string{
	"setup_s", "wall_s", "synth_s",
	"premap_lits", "map_lits", "map_gates", "spec_shipped",
	"verified_share", "peak_rss_mb",
	"latency_p50_ms", "latency_tail_ms", "throughput_rps",
}

// perLayerNames are the traced run's metrics. A metric that does not
// apply to a workload reads 0 there (arbiter counts under the pure GF(2)
// flow, sisbase on the word-level points, the replay and server counters
// outside rmsynd-miss).
var perLayerNames = []string{
	"core.setup_s", "core.spec-bdd_s", "core.predict_s", "core.fprm_s", "core.factor_s", "core.emit_s",
	"core.select_s", "core.do-no-harm-prep_s", "core.redund_s", "core.merge_s", "core.cleanup_s", "core.verify_s",
	"core.synthesize_s", "core.degradations", "core.budget_steps",
	"arbiter.hedged", "arbiter.decided_share", "arbiter.sop_wins",
	"bdd.unique_hit_rate", "bdd.op_hit_rate", "bdd.peak_nodes", "ofdd.op_hit_rate", "ofdd.peak_nodes",
	"fprm.search_candidates", "fprm.search_yield",
	"factor.rule_apps", "factor.divisor_hits",
	"redund.candidates", "redund.passes", "redund.yield",
	"sisbase.run_s",
	"verify.equivalent_s", "verify.word_s", "verify.word_algebraic", "verify.word_bdd", "verify.peak_monomials",
	"techmap.map_s", "power.estimate_s",
	"network.read_blif_s", "sigcache.signature_s", "verify.sim_s",
	"server.elapsed_ms", "server.overhead_ms", "server.shed", "server.degraded", "server.lits",
	"process.cpu_s", "harness.self_s", "trace.overhead_s", "error_share",
}

// spanMetrics maps a span name to the per-layer metric its self time
// feeds.
var spanMetrics = map[string]string{
	"input":                "harness.self_s",
	"core.Synthesize":      "core.synthesize_s",
	"sisbase.Run":          "sisbase.run_s",
	"verify.Equivalent":    "verify.equivalent_s",
	"verify.Word":          "verify.word_s",
	"techmap.Map":          "techmap.map_s",
	"power.EstimateMapped": "power.estimate_s",
	"network.ReadBLIF":     "network.read_blif_s",
	"sigcache.Signature":   "sigcache.signature_s",
	"verify.Exhaustive":    "verify.sim_s",
	"verify.RandomCheck":   "verify.sim_s",
}

func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = all[n]
	}
	return out
}

// endToEnd computes the untraced run's metrics. Per-pass totals are
// reported as the median over passes; latencies pool every pass.
func endToEnd(rows []row, walls, setup []float64, peakMB, tailPct float64) map[string]metric {
	passes := len(walls)
	perPass := func(f func(row) float64) float64 {
		sums := make([]float64, passes)
		for _, r := range rows {
			sums[r.Pass] += f(r)
		}
		return median(sums)
	}
	lat := make([]float64, 0, len(rows))
	for _, r := range rows {
		lat = append(lat, r.LatencyMS)
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"wall_s":          {median(walls), "s"},
		"synth_s":         {perPass(func(r row) float64 { return r.SynthMS / 1000 }), "s"},
		"premap_lits":     {perPass(func(r row) float64 { return float64(r.PremapLits) }), "count"},
		"map_lits":        {perPass(func(r row) float64 { return float64(r.MapLits) }), "count"},
		"map_gates":       {perPass(func(r row) float64 { return float64(r.MapGates) }), "count"},
		"spec_shipped":    {perPass(func(r row) float64 { return b2f(r.SpecShipped) }), "count"},
		"verified_share":  {share(rows, func(r row) bool { return !r.failed() }), "ratio"},
		"peak_rss_mb":     {peakMB, "MiB"},
		"latency_p50_ms":  {harrellDavis(lat, 50), "ms"},
		"latency_tail_ms": {harrellDavis(lat, tailPct), "ms"},
		"throughput_rps":  {float64(len(rows)) / total, "1/s"},
		"error_share":     {errorShare(rows), "ratio"},
	}
}

// layerMetrics computes the traced run's per-layer metrics from the
// traced pass (pass 1): span self times and the synthesis reports'
// counts; the warm untraced pass (pass 2) gives the CPU time and the
// reference wall time for the overhead.
func layerMetrics(rows []row, spans []span, walls []float64, cpuUntraced time.Duration) map[string]metric {
	m := map[string]metric{}
	for _, n := range perLayerNames {
		unit := "count"
		switch {
		case strings.HasSuffix(n, "_s"):
			unit = "s"
		case strings.HasSuffix(n, "_ms"):
			unit = "ms"
		case strings.HasSuffix(n, "_rate"), strings.HasSuffix(n, "_share"), strings.HasSuffix(n, "yield"):
			unit = "ratio"
		}
		m[n] = metric{0, unit}
	}
	add := func(name string, v float64) {
		x := m[name]
		x.Value += v
		m[name] = x
	}
	set := func(name string, v float64) {
		x := m[name]
		x.Value = v
		m[name] = x
	}
	for name, self := range selfTimes(spans) {
		if metric, ok := spanMetrics[name]; ok {
			add(metric, self)
		}
	}

	var (
		cones, decided                             int
		bddUH, bddUM, bddOH, bddOM, ofddOH, ofddOM int64
		cand, impr                                 int64
		redCand, redKept                           int
	)
	for _, r := range rows {
		if r.Pass != 1 {
			continue
		}
		if r.VerifyMode == "algebraic" {
			add("verify.word_algebraic", 1)
		} else if r.VerifyMode == "bdd" {
			add("verify.word_bdd", 1)
		}
		set("verify.peak_monomials", math.Max(m["verify.peak_monomials"].Value, float64(r.Monomials)))
		rs := r.stats
		if rs == nil {
			continue
		}
		for _, p := range rs.Phases {
			add("core."+p.Name+"_s", float64(p.ElapsedNS)/1e9)
		}
		add("core.degradations", float64(len(rs.Degradations)))
		add("core.budget_steps", float64(rs.Budget.Steps))
		for _, c := range rs.BasisChoices {
			if c.Output == "*" {
				continue
			}
			cones++
			if c.Predicted == "hedge" {
				add("arbiter.hedged", 1)
				if c.Chosen == "sop" {
					add("arbiter.sop_wins", 1)
				}
			} else {
				decided++
			}
		}
		add("redund.passes", float64(rs.Redund.Passes))
		redCand += rs.Redund.Candidates
		redKept += rs.Redund.Candidates - rs.Redund.Reverted
		if o := rs.Obs; o != nil {
			bddUH, bddUM = bddUH+o.BDD.UniqueHits, bddUM+o.BDD.UniqueMisses
			bddOH, bddOM = bddOH+o.BDD.OpHits, bddOM+o.BDD.OpMisses
			ofddOH, ofddOM = ofddOH+o.OFDD.OpHits, ofddOM+o.OFDD.OpMisses
			set("bdd.peak_nodes", math.Max(m["bdd.peak_nodes"].Value, float64(o.BDD.PeakNodes)))
			set("ofdd.peak_nodes", math.Max(m["ofdd.peak_nodes"].Value, float64(o.OFDD.PeakNodes)))
			f := o.Factor
			add("factor.rule_apps", float64(f.RuleA+f.RuleB+f.RuleC+f.RuleD+f.RuleE))
			add("factor.divisor_hits", float64(f.DivisorHits))
			for _, s := range o.Outputs {
				cand += s.Candidates
				impr += s.Improvements
			}
		}
	}
	set("arbiter.decided_share", ratio(float64(decided), float64(cones)))
	set("bdd.unique_hit_rate", ratio(float64(bddUH), float64(bddUH+bddUM)))
	set("bdd.op_hit_rate", ratio(float64(bddOH), float64(bddOH+bddOM)))
	set("ofdd.op_hit_rate", ratio(float64(ofddOH), float64(ofddOH+ofddOM)))
	set("fprm.search_candidates", float64(cand))
	set("fprm.search_yield", ratio(float64(impr), float64(cand)))
	set("redund.candidates", float64(redCand))
	set("redund.yield", ratio(float64(redKept), float64(redCand)))
	set("process.cpu_s", cpuUntraced.Seconds())
	set("trace.overhead_s", walls[1]-walls[2])
	set("error_share", errorShare(rows))
	return m
}

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Input  string  `json:"input"`
	Start  float64 `json:"start_ms"` // since the trace began
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, input string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Input: input, Start: t.since()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.since()
}

func (t *tracer) since() float64 { return ms(time.Since(t.t0)) }

// selfTimes sums each span name's self time in seconds: its duration
// minus the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := math.Max(k.Start, reach), math.Min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += (s.End - s.Start - covered) / 1000
	}
	return out
}

// shippedSpec reports whether a result is the swept specification:
// network-level do-no-harm or the whole-network fallback.
func shippedSpec(degs []core.DegradationStat) bool {
	for _, d := range degs {
		if d.Output == "*" && d.Fallback == "swept-spec" {
			return true
		}
	}
	return false
}

func degradationStages(degs []core.DegradationStat) []string {
	var out []string
	for _, d := range degs {
		out = append(out, d.Output+":"+d.Stage+"->"+d.Fallback)
	}
	return out
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 60, 50}

// tailPercentile is the highest ladder percentile with at least ten
// samples beyond it in n samples. The sample count depends only on the
// workload and --seconds, so runs of the same length report the same
// percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// harrellDavis estimates a percentile as a weighted mean of all order
// statistics (Harrell and Davis, 1982). The inputs of a workload are a
// fixed, heterogeneous set, so a plain percentile sits on one input's
// time and jumps when two neighbours swap; here the weight spreads over
// the inputs around the percentile, which steadies it from run to run.
func harrellDavis(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := p/100*float64(n+1), (1-p/100)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < eps {
			break
		}
	}
	return h
}

func share(rows []row, f func(row) bool) float64 {
	n := 0
	for _, r := range rows {
		if f(r) {
			n++
		}
	}
	return ratio(float64(n), float64(len(rows)))
}

// errorShare is the share of inputs that failed or were refused.
func errorShare(rows []row) float64 { return share(rows, func(r row) bool { return r.Error != "" }) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
