// Command perfbench is the repository's benchmark. It runs one workload,
// measures it end to end, checks every result itself, and prints each
// metric by name and unit; the last line of standard output is one JSON
// object for tooling.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload table2-auto --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	table2-auto  the 41 Table 2 circuits through rmbench's per-circuit
//	             pipeline under the default (auto-basis) flow
//	wordgen-xor  the 25 committed scaling-curve points under the pure
//	             GF(2) flow, checked against their word-level models
//	rmsynd-miss  the rmsynd binary at default flags, one closed-loop
//	             client sending the 41 circuits as BLIF, cache bypassed
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs an untraced, a traced and an untraced pass and reports per-layer
// metrics from spans recorded around the calls into each layer, plus the
// tracing overhead. Per-input rows (and spans) are written under --out.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare generates the inputs from the seed. The program under test
	// sees only these inputs, never the seed.
	prepare(seed int64) error
	// size is the number of inputs in one pass.
	size() int
	// nominalPass is the pass time the run length is divided by to get
	// the pass count; it is fixed, so the count depends only on --seconds.
	nominalPass() time.Duration
	// setup measures set-up k times: process start until the first input
	// can be submitted.
	setup(seed int64, k int) ([]float64, error)
	// open and close bracket the passes; close reports the measured
	// process's high-water RSS in MiB.
	open() error
	close() (peakMB float64, err error)
	// cpu is the measured process's cumulative user+system CPU time.
	cpu() (time.Duration, error)
	// pass runs every input once, in the given order. tr is nil in an
	// untraced pass.
	pass(order []int, tr *tracer) ([]row, error)
}

// row is one input's outcome in one pass: times, counts, and the
// degradation stages that fired.
type row struct {
	Pass         int      `json:"pass"`
	Input        string   `json:"input"`
	LatencyMS    float64  `json:"latency_ms"`
	SynthMS      float64  `json:"synth_ms"`
	PremapLits   int      `json:"premap_lits"`
	MapLits      int      `json:"map_lits"`
	MapGates     int      `json:"map_gates"`
	SpecShipped  bool     `json:"spec_shipped"`
	Verified     bool     `json:"verified"`
	Error        string   `json:"error,omitempty"`
	Degradations []string `json:"degradations,omitempty"`
	Basis        string   `json:"basis,omitempty"`
	VerifyMode   string   `json:"verify_mode,omitempty"`
	Monomials    int      `json:"verify_monomials,omitempty"`
	Status       int      `json:"status,omitempty"`
	ServerMS     float64  `json:"server_elapsed_ms,omitempty"`
	ServedLits   int      `json:"served_lits,omitempty"`

	// stats is the synthesis report the per-layer counts come from.
	stats *core.RunStats
}

func (r row) failed() bool { return r.Error != "" || !r.Verified }

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many set-up samples are taken before the first pass
// and after each pass; the median of all of them is reported.
const setupRuns = 3

func main() {
	var (
		name    = flag.String("workload", "", "table2-auto | wordgen-xor | rmsynd-miss | all")
		seed    = flag.Int64("seed", 1, "input seed: permutes input order (and picks the gfmul polynomials)")
		seconds = flag.Float64("seconds", 20, "run length: the pass count is this over the workload's nominal pass time (at least 1)")
		trace   = flag.Int("trace", 0, "1 = untraced, traced and untraced pass; per-layer metrics")
		out     = flag.String("out", ".bench_out", "directory for per-input rows and spans")
		rmsynd  = flag.String("rmsynd", ".bench_build/bin/rmsynd", "rmsynd binary under test")
		probe   = flag.Bool("probe", false, "internal: prepare the inputs, print ready, exit (set-up probe)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *probe {
		w, err := newWorkload(*name, *rmsynd)
		if err != nil {
			fail(err)
		}
		if err := w.prepare(*seed); err != nil {
			fail(err)
		}
		fmt.Println("ready")
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var res result
	res.Correct = true
	res.Metrics = map[string]metric{}
	for _, n := range names {
		w, err := newWorkload(n, *rmsynd)
		if err != nil {
			fail(err)
		}
		r, err := run(n, w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fail(fmt.Errorf("%s: %w", n, err))
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			res.Metrics[k] = m
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

var workloadNames = []string{"table2-auto", "wordgen-xor", "rmsynd-miss"}

func newWorkload(name, rmsynd string) (workload, error) {
	switch name {
	case "table2-auto":
		return &table2{}, nil
	case "wordgen-xor":
		return &wordgenXor{}, nil
	case "rmsynd-miss":
		return &rmsyndMiss{bin: rmsynd}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table2-auto, wordgen-xor, rmsynd-miss or all)", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// record is the per-run file under --out: everything needed to name the
// inputs that moved between two runs.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Notes    map[string]string `json:"notes"`
	Passes   []float64         `json:"pass_wall_s"`
	Setup    []float64         `json:"setup_s,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Rows     []row             `json:"rows"`
	Spans    []span            `json:"spans,omitempty"`
}

// run measures one workload and returns its result line.
func run(name string, w workload, seed int64, seconds float64, trace bool, out string) (*result, error) {
	rec := record{Workload: name, Seed: seed, Trace: trace, Notes: map[string]string{}}
	// Set-up is sampled before the first pass and after every pass, so
	// its median spans the run like the other metrics do.
	var setup []float64
	sampleSetup := func() error {
		if trace {
			return nil
		}
		s, err := w.setup(seed, setupRuns)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, s...)
		return nil
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	if err := w.prepare(seed); err != nil {
		return nil, err
	}
	if n, ok := w.(noter); ok {
		n.notes(rec.Notes)
	}
	if err := w.open(); err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	// An untraced run measures a fixed number of passes, so every run of
	// a workload pools the same number of samples. A traced run measures
	// an untraced pass, the traced pass, and an untraced pass again: the
	// first absorbs the process's cold start, the last is the warm
	// untraced reference for the tracing overhead and the CPU time.
	passes := max(1, int(seconds/w.nominalPass().Seconds()))
	if trace {
		passes = 3
	}
	var (
		rows  []row
		walls []float64
		tr    *tracer
		cpu   time.Duration
	)
	for p := 0; p < passes; p++ {
		var t *tracer
		if trace && p == 1 {
			tr = newTracer()
			t = tr
		}
		cpu0, err := w.cpu()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rs, err := w.pass(permutation(seed, p, w.size()), t)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		walls = append(walls, time.Since(start).Seconds())
		cpu1, err := w.cpu()
		if err != nil {
			return nil, err
		}
		cpu = cpu1 - cpu0
		for i := range rs {
			rs[i].Pass = p
		}
		rows = append(rows, rs...)
		if err := sampleSetup(); err != nil {
			return nil, err
		}
	}
	peak, err := w.close()
	closed = true
	if err != nil {
		return nil, err
	}

	failed := 0
	for _, r := range rows {
		if r.failed() {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d %s: not verified: %s\n", name, r.Pass, r.Input, r.Error)
		}
	}
	res := &result{Correct: failed == 0, Attempted: len(rows), Failed: failed}
	if _, exact := w.(exactCounts); exact {
		if err := determinismGuard(rows); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		}
	}
	var all map[string]metric
	if trace {
		var server map[string]metric
		if s, ok := w.(serverLayers); ok {
			if server, err = s.serverLayers(tr, rows); err != nil {
				return nil, err
			}
		}
		all = layerMetrics(rows, tr.spans, walls, cpu)
		maps.Copy(all, server)
		rec.Spans = tr.spans
		rec.Notes["core.fprm_s"] = "includes the hedged SOP arm: on a hedged cone the phase timer charges sisbase.RunCone to fprm"
		rec.Notes["not_applicable"] = "a per-layer metric whose layer the workload does not reach reads 0"
		res.Metrics = pick(all, perLayerNames)
	} else {
		tail := tailPercentile(len(rows))
		rec.Notes["latency_tail"] = fmt.Sprintf("p%g over %d samples", tail, len(rows))
		all = endToEnd(rows, walls, setup, peak, tail)
		res.Metrics = pick(all, endToEndNames)
	}
	rec.Passes, rec.Setup, rec.Metrics, rec.Rows = walls, setup, all, rows

	path, err := writeRecord(out, rec)
	if err != nil {
		return nil, err
	}
	printSummary(name, rec, all, trace, path)
	return res, nil
}

// noter adds workload facts (chosen polynomials, server flags) to the
// run record and summary.
type noter interface{ notes(map[string]string) }

// serverLayers measures the layers of a workload served by another
// process: it replays the requests through the public calls the server
// makes, one span each, and returns the traced pass's server-side
// metrics.
type serverLayers interface {
	serverLayers(tr *tracer, rows []row) (map[string]metric, error)
}

// exactCounts marks in-process workloads whose counts must repeat
// exactly across passes, whatever the input order.
type exactCounts interface{ exact() }

// permutation is the input order of pass p: a shuffle seeded by the run
// seed and the pass index, so every pass of a run sees another order and
// the same seed always gives the same orders.
func permutation(seed int64, p, n int) []int {
	r := rand.New(rand.NewPCG(uint64(seed), uint64(p)))
	return r.Perm(n)
}

// determinismGuard checks that the exact counts of every input repeat
// across the passes of a run. Passes run the inputs in different orders,
// so state leaking from one input into the next shows here.
func determinismGuard(rows []row) error {
	type counts struct {
		premap, mapLits, mapGates int
		shipped                   bool
	}
	first := map[string]counts{}
	for _, r := range rows {
		if r.Error != "" {
			continue
		}
		c := counts{r.PremapLits, r.MapLits, r.MapGates, r.SpecShipped}
		if f, ok := first[r.Input]; !ok {
			first[r.Input] = c
		} else if f != c {
			return fmt.Errorf("determinism guard: %s gave %+v in one pass and %+v in pass %d", r.Input, f, c, r.Pass)
		}
	}
	return nil
}

func writeRecord(dir string, rec record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	suffix := ""
	if rec.Trace {
		suffix = "-trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d%s.json", rec.Workload, rec.Seed, suffix))
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func printSummary(name string, rec record, all map[string]metric, trace bool, path string) {
	names := endToEndNames
	kind := "end-to-end"
	if trace {
		names = perLayerNames
		kind = "per-layer"
	}
	fmt.Printf("# %s seed %d: %d pass(es), %d inputs each; %s metrics\n", name, rec.Seed, len(rec.Passes), len(rec.Rows)/len(rec.Passes), kind)
	if !trace {
		names = append(names[:len(names):len(names)], "error_share")
	}
	for _, n := range names {
		m := all[n]
		fmt.Printf("  %-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rec.Notes))
	for k := range rec.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  note %s: %s\n", k, rec.Notes[k])
	}
	fmt.Printf("  rows: %s\n", path)
}

// probeSelf measures set-up of an in-process workload: it starts this
// binary in probe mode k times and times process start until the probe
// reports its inputs ready.
func probeSelf(workload string, seed int64, k int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < k; i++ {
		cmd := exec.Command(self, "--probe", "--workload", workload, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" {
			return nil, errors.Join(fmt.Errorf("probe did not report ready (%q)", line), rerr, werr)
		}
		if werr != nil {
			return nil, werr
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}
