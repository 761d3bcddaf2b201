package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/sigcache"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// rmsyndMiss is the rmsynd-miss workload: the rmsynd binary at default
// flags (only the listen address is set, to an ephemeral port), driven by
// one closed-loop client that sends the 41 Table 2 circuits as BLIF with
// the cache bypassed, so every request is parsed, signed, admitted,
// synthesized under the default grant, re-verified and serialized.
type rmsyndMiss struct {
	bin    string
	inputs []request
	srv    *serverProc
	client *http.Client
	// last holds the latest pass's exchanges for the replay; shed and
	// degraded hold each pass's /metrics deltas.
	last          []exchange
	shed, degrade []float64
}

type request struct {
	name string
	body []byte
	spec *network.Network // the sent BLIF, parsed back
}

type exchange struct {
	in   *request
	body []byte
}

func (m *rmsyndMiss) prepare(int64) error {
	m.inputs = m.inputs[:0]
	for _, c := range bench.Circuits() {
		var b bytes.Buffer
		if err := c.Build().WriteBLIF(&b); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		spec, err := network.ReadBLIF(bytes.NewReader(b.Bytes()))
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		m.inputs = append(m.inputs, request{c.Name, b.Bytes(), spec})
	}
	return nil
}

func (m *rmsyndMiss) size() int { return len(m.inputs) }

// nominalPass gives three passes in a 20-second run: an odd count, so
// the median pass total of a scheduler-dependent count (spec_shipped) is
// one pass's value, not the mean of two.
func (m *rmsyndMiss) nominalPass() time.Duration { return 6500 * time.Millisecond }

func (m *rmsyndMiss) notes(n map[string]string) {
	n["server"] = "rmsynd -addr 127.0.0.1:0 (all other flags default); one closed-loop client, X-Rmsynd-No-Cache: 1"
}

// setup spawns the server k times and times spawn until /readyz returns
// 200.
func (m *rmsyndMiss) setup(_ int64, k int) ([]float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		s, d, err := startServer(m.bin)
		if err != nil {
			return nil, err
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func (m *rmsyndMiss) open() error {
	s, _, err := startServer(m.bin)
	if err != nil {
		return err
	}
	m.srv = s
	m.client = &http.Client{Timeout: 150 * time.Second}
	return nil
}

func (m *rmsyndMiss) close() (float64, error) {
	if m.srv == nil {
		return 0, nil
	}
	peak, perr := procPeakMB(m.srv.cmd.Process.Pid)
	serr := m.srv.stop()
	m.srv = nil
	if perr != nil {
		return 0, perr
	}
	return peak, serr
}

func (m *rmsyndMiss) cpu() (time.Duration, error) { return procCPU(m.srv.cmd.Process.Pid) }

func (m *rmsyndMiss) pass(order []int, tr *tracer) ([]row, error) {
	before, err := m.srv.metrics(m.client)
	if err != nil {
		return nil, err
	}
	rows := make([]row, 0, len(order))
	m.last = m.last[:0]
	for _, j := range order {
		in := &m.inputs[j]
		r, body := m.send(in, tr)
		rows = append(rows, r)
		m.last = append(m.last, exchange{in, body})
	}
	after, err := m.srv.metrics(m.client)
	if err != nil {
		return nil, err
	}
	m.shed = append(m.shed, after["rmsynd_shed_total"]-before["rmsynd_shed_total"])
	m.degrade = append(m.degrade, after["rmsynd_degraded_total"]-before["rmsynd_degraded_total"])
	// Checks run after the closed loop, so the client's own work never
	// sits between two requests.
	for i := range rows {
		if rows[i].Error == "" {
			check(&rows[i], m.last[i].in.spec, m.last[i].body)
		}
	}
	return rows, nil
}

// send posts one request and records what the client saw.
func (m *rmsyndMiss) send(in *request, tr *tracer) (row, []byte) {
	r := row{Input: in.name}
	req, err := http.NewRequest("POST", m.srv.url+"/v1/synthesize?format=blif", bytes.NewReader(in.body))
	if err != nil {
		r.Error = err.Error()
		return r, nil
	}
	req.Header.Set("X-Rmsynd-No-Cache", "1")
	sp := tr.begin("rmsynd.request", in.name, -1)
	start := time.Now()
	resp, err := m.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.LatencyMS = ms(time.Since(start))
	tr.end(sp)
	if err != nil {
		r.Error = "request: " + err.Error()
		return r, nil
	}
	r.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		r.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return r, nil
	}
	if v, err := strconv.ParseFloat(resp.Header.Get("X-Rmsynd-Elapsed-Ms"), 64); err == nil {
		r.ServerMS = v
		r.SynthMS = v
	}
	return r, body
}

// check re-parses the served network and checks it against the spec the
// client sent; the response's own verified field is never read.
func check(r *row, spec *network.Network, body []byte) {
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		r.Error = "decoding response: " + err.Error()
		return
	}
	r.ServedLits = resp.Literals
	r.SpecShipped = shippedSpec(resp.Degradations)
	r.Degradations = degradationStages(resp.Degradations)
	r.stats = resp.Stats
	if resp.Stats != nil {
		r.Basis = resp.Stats.Basis
	}
	got, err := network.ReadBLIF(strings.NewReader(resp.NetworkBLIF))
	if err != nil {
		r.Error = "parsing served network: " + err.Error()
		return
	}
	eq, err := verify.Equivalent(spec, got)
	if err != nil || !eq {
		r.Error = fmt.Sprintf("served network not equivalent to the spec sent (%v)", err)
		return
	}
	r.Verified = true
	r.PremapLits = got.CollectStats().Lits
	mapped, err := techmap.Map(got, techmap.Library())
	if err != nil {
		r.Error = "map: " + err.Error()
		return
	}
	r.MapLits, r.MapGates = mapped.Lits, mapped.Gates
}

// serverLayers replays the last pass's exchanges through the public calls
// the handler makes on a miss — parse, signature, and the simulation
// re-verification of the served network — one span each, and reads the
// traced pass's server-side metrics from its rows and /metrics deltas.
func (m *rmsyndMiss) serverLayers(tr *tracer, rows []row) (map[string]metric, error) {
	if err := m.replay(tr); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var elapsed, overhead []float64
	lits := 0
	for _, r := range rows {
		if r.Pass != 1 || r.Error != "" {
			continue
		}
		elapsed = append(elapsed, r.ServerMS)
		overhead = append(overhead, r.LatencyMS-r.ServerMS)
		lits += r.ServedLits
	}
	return map[string]metric{
		"server.elapsed_ms":  {median(elapsed), "ms"},
		"server.overhead_ms": {median(overhead), "ms"},
		"server.shed":        {m.shed[1], "count"},
		"server.degraded":    {m.degrade[1], "count"},
		"server.lits":        {float64(lits), "count"},
	}, nil
}

func (m *rmsyndMiss) replay(tr *tracer) error {
	for _, x := range m.last {
		if x.body == nil {
			continue // failed request, already counted
		}
		var resp server.Response
		if err := json.Unmarshal(x.body, &resp); err != nil {
			return fmt.Errorf("%s: %w", x.in.name, err)
		}
		got, err := network.ReadBLIF(strings.NewReader(resp.NetworkBLIF))
		if err != nil {
			return fmt.Errorf("%s: %w", x.in.name, err)
		}
		root := tr.begin("replay", x.in.name, -1)
		sp := tr.begin("network.ReadBLIF", x.in.name, root)
		spec, err := network.ReadBLIF(bytes.NewReader(x.in.body))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", x.in.name, err)
		}
		sp = tr.begin("sigcache.Signature", x.in.name, root)
		sigcache.Signature(spec, sigcache.DefaultSigNodeCap)
		tr.end(sp)
		// The handler's verifyBySim: exhaustive up to 16 inputs, 2048
		// fixed-seed random vectors beyond.
		var ok bool
		if spec.NumPIs() <= 16 {
			sp = tr.begin("verify.Exhaustive", x.in.name, root)
			ok, err = verify.Exhaustive(spec, got)
		} else {
			sp = tr.begin("verify.RandomCheck", x.in.name, root)
			var bad int
			bad, err = verify.RandomCheck(spec, got, 2048, 1)
			ok = bad < 0
		}
		tr.end(sp)
		tr.end(root)
		if err != nil || !ok {
			return fmt.Errorf("%s: replayed re-verification failed (%v)", x.in.name, err)
		}
	}
	return nil
}

// serverProc is one running rmsynd.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	log  *logTail
	done chan error
}

// startServer spawns rmsynd on an ephemeral port and returns once
// /readyz answers 200, with the time from spawn to ready.
func startServer(bin string) (*serverProc, time.Duration, error) {
	log := newLogTail()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	deadline := time.After(30 * time.Second)
	select {
	case addr := <-log.addr:
		s.url = "http://" + addr
	case err := <-s.done:
		return nil, 0, fmt.Errorf("rmsynd exited before listening (%v): %s", err, log.tail())
	case <-deadline:
		s.stop()
		return nil, 0, fmt.Errorf("rmsynd did not listen within 30s: %s", log.tail())
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-deadline:
			s.stop()
			return nil, 0, fmt.Errorf("rmsynd not ready within 30s: %s", log.tail())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM, kills it if the drain hangs, and
// waits until the process has ended. A server stopped right after it
// became ready may not have installed its signal handler yet; dying of
// the SIGTERM is a clean stop too.
func (s *serverProc) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("rmsynd exit: %v: %s", err, s.log.tail())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("rmsynd did not drain within 30s: %s", s.log.tail())
	}
}

// metrics scrapes /metrics into a name → value map (unlabelled series).
func (s *serverProc) metrics(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// logTail keeps the end of the server's stderr for error messages and
// announces the listen address.
type logTail struct {
	mu   sync.Mutex
	buf  []byte
	seen bool
	addr chan string
}

func newLogTail() *logTail { return &logTail{addr: make(chan string, 1)} }

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.seen {
		const marker = "listening on "
		if i := bytes.Index(l.buf, []byte(marker)); i >= 0 {
			rest := l.buf[i+len(marker):]
			if j := bytes.IndexAny(rest, " \n"); j >= 0 {
				l.seen = true
				l.addr <- string(rest[:j])
			}
		}
	}
	if len(l.buf) > 64<<10 {
		l.buf = append([]byte(nil), l.buf[len(l.buf)-32<<10:]...)
	}
	return len(p), nil
}

func (l *logTail) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := string(l.buf)
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

// procPeakMB reads a process's high-water RSS (VmHWM) in MiB.
func procPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU reads a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// Fields after the command name start at state (field 3); utime and
	// stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
