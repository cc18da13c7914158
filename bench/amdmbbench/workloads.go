package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/daemon"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/obs"
)

// A workload is one traffic shape. Every op is closed loop: a client
// issues its next op only after the previous one is verified.
type workload struct {
	name    string
	why     string
	clients int
	// tail is the quantile op_tail_ms reports: the highest that keeps at
	// least ten timed ops beyond it in a run of run_seconds.
	tail float64
	// setup builds a ready instance; the warm-up ops then run on it
	// before anything is timed.
	setup func(cfg config) (instance, error)
}

// config is what every setup receives.
type config struct {
	seed   int64
	traced bool // attach an obs.Tracer to every suite the instance builds
	ref    *reference
}

// instance is one set-up workload.
type instance interface {
	// op runs client c's i-th op and verifies its output. errExhausted
	// means client c has no op i.
	op(c, i int) error
	// totals returns the cumulative layer counters and phase timers.
	totals() counters
	// spans returns the cumulative span aggregates (traced only).
	spans() spanTable
	// tracer returns a tracer worth exporting (traced only).
	tracer() *obs.Tracer
	// check runs verification deferred past the timed window.
	check() error
	close()
}

var errExhausted = errors.New("request list exhausted")

var workloads = []workload{
	{
		name:    "paper-cold",
		why:     "a researcher regenerating the paper on a fresh suite: every layer does cold work",
		clients: 1,
		tail:    0.7,
		setup:   setupPaperCold,
	},
	{
		name:    "restart-warm",
		why:     "a rerun over a filled persist dir: the disk tier replaces simulate, which paper-cold never touches",
		clients: 1,
		tail:    0.7,
		setup:   setupRestartWarm,
	},
	{
		name:    "dissect",
		why:     "hier.InferArch per card: few launches of large chain kernels, so ilc compile dominates",
		clients: 1,
		tail:    0.9,
		setup:   setupDissect,
	},
	{
		name:    "daemon-warm",
		why:     "the daemon-smoke CI rerun: two clients resubmit the served fig7/8/11/16 bundle, so HTTP, planning and store hits are all the work",
		clients: warmClients,
		tail:    0.99,
		setup:   setupDaemonWarm,
	},
	{
		name:    "daemon-novel",
		why:     "the daemon-smoke CI cold run: fig7/8/11/16 at never-served max_domain values, so replay and simulate run for every request",
		clients: 1,
		tail:    0.9,
		setup:   setupDaemonNovel,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newSuite builds a suite the way every workload uses one. Iterations
// scale simulated seconds, not host time, so one iteration keeps the
// outputs identical to the pinned goldens at no cost.
func newSuite(tr *obs.Tracer, persistDir string) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.Tracer = tr
	s.PersistDir = persistDir
	return s
}

// timed starts timing one phase; the returned func adds the elapsed
// nanoseconds to reg's counter key. A nil reg discards the time.
func timed(reg *obs.Registry, key string) func() {
	t0 := time.Now()
	return func() { reg.Counter(key).Add(time.Since(t0).Nanoseconds()) }
}

// registryTotals reads the ledger out of registries: their counters and
// histogram counts.
func registryTotals(regs ...*obs.Registry) counters {
	c := make(counters)
	for _, r := range regs {
		c.addSnapshot(r.Snapshot())
	}
	return c
}

// freshSuites runs every op on a new suite, as a new amdmb process
// would. Each finished op's suite counters and kernel launches are
// folded into reg, beside the benchmark's own phase timers.
type freshSuites struct {
	traced     bool
	persistDir string
	run        func(s *core.Suite, i int) error
	reg        *obs.Registry

	mu   sync.Mutex
	sp   spanTable
	last *obs.Tracer
}

func newFreshSuites(cfg config, persistDir string, run func(*core.Suite, int) error, reg *obs.Registry) *freshSuites {
	return &freshSuites{traced: cfg.traced, persistDir: persistDir, run: run, reg: reg, sp: make(spanTable)}
}

func (f *freshSuites) op(_, i int) error {
	var tr *obs.Tracer
	if f.traced {
		// One tracer per op keeps memory flat; its spans are folded
		// into the table as soon as the op ends.
		tr = obs.NewTracer()
	}
	s := newSuite(tr, f.persistDir)
	err := f.run(s, i)
	c := registryTotals(s.Metrics())
	c["launches"] = s.KernelLaunches()
	for k, v := range c {
		f.reg.Counter(k).Add(v)
	}
	if tr != nil {
		f.mu.Lock()
		f.sp.add(selfTimes(tr.Snapshot()))
		f.last = tr
		f.mu.Unlock()
	}
	return err
}

func (f *freshSuites) totals() counters { return registryTotals(f.reg) }

func (f *freshSuites) spans() spanTable {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(spanTable, len(f.sp))
	out.add(f.sp)
	return out
}

func (f *freshSuites) tracer() *obs.Tracer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

func (f *freshSuites) check() error { return nil }

func (f *freshSuites) close() {
	if f.persistDir != "" {
		os.RemoveAll(f.persistDir)
	}
}

// ---- paper-cold and restart-warm ----

// paperOp runs the paper campaign on s and checks all 13 figures.
func paperOp(ref *reference, reg *obs.Registry) func(*core.Suite, int) error {
	return func(s *core.Suite, _ int) error {
		plan, res, err := runCampaign(s, paperFigs, 0, reg)
		if err != nil {
			return err
		}
		return ref.checkResult(plan, res)
	}
}

func setupPaperCold(cfg config) (instance, error) {
	reg := obs.NewRegistry()
	return newFreshSuites(cfg, "", paperOp(cfg.ref, reg), reg), nil
}

// setupRestartWarm fills a fresh persist dir with one paper campaign;
// every op then replays the campaign on a new suite over that dir, and
// checks what the fill stored.
func setupRestartWarm(cfg config) (instance, error) {
	dir, err := os.MkdirTemp("", "amdmbbench-persist-")
	if err != nil {
		return nil, err
	}
	if _, res, err := runCampaign(newSuite(nil, dir), paperFigs, 0, nil); err != nil || res.Failed() != 0 {
		os.RemoveAll(dir)
		if err == nil {
			err = fmt.Errorf("%d units failed", res.Failed())
		}
		return nil, fmt.Errorf("filling persist dir: %w", err)
	}
	reg := obs.NewRegistry()
	return newFreshSuites(cfg, dir, paperOp(cfg.ref, reg), reg), nil
}

// ---- dissect ----

var dissectArchs = []device.Arch{device.RV670, device.RV770, device.RV870}

// dissectOrder is the seeded card sequence: each consecutive block of
// three ops visits every card once, in a seeded order, so any window of
// ops weights the cards evenly.
type dissectOrder struct {
	rng   *rand.Rand
	archs []device.Arch
}

func newDissectOrder(seed int64) *dissectOrder {
	return &dissectOrder{rng: rand.New(rand.NewSource(seed))}
}

func (o *dissectOrder) at(i int) device.Arch {
	for len(o.archs) <= i {
		for _, k := range o.rng.Perm(len(dissectArchs)) {
			o.archs = append(o.archs, dissectArchs[k])
		}
	}
	return o.archs[i]
}

func setupDissect(cfg config) (instance, error) {
	reg := obs.NewRegistry()
	order := newDissectOrder(cfg.seed)
	run := func(s *core.Suite, i int) error {
		arch := order.at(i)
		stop := timed(reg, "hier.infer_ns")
		_, ms, err := hier.InferArch(s, arch, hier.Config{})
		stop()
		reg.Counter("hier.launches").Add(s.KernelLaunches())
		if err != nil {
			return err
		}
		if len(ms) != 0 {
			return fmt.Errorf("inferring %s: %d mismatches, first %v", arch.CardName(), len(ms), ms[0])
		}
		return nil
	}
	return newFreshSuites(cfg, "", run, reg), nil
}

// ---- daemon-warm and daemon-novel ----

// The daemon workloads replay the two requests of the daemon-smoke CI
// job (.github/workflows/ci.yml): a cold campaign, then an identical
// rerun. daemon-novel is the cold request, made new every time by a
// max_domain the daemon has not served; daemon-warm is the rerun. Each
// runs alone, so each class's latency is gated by its own op_p50_ms,
// with no assumed mix between them.
//
// daemon-novel has one client, as daemon-smoke does: one novel campaign
// already keeps both sweep workers busy, so a second client would only
// split the CPUs between two sweeps. A warm request is mostly serial
// HTTP and planning, so daemon-warm runs two concurrent clients, the
// case amdmbd exists for: one suite shared between clients. Two, one
// per CPU of the 2-vCPU machine the benchmark was sized on, is an
// assumption, not a measured traffic shape.
//
// The daemon runs as amdmbd does by default, with no -cache-dir. With
// one, fsynced write-through is about 70% of a novel request's time and
// makes daemon-novel's op latency swing with the host's disk: over ten
// runs its IQR/median was 15% with a persist dir and 5% without.
// Persist writes are timed by restart-warm's set-up, which fills one.
//
// daemonFigs is the bundle daemon-smoke submits. At full domain its four
// figures are the CLI-pinned goldens, so every daemon-warm op is checked
// byte for byte.
var daemonFigs = []string{"fig7", "fig8", "fig11", "fig16"}

const (
	warmClients = 2
	// Novel max_domain values lie between daemon-smoke's -max-domain 64
	// and one less than the 1024x1024 full domain of fig7, fig8 and
	// fig16, so each one changes the bundle's launch keys.
	novelLo = 64
	novelHi = 1023
	// novelChecked novel responses are recomputed locally after the window.
	novelChecked = 4
	// foldSpans bounds a traced daemon's tracer: a daemon-warm request
	// records about 3000 spans, and with every span of a window kept the
	// traced run's peak RSS was 2 GB.
	foldSpans = 50_000
)

// novelDomains orders every novel max_domain by the seed, so no novel
// key is served twice. Successive requests take their domains from 32
// equal-width strata in turn. An op's cost grows with its domain, so
// this way seeds change which domains are served, not the mix of sizes
// a window of requests sees: within a stratum the domain varies by 3%.
// The 960 domains are over three times what a 20 s window takes.
func novelDomains(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	const strata = 32
	width := (novelHi - novelLo + 1) / strata
	order := make([][]int, width) // order[j][s]: the j-th draw from stratum s
	for j := range order {
		order[j] = make([]int, strata)
	}
	for s := 0; s < strata; s++ {
		for j, k := range rng.Perm(width) {
			order[j][s] = novelLo + s*width + k
		}
	}
	var domains []int
	for _, round := range order {
		domains = append(domains, round...)
	}
	return domains
}

// novelResult records one novel response for the post-window check.
type novelResult struct {
	maxDomain int
	digests   []string // per figure of daemonFigs, of the served CSV
}

// daemonOps is an in-process amdmbd: one shared suite behind httptest
// loopback.
type daemonOps struct {
	ref     *reference
	s       *core.Suite
	jobs    *campaign.Jobs
	srv     *httptest.Server
	client  *http.Client
	domains []int // daemon-novel's one client's; nil requests the full domain
	reg     *obs.Registry
	novel   []novelResult // the first novelChecked novel responses

	// A traced daemon folds its tracer's spans into sp and starts a new
	// tracer once it holds foldAt spans (foldSpans, or fewer in tests).
	// Ops hold fold for reading and a fold holds it for writing, so it
	// runs with no job in flight.
	traced bool
	foldAt int
	fold   sync.RWMutex
	sp     spanTable
}

// setupDaemonWarm starts a daemon; the first warm-up op serves the
// bundle cold, and every later op is an identical rerun.
func setupDaemonWarm(cfg config) (instance, error) { return newDaemon(cfg, nil), nil }

func setupDaemonNovel(cfg config) (instance, error) {
	return newDaemon(cfg, novelDomains(cfg.seed)), nil
}

func newDaemon(cfg config, domains []int) *daemonOps {
	var tr *obs.Tracer
	if cfg.traced {
		tr = obs.NewTracer()
	}
	s := newSuite(tr, "")
	jobs := campaign.NewJobs(s)
	return &daemonOps{
		ref:     cfg.ref,
		s:       s,
		jobs:    jobs,
		srv:     httptest.NewServer(daemon.NewServer(jobs, s.Metrics(), nil)),
		client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: warmClients, MaxIdleConnsPerHost: warmClients}},
		domains: domains,
		reg:     obs.NewRegistry(),
		traced:  cfg.traced,
		foldAt:  foldSpans,
		sp:      make(spanTable),
	}
}

func (d *daemonOps) op(_, i int) error {
	if !d.traced {
		return d.serve(i)
	}
	d.fold.RLock()
	err := d.serve(i)
	full := d.s.Tracer.Len() >= d.foldAt
	d.fold.RUnlock()
	if full {
		d.fold.Lock()
		if d.s.Tracer.Len() >= d.foldAt { // another client may have folded
			d.sp.add(selfTimes(d.s.Tracer.Snapshot()))
			d.s.Tracer = obs.NewTracer()
		}
		d.fold.Unlock()
	}
	return err
}

// serve is one op: request i and its check.
func (d *daemonOps) serve(i int) error {
	maxDomain := 0
	if d.domains != nil {
		if i >= len(d.domains) {
			return errExhausted
		}
		maxDomain = d.domains[i]
	}
	csvs, err := d.do(maxDomain)
	if err != nil {
		return err
	}
	if maxDomain == 0 {
		var errs []error
		for k, fig := range daemonFigs {
			errs = append(errs, d.ref.check(fig, csvs[k]))
		}
		return errors.Join(errs...)
	}
	n := novelResult{maxDomain: maxDomain}
	for k, fig := range daemonFigs {
		if !csvHeaderOK(csvs[k]) {
			return fmt.Errorf("%s at max_domain %d: malformed CSV", fig, maxDomain)
		}
		n.digests = append(n.digests, digestOf(csvs[k]))
	}
	// daemon-novel has one client, so its ops never run concurrently.
	if len(d.novel) < novelChecked {
		d.novel = append(d.novel, n)
	}
	return nil
}

// do is one request end to end: POST the bundle, wait until the job is
// done, GET its status, GET every figure CSV. It returns the CSVs, one
// per figure of daemonFigs.
//
// A real client polls the status (amdmb -remote every 100 ms), which
// would round every op up to the poll period. The benchmark built the
// job registry, so it waits on the job's Done channel instead and then
// reads the final status once: op latency is the service's own time, and
// no poll traffic competes with the sweep for the CPUs.
func (d *daemonOps) do(maxDomain int) ([]string, error) {
	stop := timed(d.reg, "daemon.submit_ns")
	body, _ := json.Marshal(campaign.Request{Figs: daemonFigs, MaxDomain: maxDomain}) // strings and ints cannot fail
	var st campaign.JobStatus
	err := d.call(http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, &st)
	stop()
	if err != nil {
		return nil, err
	}

	stop = timed(d.reg, "daemon.wait_ns")
	job, ok := d.jobs.Get(st.ID)
	if ok {
		<-job.Done()
		err = d.call(http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK, &st)
	}
	stop()
	if !ok {
		return nil, fmt.Errorf("campaign %s: not in the job registry", st.ID)
	}
	if err != nil {
		return nil, err
	}
	if st.State != campaign.JobDone || st.FailedUnits != 0 {
		return nil, fmt.Errorf("campaign %s: state %s, %d failed units: %s", st.ID, st.State, st.FailedUnits, st.Error)
	}

	defer timed(d.reg, "daemon.fetch_ns")()
	csvs := make([]string, len(daemonFigs))
	for k, fig := range daemonFigs {
		var csv bytes.Buffer
		if err := d.call(http.MethodGet, "/v1/campaigns/"+st.ID+"/figures/"+fig+".csv", nil, http.StatusOK, &csv); err != nil {
			return nil, err
		}
		csvs[k] = csv.String()
	}
	return csvs, nil
}

// call makes one API request and decodes the response into out: JSON,
// or the raw body when out is a *bytes.Buffer. Any other status than
// want is an error.
func (d *daemonOps) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		buf.Write(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

func (d *daemonOps) totals() counters {
	c := registryTotals(d.s.Metrics(), d.reg)
	c["launches"] = d.s.KernelLaunches()
	return c
}

// spans is called with no op in flight.
func (d *daemonOps) spans() spanTable {
	t := selfTimes(d.s.Tracer.Snapshot())
	t.add(d.sp)
	return t
}

// tracer returns the tracer of the spans since the last fold.
func (d *daemonOps) tracer() *obs.Tracer { return d.s.Tracer }

// check recomputes the first few novel responses on one fresh local
// suite and requires the daemon to have served byte-identical figures.
func (d *daemonOps) check() error {
	local := newSuite(nil, "")
	for _, n := range d.novel {
		_, res, err := runCampaign(local, daemonFigs, n.maxDomain, nil)
		if err != nil {
			return err
		}
		if res.Failed() != 0 {
			return fmt.Errorf("local run at max_domain %d: %d units failed", n.maxDomain, res.Failed())
		}
		for k, fig := range res.Figures {
			if digestOf(fig.CSV()) != n.digests[k] {
				return fmt.Errorf("%s at max_domain %d: daemon CSV differs from a local run", daemonFigs[k], n.maxDomain)
			}
		}
	}
	return nil
}

func (d *daemonOps) close() {
	d.srv.Close()
	d.client.CloseIdleConnections()
}
