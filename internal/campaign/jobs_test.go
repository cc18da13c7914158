package campaign

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"amdgpubench/internal/core"
	"amdgpubench/internal/report"
)

// jobSuite is the daemon-shaped configuration: one timing iteration
// and — unlike testSuite — the artifact caches ON, because
// cross-request sharing through those caches is exactly what the job
// registry exists to exercise.
func jobSuite() *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	return s
}

// testJobs is a registry over s with the daemon's domain ceiling at 16.
func testJobs(s *core.Suite) *Jobs {
	js := NewJobs(s)
	js.MaxDomain = 16
	return js
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Status()
}

// localFigureCSVs runs the named figures on a FRESH suite — the
// pre-daemon, single-tenant path — and returns each figure's CSV.
func localFigureCSVs(t *testing.T, maxDomain int, names ...string) map[string]string {
	t.Helper()
	s := jobSuite()
	res, err := mustPlan(t, s, Options{MaxDomain: maxDomain}, names...).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(res.Figures))
	for i, fig := range res.Figures {
		out[names[i]] = fig.CSV()
	}
	return out
}

// TestJobsConcurrentSharedSuite is the daemon's core promise: two
// clients with overlapping figure sets run concurrently on ONE suite,
// each gets figures byte-identical to a solo run on a fresh suite, and
// the overlap (fig8 appears in both) is served from the shared pipeline
// caches rather than simulated twice.
func TestJobsConcurrentSharedSuite(t *testing.T) {
	const maxDomain = 16
	s := jobSuite()
	js := testJobs(s)

	ja, err := js.Submit(Request{Figs: []string{"fig7", "fig8"}})
	if err != nil {
		t.Fatal(err)
	}
	jb, err := js.Submit(Request{Figs: []string{"fig8", "fig11"}})
	if err != nil {
		t.Fatal(err)
	}
	stA, stB := waitJob(t, ja), waitJob(t, jb)
	for _, st := range []JobStatus{stA, stB} {
		if st.State != JobDone {
			t.Fatalf("job %s state %q (error %q), want done", st.ID, st.State, st.Error)
		}
		if st.FailedUnits != 0 {
			t.Fatalf("job %s failed %d units", st.ID, st.FailedUnits)
		}
		if st.Executed != st.Units {
			t.Fatalf("job %s executed %d of %d units", st.ID, st.Executed, st.Units)
		}
	}

	wantA := localFigureCSVs(t, maxDomain, "fig7", "fig8")
	wantB := localFigureCSVs(t, maxDomain, "fig8", "fig11")
	for _, tc := range []struct {
		job  *Job
		want map[string]string
	}{{ja, wantA}, {jb, wantB}} {
		for name, want := range tc.want {
			fig, ok := tc.job.Figure(name)
			if !ok {
				t.Fatalf("job %s has no figure %q", tc.job.ID(), name)
			}
			if got := fig.CSV(); got != want {
				t.Fatalf("job %s figure %q differs from a solo fresh-suite run:\n--- daemon ---\n%s\n--- solo ---\n%s", tc.job.ID(), name, got, want)
			}
		}
	}

	// The shared fig8: whichever job simulates a point first, the other
	// job's identical key is served by the memory cache or coalesced
	// into the in-flight compute — visible as cache traffic, and as
	// fewer simulate misses than the two jobs' summed unit counts.
	snap := s.Metrics().Snapshot()
	shared := snap.Get("pipeline.simulate.hits") + snap.Get("pipeline.simulate.coalesced")
	if shared == 0 {
		t.Fatal("no simulate cache sharing between overlapping concurrent jobs")
	}
	if misses := snap.Get("pipeline.simulate.misses"); misses >= int64(stA.Units+stB.Units) {
		t.Fatalf("simulate.misses = %d with %d+%d units: overlap was not deduplicated", misses, stA.Units, stB.Units)
	}
	if got := snap.Get("campaign.jobs.completed"); got != 2 {
		t.Fatalf("campaign.jobs.completed = %d, want 2", got)
	}
	if got := snap.Get("campaign.jobs.running"); got != 0 {
		t.Fatalf("campaign.jobs.running = %d after both jobs settled, want 0", got)
	}
	if got := len(js.List()); got != 2 {
		t.Fatalf("List returned %d jobs, want 2", got)
	}
}

// TestJobsCountFailedUnits: a job counts its units in the run's
// per-unit hook, so once done its counts agree with the run's own
// result: every unit executed, and as many failed as it records.
func TestJobsCountFailedUnits(t *testing.T) {
	const deadline = 16000 // fails some of fig13's 16x16 points, not all
	s := jobSuite()
	s.DeadlineCycles = deadline
	j, err := testJobs(s).Submit(Request{Figs: []string{"fig13"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != JobDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}
	ref := jobSuite()
	ref.DeadlineCycles = deadline
	res, err := mustPlan(t, ref, Options{MaxDomain: 16}, "fig13").Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Failures); n == 0 || n == res.Executed {
		t.Fatalf("the deadline fails %d of %d units; want some, not all", n, res.Executed)
	}
	if st.FailedUnits != len(res.Failures) || st.Executed != st.Units {
		t.Errorf("job counts executed=%d failed=%d of %d units; the run records %d failures",
			st.Executed, st.FailedUnits, st.Units, len(res.Failures))
	}
}

// TestJobsCancel gates the first kernel launch, cancels the job while
// it is blocked there, and checks the job settles to cancelled — not
// failed — without touching the registry's other accounting.
func TestJobsCancel(t *testing.T) {
	s := jobSuite()
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	s.BeforeLaunch = func(core.KernelPoint, int) {
		once.Do(func() { close(entered) })
		<-release
	}
	js := testJobs(s)
	j, err := js.Submit(Request{Figs: []string{"fig7"}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if !js.Cancel(j.ID()) {
		t.Fatal("Cancel refused a running job")
	}
	close(release)
	st := waitJob(t, j)
	if st.State != JobCancelled {
		t.Fatalf("state %q (error %q), want cancelled", st.State, st.Error)
	}
	if js.Cancel(j.ID()) {
		t.Fatal("Cancel of a settled job should report false")
	}
	if _, ok := j.Figure("fig7"); ok {
		t.Fatal("cancelled job served a figure")
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("campaign.jobs.cancelled"); got != 1 {
		t.Fatalf("campaign.jobs.cancelled = %d, want 1", got)
	}
	if got := snap.Get("campaign.jobs.failed"); got != 0 {
		t.Fatalf("campaign.jobs.failed = %d, want 0", got)
	}
	if got := snap.Get("campaign.jobs.running"); got != 0 {
		t.Fatalf("campaign.jobs.running = %d, want 0", got)
	}
}

// TestJobsArchFilter restricts figures of every assembly kind —
// card-major (fig7), custom-labelled (blocks) and unit-converted
// (hier-lat) — to one architecture: the filtered figure must be exactly
// that architecture's series of an unfiltered run on a fresh suite,
// point for point.
func TestJobsArchFilter(t *testing.T) {
	for _, tc := range []struct{ fig, arch, prefix string }{
		{"fig7", "4870", "4870 "},
		{"blocks", "4870", "4870 "},
		{"hier-lat", "RV770", "4870 "},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			s := jobSuite()
			js := testJobs(s)
			j, err := js.Submit(Request{Figs: []string{tc.fig}, Archs: []string{tc.arch}, Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitJob(t, j); st.State != JobDone {
				t.Fatalf("state %q (error %q), want done", st.State, st.Error)
			}
			fig, ok := j.Figure(tc.fig)
			if !ok {
				t.Fatalf("no %s on a done job", tc.fig)
			}

			fresh := jobSuite()
			res, err := mustPlan(t, fresh, Options{MaxDomain: 16}, tc.fig).Run(fresh)
			if err != nil {
				t.Fatal(err)
			}
			var want []report.Series
			for _, sr := range res.Figures[0].Series {
				if strings.HasPrefix(sr.Label, tc.prefix) {
					want = append(want, sr)
				}
			}
			if len(want) == 0 {
				t.Fatalf("unfiltered %s has no %q series", tc.fig, tc.prefix)
			}
			if !reflect.DeepEqual(fig.Series, want) {
				t.Fatalf("filtered %s series differ from the unfiltered run's %q series:\n got %+v\nwant %+v", tc.fig, tc.prefix, fig.Series, want)
			}
		})
	}
}

// TestJobsMaxDomainCeiling: a request plans at the smaller of the
// service's ceiling and its own max_domain, zero meaning no cap of its
// own.
func TestJobsMaxDomainCeiling(t *testing.T) {
	js := testJobs(jobSuite())
	for _, tc := range []struct{ req, want int }{{0, 16}, {64, 16}, {8, 8}} {
		j, err := js.Submit(Request{Figs: []string{"fig13"}, MaxDomain: tc.req})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != JobDone {
			t.Fatalf("max_domain %d: state %q (error %q), want done", tc.req, st.State, st.Error)
		}
		for _, u := range j.plan.Units {
			if u.W != tc.want || u.H != tc.want {
				t.Fatalf("max_domain %d under ceiling %d planned a %dx%d unit, want %dx%d",
					tc.req, js.MaxDomain, u.W, u.H, tc.want, tc.want)
			}
		}
	}
}

// TestJobsNeverClampHierProbes: a request's max_domain and the service
// ceiling leave a hierarchy probe's domain alone, so a remote client gets
// the unclamped figure, not a silently corrupted one.
func TestJobsNeverClampHierProbes(t *testing.T) {
	js := testJobs(jobSuite())
	j, err := js.Submit(Request{Figs: []string{"hier-stride"}, MaxDomain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != JobDone {
		t.Fatalf("state %q (error %q), want done", st.State, st.Error)
	}
	fig, ok := j.Figure("hier-stride")
	if !ok {
		t.Fatal("job has no hier-stride figure")
	}
	if got, want := fig.CSV(), localFigureCSVs(t, 0, "hier-stride")["hier-stride"]; got != want {
		t.Fatalf("daemon hier-stride differs from the unclamped run:\n--- daemon ---\n%s\n--- unclamped ---\n%s", got, want)
	}
}

// TestSubmitValidation: every malformed request fails synchronously,
// before a job exists.
func TestSubmitValidation(t *testing.T) {
	s := jobSuite()
	js := testJobs(s)
	cases := []struct {
		name string
		req  Request
	}{
		{"no figures", Request{}},
		{"blank figures", Request{Figs: []string{" ", ""}}},
		{"unknown figure", Request{Figs: []string{"fig99"}}},
		{"unknown glob", Request{Figs: []string{"zfig*"}}},
		{"unknown arch", Request{Figs: []string{"fig7"}, Archs: []string{"vega"}}},
		{"arch filter leaves no points", Request{Figs: []string{"trans"}, Archs: []string{"5870"}}},
		{"iterations mismatch", Request{Figs: []string{"fig7"}, Iterations: 2}},
		{"negative max_domain", Request{Figs: []string{"fig7"}, MaxDomain: -1}},
	}
	for _, tc := range cases {
		if _, err := js.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted %+v", tc.name, tc.req)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Get("campaign.jobs.submitted"); got != 0 {
		t.Fatalf("campaign.jobs.submitted = %d after only rejected requests, want 0", got)
	}
	if got := len(js.List()); got != 0 {
		t.Fatalf("List returned %d jobs after only rejected requests, want 0", got)
	}
	if _, ok := js.Get("c000001"); ok {
		t.Fatal("a rejected request left a registered job")
	}
}
