package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
)

func newTestSuite(cacheDir string) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.PersistDir = cacheDir
	return s
}

// startServer serves s with the daemon's domain ceiling at 16.
func startServer(s *core.Suite) *httptest.Server {
	js := campaign.NewJobs(s)
	js.MaxDomain = 16
	return httptest.NewServer(NewServer(js, s.Metrics(), nil))
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submitAndWait posts a request and polls until the job settles.
func submitAndWait(t *testing.T, ts *httptest.Server, body string) campaign.JobStatus {
	t.Helper()
	resp, data := postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var st campaign.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/campaigns/" + st.ID; resp.Header.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for st.State == campaign.JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not settle", st.ID)
		}
		time.Sleep(20 * time.Millisecond)
		resp, data = get(t, ts, "/v1/campaigns/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %s: %s", resp.Status, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// metricValue pulls one counter out of the /v1/metrics JSON — the same
// numbers a monitoring scrape would see.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, data := get(t, ts, "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestServerEndToEndWithRestart is the tentpole's acceptance walk: a
// campaign over HTTP, its CSVs served; then the daemon "restarts" (new
// suite, same cache dir) and the same campaign replays from the
// persistent tier — ≥90% simulate hit rate, byte-identical CSVs.
func TestServerEndToEndWithRestart(t *testing.T) {
	dir := t.TempDir()
	const reqBody = `{"figs": ["fig7", "fig8"], "iterations": 1}`

	s1 := newTestSuite(dir)
	ts1 := startServer(s1)
	st := submitAndWait(t, ts1, reqBody)
	if st.State != campaign.JobDone {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}

	csv1 := make(map[string]string)
	for _, fig := range []string{"fig7", "fig8"} {
		resp, data := get(t, ts1, "/v1/campaigns/"+st.ID+"/figures/"+fig+".csv")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure %s: %s: %s", fig, resp.Status, data)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Fatalf("figure content-type %q", ct)
		}
		csv1[fig] = string(data)
	}
	if resp, _ := get(t, ts1, "/v1/campaigns/"+st.ID+"/figures/fig11.csv"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("figure outside the job: %s, want 404", resp.Status)
	}
	if resp, _ := get(t, ts1, "/v1/campaigns/"+st.ID+"/figures/fig7"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("figure without .csv: %s, want 404", resp.Status)
	}
	if resp, _ := get(t, ts1, "/v1/campaigns/zzz"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %s, want 404", resp.Status)
	}
	resp, data := get(t, ts1, "/v1/campaigns")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	var list []campaign.JobStatus
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, want the one job", list)
	}
	if got := metricValue(t, ts1, "daemon.http.requests"); got == 0 {
		t.Fatal("daemon.http.requests not counting")
	}
	if resp, _ := get(t, ts1, "/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	ts1.Close()

	// The restart: a brand-new suite and server over the same cache dir.
	// Nothing is warm in memory; everything replays from disk.
	s2 := newTestSuite(dir)
	ts2 := startServer(s2)
	defer ts2.Close()
	st2 := submitAndWait(t, ts2, reqBody)
	if st2.State != campaign.JobDone {
		t.Fatalf("restart state %q (error %q)", st2.State, st2.Error)
	}
	for fig, want := range csv1 {
		resp, data := get(t, ts2, "/v1/campaigns/"+st2.ID+"/figures/"+fig+".csv")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart figure %s: %s", fig, resp.Status)
		}
		if string(data) != want {
			t.Fatalf("restart figure %s differs from the pre-restart serve:\n--- restart ---\n%s\n--- original ---\n%s", fig, data, want)
		}
	}
	hits := metricValue(t, ts2, "pipeline.persist.hits")
	misses := metricValue(t, ts2, "pipeline.persist.misses")
	if hits+misses == 0 {
		t.Fatal("restarted daemon recorded no persistent-tier traffic")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("persistent hit rate %.2f (%d hits, %d misses) after restart, want >= 0.9", rate, hits, misses)
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	ts := startServer(newTestSuite(""))
	defer ts.Close()
	cases := []struct {
		name string
		body string
	}{
		{"garbage", `{nope`},
		{"unknown field", `{"figs": ["fig7"], "shards": 2}`},
		{"no figures", `{"figs": []}`},
		{"unknown figure", `{"figs": ["fig99"]}`},
		{"iterations mismatch", `{"figs": ["fig7"], "iterations": 77}`},
		{"unfilterable figure", `{"figs": ["trans"], "archs": ["5870"]}`},
	}
	for _, tc := range cases {
		resp, data := postCampaign(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.name, resp.Status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not the API's JSON shape", tc.name, data)
		}
	}
}

// TestServerCancelAndConflicts drives the 409 paths deterministically
// by gating the first kernel launch: the figure endpoint conflicts
// while the job runs, DELETE cancels it, and a second DELETE conflicts.
func TestServerCancelAndConflicts(t *testing.T) {
	s := newTestSuite("")
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	s.BeforeLaunch = func(core.KernelPoint, int) {
		once.Do(func() { close(entered) })
		<-release
	}
	ts := startServer(s)
	defer ts.Close()

	resp, data := postCampaign(t, ts, `{"figs": ["fig7"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var st campaign.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	<-entered

	if resp, _ := get(t, ts, "/v1/campaigns/"+st.ID+"/figures/fig7.csv"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("figure of a running job: %s, want 409", resp.Status)
	}
	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", code)
	}
	close(release)
	deadline := time.Now().Add(time.Minute)
	for st.State == campaign.JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job did not settle")
		}
		time.Sleep(10 * time.Millisecond)
		_, data = get(t, ts, "/v1/campaigns/"+st.ID)
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != campaign.JobCancelled {
		t.Fatalf("state %q, want cancelled", st.State)
	}
	if code := del(); code != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", code)
	}
	if resp, _ := get(t, ts, "/v1/campaigns/"+st.ID+"/figures/fig7.csv"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("figure of a cancelled job: %s, want 409", resp.Status)
	}
}

// TestServerConcurrentClients mirrors the registry-level test at the
// HTTP layer: overlapping submissions from two goroutines, both served,
// cross-request dedup visible in the shared metrics.
func TestServerConcurrentClients(t *testing.T) {
	s := newTestSuite("")
	ts := startServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	states := make([]campaign.JobStatus, 2)
	errs := make([]error, 2)
	for i, body := range []string{`{"figs": ["fig7", "fig8"]}`, `{"figs": ["fig8", "fig11"]}`} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("client %d: %v", i, r)
				}
			}()
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("client %d: %s: %s", i, resp.Status, data)
				return
			}
			var st campaign.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				errs[i] = err
				return
			}
			deadline := time.Now().Add(2 * time.Minute)
			for st.State == campaign.JobRunning && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
				r2, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
				if err != nil {
					errs[i] = err
					return
				}
				d2, _ := io.ReadAll(r2.Body)
				r2.Body.Close()
				if err := json.Unmarshal(d2, &st); err != nil {
					errs[i] = err
					return
				}
			}
			states[i] = st
		}(i, body)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if states[i].State != campaign.JobDone {
			t.Fatalf("client %d state %q (error %q)", i, states[i].State, states[i].Error)
		}
	}
	if shared := metricValue(t, ts, "pipeline.simulate.hits") + metricValue(t, ts, "pipeline.simulate.coalesced"); shared == 0 {
		t.Fatal("no cache sharing between concurrent HTTP clients")
	}
}
