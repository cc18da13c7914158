package main

// The -remote half of the campaign subcommand: instead of building a
// suite in-process, ship the request to an amdmbd daemon, poll the job,
// and stream the finished figures back. stdout is byte-identical to the
// same local `-csv` campaign (the daemon renders with the same
// report.Figure code), so scripts can switch between local and remote
// execution without changing their parsing; the summary line moves to
// stderr like every other campaign diagnostic.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"amdgpubench/internal/campaign"
)

// remotePollInterval paces job-status polling; campaigns run seconds to
// minutes, so sub-second polling is plenty responsive.
const remotePollInterval = 100 * time.Millisecond

// apiError extracts the daemon's {"error": "..."} payload, falling back
// to the raw body for anything that is not the API's JSON shape.
func apiError(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// getJSON fetches url and decodes the 200 response into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, apiError(body))
	}
	return json.Unmarshal(body, v)
}

// runRemoteCampaign submits names to the daemon at base, waits for the
// job to settle, and emits each figure's CSV to stdout in -figs order.
// The daemon parses the request (campaign.Resolve) and reports the
// expanded figure names in the job status.
// Exit codes mirror the local path: 0 clean, 1 on daemon/transport
// errors, 2 when the daemon rejects the request as malformed, 3 when
// the campaign completed with recorded per-point failures.
func runRemoteCampaign(base string, names []string, archs []string, c *cli) int {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 30 * time.Second}

	req := campaign.Request{Figs: names, Archs: archs, MaxDomain: c.maxDomain, Iterations: c.iters}
	payload, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
		return 1
	}
	resp, err := client.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(payload))
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
		return 1
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(c.errOut, "amdmb campaign: remote: %s\n", apiError(body))
		if resp.StatusCode == http.StatusBadRequest {
			return 2
		}
		return 1
	}
	var st campaign.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		fmt.Fprintf(c.errOut, "amdmb campaign: bad submit response: %v\n", err)
		return 1
	}

	statusURL := base + "/v1/campaigns/" + st.ID
	for st.State == campaign.JobRunning {
		time.Sleep(remotePollInterval)
		if err := getJSON(client, statusURL, &st); err != nil {
			fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
			return 1
		}
	}
	if st.State != campaign.JobDone {
		fmt.Fprintf(c.errOut, "amdmb campaign: remote campaign %s %s: %s\n", st.ID, st.State, st.Error)
		return 1
	}

	for _, name := range st.Figs {
		fresp, err := client.Get(statusURL + "/figures/" + name + ".csv")
		if err != nil {
			fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
			return 1
		}
		fbody, err := io.ReadAll(fresp.Body)
		fresp.Body.Close()
		if err != nil {
			fmt.Fprintf(c.errOut, "amdmb campaign: %v\n", err)
			return 1
		}
		if fresp.StatusCode != http.StatusOK {
			fmt.Fprintf(c.errOut, "amdmb campaign: figure %s: %s\n", name, apiError(fbody))
			return 1
		}
		// Matches the local emitFigure framing: the CSV, then one blank
		// separator line.
		_, _ = c.out.Write(fbody)
		fmt.Fprintln(c.out)
	}
	fmt.Fprintf(c.errOut, "campaign: figures=%d units=%d executed=%d failed=%d (remote %s)\n",
		len(st.Figs), st.Units, st.Executed, st.FailedUnits, st.ID)
	if st.FailedUnits > 0 {
		fmt.Fprintf(c.errOut, "amdmb: %d unit(s) failed and were recorded; campaign completed\n", st.FailedUnits)
		return 3
	}
	return 0
}
